"""Per-core performance monitoring counters (PMCs).

The simulated hardware increments *true* event counts as the core executes;
readers observe those counts through a measurement layer that models the
per-family counter fidelity of real Xeons:

* a **systematic bias** per (family, core, event) — event definitions
  over/under-count consistently (Section 4.4 footnote 6 notes Sandy Bridge
  counters are "less reliable", the paper's explanation for its larger
  emulation error).  It is a fixed property of the hardware, the same on
  every run and every machine of a family, so it is derived once per
  process and shared by every :class:`PmcFile`;
* **white read noise** applied to each read delta, drawn from the run's
  named per-core stream;
* monotonicity is preserved (a real counter never runs backwards).

Only the events of Table 1 exist per family; programming or reading any
other event raises, mirroring a bad ``PERFEVTSEL`` programming.
"""

from __future__ import annotations

import functools
import random
import zlib
from collections.abc import Mapping
from types import MappingProxyType

from repro.errors import HardwareError
from repro.hw.arch import ArchSpec, CounterEventSet
from repro.sim import Simulator


@functools.lru_cache(maxsize=64)
def _event_names(events: CounterEventSet) -> tuple[frozenset[str], tuple[str, ...]]:
    """A family's Table 1 events as a set and as a sorted tuple."""
    names = frozenset(events.all_events())
    return names, tuple(sorted(names))


@functools.lru_cache(maxsize=4096)
def counter_bias(
    arch_name: str, core_id: int, events: tuple[str, ...], bias_sigma: float
) -> Mapping[str, float]:
    """The systematic scale error of each event's counter on one core.

    The miscount of an event is a *hardware property* of the family —
    identical on every run of the same testbed (which is why the paper's
    per-family error bands persist across its 20 trials) — so it is
    derived deterministically from (family, core, event), independent of
    the run seed.  *bias_sigma* is part of the key because ablations
    build same-named arches with a different fidelity.  The mapping is
    shared by every core file built with the same key, hence read-only.
    """
    bias = {}
    for name in events:
        fingerprint = zlib.crc32(
            f"pmc/{arch_name}/core{core_id}/{name}".encode("utf-8")
        )
        bias[name] = 1.0 + random.Random(fingerprint).gauss(0.0, bias_sigma)
    return MappingProxyType(bias)


class PmcFile:
    """The PMC register file of one core."""

    def __init__(self, sim: Simulator, arch: ArchSpec, core_id: int):
        self.sim = sim
        self.arch = arch
        self.core_id = core_id
        self._valid_events, names = _event_names(arch.counter_events)
        self._true: dict[str, float] = dict.fromkeys(names, 0.0)
        self._programmed: set[str] = set()
        # Measurement state per event: (true value at last read, last
        # reported value).
        self._read_state: dict[str, tuple[float, float]] = {}
        self._bias = counter_bias(
            arch.name, core_id, names, arch.counter_fidelity.bias_sigma
        )
        # Fetched by name on the first noisy read: the run's streams are
        # derived from their names, so when a stream is first asked for
        # does not change its draws.
        self._noise_rng = None
        #: Optional hook ``(core_id, event, value) -> value`` applied to
        #: the *reported* value only — the fault layer's stale-read and
        #: register-wrap seam.  Internal read state keeps the unfaulted
        #: truth, so faults never compound across reads.
        self.read_interceptor = None

    # ------------------------------------------------------------------
    # Programming (privileged; done by the Quartz kernel module)
    # ------------------------------------------------------------------
    def program(self, events: tuple[str, ...], *, privileged: bool) -> None:
        """Select the events this core's counters track."""
        if not privileged:
            raise HardwareError("programming PERFEVTSEL requires ring 0")
        for name in events:
            self._require_valid(name)
        self._programmed = set(events)

    @property
    def programmed_events(self) -> frozenset[str]:
        """Events currently selected."""
        return frozenset(self._programmed)

    # ------------------------------------------------------------------
    # Hardware side: true increments
    # ------------------------------------------------------------------
    def increment(self, event: str, delta: float) -> None:
        """Advance the true count of *event* (hardware side)."""
        self._require_valid(event)
        if delta < 0:
            raise HardwareError(f"counter {event} cannot decrease (delta={delta})")
        self._true[event] += delta

    def true_value(self, event: str) -> float:
        """The exact event count, bypassing measurement error (test hook)."""
        self._require_valid(event)
        return self._true[event]

    # ------------------------------------------------------------------
    # Software side: rdpmc-style reads
    # ------------------------------------------------------------------
    def read(self, event: str) -> float:
        """Read the counter as software sees it (bias + noise, monotonic).

        The *cost* of the read (rdpmc vs. PAPI trap) is charged by the
        counter backend in ``repro.quartz.counters``, not here.
        """
        self._require_valid(event)
        if event not in self._programmed:
            raise HardwareError(
                f"event {event} is not programmed on core {self.core_id}"
            )
        true_now = self._true[event]
        true_prev, reported_prev = self._read_state.get(event, (0.0, 0.0))
        delta = true_now - true_prev
        fidelity = self.arch.counter_fidelity
        observed_delta = delta * self._bias[event]
        if delta > 0 and fidelity.read_noise_sigma > 0:
            if self._noise_rng is None:
                self._noise_rng = self.sim.random.stream(
                    f"pmc-read-core{self.core_id}"
                )
            observed_delta *= 1.0 + self._noise_rng.gauss(
                0.0, fidelity.read_noise_sigma
            )
        reported = max(reported_prev, reported_prev + observed_delta)
        self._read_state[event] = (true_now, reported)
        if self.read_interceptor is not None:
            return self.read_interceptor(self.core_id, event, reported)
        return reported

    def _require_valid(self, event: str) -> None:
        if event not in self._valid_events:
            raise HardwareError(
                f"event {event!r} does not exist on {self.arch.name} "
                f"(Table 1 events: {sorted(self._valid_events)})"
            )
