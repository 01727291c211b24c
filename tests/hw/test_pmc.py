"""Tests for the performance-counter model."""

import dataclasses
import random
import types
import zlib

import pytest

from repro.errors import HardwareError
from repro.hw import ALL_ARCHS, HASWELL, IVY_BRIDGE, SANDY_BRIDGE, Machine
from repro.hw import pmc as pmc_module
from repro.hw.pmc import PmcFile
from repro.sim import Simulator


EVENTS = IVY_BRIDGE.counter_events


def make_pmc(arch=IVY_BRIDGE, seed=1, core=0):
    sim = Simulator(seed=seed)
    pmc = PmcFile(sim, arch, core_id=core)
    pmc.program(arch.counter_events.all_events(), privileged=True)
    return pmc


def test_increment_and_true_value():
    pmc = make_pmc()
    pmc.increment(EVENTS.l3_hit, 100.0)
    pmc.increment(EVENTS.l3_hit, 50.0)
    assert pmc.true_value(EVENTS.l3_hit) == 150.0


def test_counters_cannot_decrease():
    pmc = make_pmc()
    with pytest.raises(HardwareError):
        pmc.increment(EVENTS.l3_hit, -1.0)


def test_unknown_event_rejected():
    pmc = make_pmc()
    with pytest.raises(HardwareError, match="does not exist"):
        pmc.increment("BOGUS_EVENT", 1.0)
    with pytest.raises(HardwareError, match="does not exist"):
        pmc.read("BOGUS_EVENT")


def test_sandy_bridge_event_namespace_differs():
    pmc = make_pmc(arch=SANDY_BRIDGE)
    pmc.increment("MEM_LOAD_UOPS_MISC_RETIRED:LLC_MISS", 5.0)
    with pytest.raises(HardwareError):
        pmc.increment("MEM_LOAD_UOPS_LLC_MISS_RETIRED:LOCAL_DRAM", 1.0)


def test_programming_requires_privilege():
    sim = Simulator()
    pmc = PmcFile(sim, IVY_BRIDGE, core_id=0)
    with pytest.raises(HardwareError, match="ring 0"):
        pmc.program(EVENTS.all_events(), privileged=False)


def test_reading_unprogrammed_event_rejected():
    sim = Simulator()
    pmc = PmcFile(sim, IVY_BRIDGE, core_id=0)
    pmc.program((EVENTS.l2_stalls,), privileged=True)
    with pytest.raises(HardwareError, match="not programmed"):
        pmc.read(EVENTS.l3_hit)


def test_reads_are_monotonic():
    pmc = make_pmc(arch=SANDY_BRIDGE)  # noisiest family
    event = SANDY_BRIDGE.counter_events.l2_stalls
    previous = 0.0
    for step in range(200):
        pmc.increment(event, 10.0)
        value = pmc.read(event)
        assert value >= previous
        previous = value


def test_read_tracks_true_value_within_fidelity():
    pmc = make_pmc(arch=IVY_BRIDGE)
    event = IVY_BRIDGE.counter_events.l3_hit
    pmc.increment(event, 1_000_000.0)
    observed = pmc.read(event)
    assert observed == pytest.approx(1_000_000.0, rel=0.05)


def test_bias_is_systematic_within_a_run():
    """Two large deltas on the same counter see the same scale factor."""
    pmc = make_pmc(arch=HASWELL, seed=3)
    event = HASWELL.counter_events.l2_stalls
    pmc.increment(event, 1_000_000.0)
    first = pmc.read(event)
    pmc.increment(event, 1_000_000.0)
    second = pmc.read(event) - first
    # Same bias, small white noise: deltas agree to ~3 sigma of read noise.
    assert second == pytest.approx(first, rel=0.06)


def test_bias_is_a_fixed_hardware_property_across_runs():
    """The same testbed miscounts identically on every run (the paper's
    per-family error bands persist across its 20 trials)."""
    event = IVY_BRIDGE.counter_events.l2_stalls
    biases = set()
    for seed in range(5):
        pmc = make_pmc(seed=seed)
        biases.add(pmc._bias[event])
    assert len(biases) == 1


def test_read_noise_differs_across_seeds():
    event = IVY_BRIDGE.counter_events.l2_stalls
    readings = set()
    for seed in range(5):
        pmc = make_pmc(seed=seed)
        pmc.increment(event, 1_000_000.0)
        readings.add(round(pmc.read(event), 3))
    assert len(readings) > 1


def test_bias_differs_across_cores():
    sim = Simulator(seed=9)
    event = IVY_BRIDGE.counter_events.l2_stalls
    values = set()
    for core in range(4):
        pmc = PmcFile(sim, IVY_BRIDGE, core_id=core)
        pmc.program((event,), privileged=True)
        pmc.increment(event, 1_000_000.0)
        values.add(round(pmc.read(event), 3))
    assert len(values) > 1


def test_sandy_bridge_noisier_than_ivy_bridge():
    """Footnote 6: Sandy Bridge counters are less reliable."""
    def spread(arch):
        event = arch.counter_events.l2_stalls
        deviations = []
        for seed in range(30):
            pmc = make_pmc(arch=arch, seed=seed)
            pmc.increment(event, 1_000_000.0)
            deviations.append(abs(pmc.read(event) - 1_000_000.0) / 1_000_000.0)
        return sum(deviations) / len(deviations)

    assert spread(SANDY_BRIDGE) > 2 * spread(IVY_BRIDGE)


def _per_instance_bias(arch, core_id):
    """The bias derivation as each PmcFile once ran it for itself."""
    bias = {}
    for name in sorted(set(arch.counter_events.all_events())):
        fingerprint = zlib.crc32(
            f"pmc/{arch.name}/core{core_id}/{name}".encode("utf-8")
        )
        rng = random.Random(fingerprint)
        bias[name] = 1.0 + rng.gauss(0.0, arch.counter_fidelity.bias_sigma)
    return bias


@pytest.mark.parametrize("arch", ALL_ARCHS, ids=lambda arch: arch.name)
def test_memoised_bias_matches_per_instance_derivation(arch):
    machine = Machine(Simulator(seed=5), arch)
    assert len(machine.pmcs) == arch.sockets * arch.cores_per_socket * arch.smt
    for pmc in machine.pmcs:
        expected = _per_instance_bias(arch, pmc.core_id)
        assert dict(pmc._bias) == expected
        # Bit for bit, not merely equal as floats.
        assert [value.hex() for value in pmc._bias.values()] == [
            value.hex() for value in expected.values()
        ]


def test_bias_is_keyed_on_sigma_not_only_the_arch_name():
    wider = dataclasses.replace(
        IVY_BRIDGE,
        counter_fidelity=dataclasses.replace(
            IVY_BRIDGE.counter_fidelity, bias_sigma=0.05
        ),
    )
    event = IVY_BRIDGE.counter_events.l2_stalls
    stock = PmcFile(Simulator(), IVY_BRIDGE, core_id=3)
    ablated = PmcFile(Simulator(), wider, core_id=3)
    assert ablated.arch.name == stock.arch.name
    assert ablated._bias[event] != stock._bias[event]
    assert dict(ablated._bias) == _per_instance_bias(wider, 3)


def test_shared_bias_mapping_is_read_only():
    pmc = make_pmc()
    with pytest.raises(TypeError):
        pmc._bias[EVENTS.l3_hit] = 1.0


def _read_every_core(core_order, seed=11):
    machine = Machine(Simulator(seed=seed), SANDY_BRIDGE)
    events = SANDY_BRIDGE.counter_events.all_events()
    readings = {}
    for core_id in core_order:
        pmc = machine.pmc(core_id)
        pmc.program(events, privileged=True)
        for step in range(3):
            for event in events:
                pmc.increment(event, 1_000.0 * (step + 1))
            readings[core_id, step] = tuple(pmc.read(event) for event in events)
    return readings


def test_read_noise_does_not_depend_on_core_read_order():
    cores = range(len(Machine(Simulator(), SANDY_BRIDGE).pmcs))
    forward = _read_every_core(list(cores))
    backward = _read_every_core(list(reversed(cores)))
    assert forward == backward


def test_second_machine_seeds_no_bias_rng(monkeypatch):
    Machine(Simulator(seed=1), HASWELL)
    seeded = []

    def counting_random(seed):
        seeded.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(
        pmc_module, "random", types.SimpleNamespace(Random=counting_random)
    )
    misses = pmc_module.counter_bias.cache_info().misses
    machine = Machine(Simulator(seed=2), HASWELL)
    assert seeded == []
    assert pmc_module.counter_bias.cache_info().misses == misses
    assert len(machine.pmcs) == HASWELL.sockets * HASWELL.cores_per_socket * HASWELL.smt
