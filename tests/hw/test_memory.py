"""Tests for the memory controller: throttling and fluid flow sharing."""

import pytest

from repro.errors import HardwareError
from repro.hw.memory import (
    THROTTLE_REGISTER_MAX,
    MemoryController,
    MemoryFlow,
)
from repro.sim import Simulator


def make_controller(sim=None, peak=10.0, channels=4):
    sim = sim or Simulator()
    return sim, MemoryController(sim, node=0, peak_bw_bytes_per_ns=peak, channels=channels)


def run_flow(sim, flow):
    sim.run_until_condition(lambda: flow.done.fired)
    return sim.now


def test_single_flow_capped_by_its_rate_cap():
    sim, ctrl = make_controller(peak=10.0)
    # 1000 bytes at cap 2 B/ns -> 500 ns even though controller could do 10.
    flow = ctrl.submit(1000.0, rate_cap=2.0)
    assert run_flow(sim, flow) == pytest.approx(500.0)


def test_single_flow_capped_by_controller_bandwidth():
    sim, ctrl = make_controller(peak=10.0)
    flow = ctrl.submit(1000.0, rate_cap=100.0)
    assert run_flow(sim, flow) == pytest.approx(100.0)


def test_throttle_register_scales_bandwidth_linearly():
    sim, ctrl = make_controller(peak=8.0)
    ctrl.program_throttle_register(THROTTLE_REGISTER_MAX, privileged=True)
    assert ctrl.effective_bandwidth == pytest.approx(8.0)
    ctrl.program_throttle_register((THROTTLE_REGISTER_MAX + 1) // 2 - 1, privileged=True)
    assert ctrl.effective_bandwidth == pytest.approx(4.0)
    ctrl.program_throttle_register((THROTTLE_REGISTER_MAX + 1) // 4 - 1, privileged=True)
    assert ctrl.effective_bandwidth == pytest.approx(2.0)


def test_throttle_register_requires_privilege():
    _, ctrl = make_controller()
    with pytest.raises(HardwareError, match="privileged"):
        ctrl.program_throttle_register(100, privileged=False)


def test_throttle_register_range_checked():
    _, ctrl = make_controller()
    with pytest.raises(HardwareError):
        ctrl.program_throttle_register(THROTTLE_REGISTER_MAX + 1, privileged=True)
    with pytest.raises(HardwareError):
        ctrl.program_throttle_register(-1, privileged=True)


def test_two_equal_flows_share_bandwidth_fairly():
    sim, ctrl = make_controller(peak=10.0)
    a = ctrl.submit(1000.0, rate_cap=100.0, label="a")
    b = ctrl.submit(1000.0, rate_cap=100.0, label="b")
    sim.run_until_condition(lambda: a.done.fired and b.done.fired)
    # Both uncapped: 5 B/ns each -> 200 ns.
    assert sim.now == pytest.approx(200.0)


def test_capped_flow_leaves_bandwidth_to_others():
    sim, ctrl = make_controller(peak=10.0)
    slow = ctrl.submit(100.0, rate_cap=1.0, label="latency-bound")
    fast = ctrl.submit(1800.0, rate_cap=100.0, label="streaming")
    sim.run_until_condition(lambda: slow.done.fired)
    assert sim.now == pytest.approx(100.0)  # slow ran at its 1 B/ns cap
    sim.run_until_condition(lambda: fast.done.fired)
    # Fast flow got 9 B/ns while slow was active (900 B in 100 ns), then
    # 10 B/ns for the remaining 900 B.
    assert sim.now == pytest.approx(190.0)


def test_flow_completion_after_membership_change_is_exact():
    sim, ctrl = make_controller(peak=10.0)
    a = ctrl.submit(500.0, rate_cap=100.0, label="a")  # alone: 50 ns
    fired_at = {}
    a.done._add_waiter  # silence lint; we observe via condition below
    sim.run(until_ns=10.0)  # a has moved 100 bytes
    b = ctrl.submit(400.0, rate_cap=100.0, label="b")
    sim.run_until_condition(lambda: a.done.fired)
    # After t=10: both at 5 B/ns. a needs 400/5 = 80 more ns.
    assert sim.now == pytest.approx(90.0)
    sim.run_until_condition(lambda: b.done.fired)
    # b: 400 bytes; 80ns at 5 => done at same instant as a... b finished 400 at t=90 too.
    assert sim.now == pytest.approx(90.0)
    assert fired_at == {}


def test_withdraw_returns_remaining_bytes():
    sim, ctrl = make_controller(peak=10.0)
    flow = ctrl.submit(1000.0, rate_cap=10.0)
    sim.run(until_ns=30.0)
    remaining = ctrl.withdraw(flow)
    assert remaining == pytest.approx(700.0)
    assert flow.withdrawn
    assert not flow.done.fired
    sim.run()
    assert not flow.done.fired  # withdrawn flows never complete


def test_withdraw_unknown_flow_rejected():
    sim, ctrl = make_controller()
    flow = ctrl.submit(10.0, rate_cap=1.0)
    sim.run()
    with pytest.raises(HardwareError):
        ctrl.withdraw(flow)


def test_zero_byte_flow_completes_immediately():
    sim, ctrl = make_controller()
    flow = ctrl.submit(0.0, rate_cap=1.0)
    assert flow.done.fired
    assert ctrl.active_flow_count == 0


def test_total_bytes_served_accounting():
    sim, ctrl = make_controller(peak=10.0)
    flow = ctrl.submit(1000.0, rate_cap=100.0)
    run_flow(sim, flow)
    assert ctrl.total_bytes_served == pytest.approx(1000.0)


def test_utilization_reporting():
    sim, ctrl = make_controller(peak=10.0)
    assert ctrl.utilization == 0.0
    ctrl.submit(10_000.0, rate_cap=2.0)
    assert ctrl.utilization == pytest.approx(0.2)
    ctrl.submit(10_000.0, rate_cap=100.0)
    assert ctrl.utilization == pytest.approx(1.0)


def test_invalid_flow_parameters_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        MemoryFlow(sim, total_bytes=-1.0, rate_cap=1.0)
    with pytest.raises(HardwareError):
        MemoryFlow(sim, total_bytes=10.0, rate_cap=0.0)


def test_invalid_controller_parameters_rejected():
    sim = Simulator()
    with pytest.raises(HardwareError):
        MemoryController(sim, 0, peak_bw_bytes_per_ns=0.0, channels=4)
    with pytest.raises(HardwareError):
        MemoryController(sim, 0, peak_bw_bytes_per_ns=1.0, channels=0)


# ----------------------------------------------------------------------
# Allocation matches the general two-stage water-fill bit for bit
# ----------------------------------------------------------------------
def _reference_rates(ctrl):
    """The general two-stage fill, written out with per-flow dicts."""

    def water_fill(flows, caps, capacity):
        assigned = {}
        pending = sorted(flows, key=lambda f: caps[f.flow_id])
        remaining = capacity
        count = len(pending)
        for index, flow in enumerate(pending):
            fair_share = remaining / (count - index)
            rate = min(caps[flow.flow_id], fair_share)
            assigned[flow.flow_id] = rate
            remaining -= rate
        return assigned

    kind_limits = {}
    for kind in ("read", "write"):
        kind_flows = [flow for flow in ctrl._flows if flow.kind == kind]
        if kind_flows:
            caps = {flow.flow_id: flow.rate_cap for flow in kind_flows}
            kind_limits.update(
                water_fill(kind_flows, caps, ctrl._kind_bandwidth(kind))
            )
    return water_fill(ctrl._flows, kind_limits, ctrl.effective_bandwidth)


def _assert_matches_reference(sim, ctrl):
    reference = _reference_rates(ctrl)
    assert sorted(reference) == sorted(f.flow_id for f in ctrl._flows)
    for flow in ctrl._flows:
        rate = reference[flow.flow_id]
        assert flow.assigned_rate.hex() == rate.hex()
        eta = flow.remaining_bytes / rate
        assert flow._completion_event.time.hex() == (sim.now + eta).hex()


def make_rw_controller(peak=10.0):
    sim = Simulator()
    return sim, MemoryController(
        sim, node=0, peak_bw_bytes_per_ns=peak, channels=4,
        rw_throttle_supported=True,
    )


@pytest.mark.parametrize("kind", ["read", "write"])
@pytest.mark.parametrize("cap", [0.3, 7.0, 1e6])
def test_lone_flow_rate_and_completion_match_the_water_fill(kind, cap):
    sim, ctrl = make_rw_controller(peak=9.7)
    flow = ctrl.submit(12_345.0, rate_cap=cap, kind=kind)
    _assert_matches_reference(sim, ctrl)
    sim.run(until_ns=3.3)
    ctrl.program_throttle_register(1234, privileged=True)
    _assert_matches_reference(sim, ctrl)
    sim.run(until_ns=7.1)
    ctrl.program_rw_throttle_registers(777, 2049, privileged=True)
    _assert_matches_reference(sim, ctrl)
    run_flow(sim, flow)
    assert ctrl.active_flow_count == 0


def test_lone_flow_after_withdraw_and_completion_matches_the_water_fill():
    sim, ctrl = make_rw_controller(peak=10.0)
    a = ctrl.submit(1000.0, rate_cap=3.0, kind="read")
    b = ctrl.submit(5000.0, rate_cap=100.0, kind="write")
    c = ctrl.submit(300.0, rate_cap=100.0, kind="read")
    _assert_matches_reference(sim, ctrl)
    sim.run(until_ns=11.0)
    ctrl.withdraw(a)
    _assert_matches_reference(sim, ctrl)
    sim.run_until_condition(lambda: c.done.fired)
    assert ctrl.active_flow_count == 1
    _assert_matches_reference(sim, ctrl)
    ctrl.program_rw_throttle_registers(4095, 100, privileged=True)
    _assert_matches_reference(sim, ctrl)
    ctrl.withdraw(b)
    assert ctrl.active_flow_count == 0


@pytest.mark.parametrize("seed", range(6))
def test_random_flow_churn_matches_the_water_fill(seed):
    import random

    rng = random.Random(seed)
    sim, ctrl = make_rw_controller(peak=rng.uniform(1.0, 20.0))
    for _ in range(60):
        action = rng.random()
        if action < 0.45 or not ctrl._flows:
            # Repeated caps exercise the fill's tie order.
            cap = rng.choice([0.5, 2.0, 2.0, rng.uniform(0.1, 30.0)])
            ctrl.submit(rng.uniform(1.0, 5000.0), rate_cap=cap,
                        kind=rng.choice(["read", "write"]))
        elif action < 0.65:
            ctrl.withdraw(rng.choice(ctrl._flows))
        elif action < 0.8:
            ctrl.program_throttle_register(rng.randrange(4096), privileged=True)
        elif action < 0.9:
            ctrl.program_rw_throttle_registers(
                rng.randrange(4096), rng.randrange(4096), privileged=True
            )
        else:
            # Completions reallocate as they fire; the check below needs
            # an allocation made at the current instant.
            sim.run(until_ns=sim.now + rng.uniform(0.0, 200.0))
            continue
        if ctrl._flows:
            _assert_matches_reference(sim, ctrl)
