"""Tests for the detailed and analytic cache models."""

import dataclasses

import pytest

from repro.errors import HardwareError
from repro.hw import ALL_ARCHS, IVY_BRIDGE, SANDY_BRIDGE
from repro.hw.cache import AnalyticCacheModel, CacheHierarchySim, SetAssociativeCache
from repro.hw.topology import MemoryRegion, PageSize
from repro.ops import MemBatch, PatternKind
from repro.units import CACHE_LINE_BYTES, KIB, MIB


def region(size, node=0, page=PageSize.SMALL_4K):
    return MemoryRegion(node=node, size_bytes=size, base=0, page_size=page)


# ----------------------------------------------------------------------
# Detailed set-associative simulator
# ----------------------------------------------------------------------
def test_cache_repeated_access_hits():
    cache = SetAssociativeCache(4 * KIB, ways=4)
    assert cache.access(0) is False  # cold miss
    assert cache.access(0) is True
    assert cache.access(32) is True  # same line
    assert cache.access(64) is False  # next line


def test_cache_capacity_eviction():
    cache = SetAssociativeCache(4 * KIB, ways=4)  # 64 lines
    for address in range(0, 8 * KIB, CACHE_LINE_BYTES):  # 128 lines
        cache.access(address)
    cache.reset_stats()
    # First lines were evicted.
    assert cache.access(0) is False


def test_cache_lru_within_set():
    # 2-way, 2-set cache: lines with same set index conflict.
    cache = SetAssociativeCache(4 * CACHE_LINE_BYTES, ways=2)
    sets = cache.sets
    a, b, c = 0, sets * CACHE_LINE_BYTES, 2 * sets * CACHE_LINE_BYTES
    cache.access(a)
    cache.access(b)
    cache.access(a)  # a is MRU
    cache.access(c)  # evicts b (LRU)
    assert cache.access(a) is True
    assert cache.access(b) is False


def test_cache_working_set_within_capacity_fully_hits():
    cache = SetAssociativeCache(64 * KIB, ways=8)
    addresses = list(range(0, 32 * KIB, CACHE_LINE_BYTES))
    for address in addresses:
        cache.access(address)
    cache.reset_stats()
    for _ in range(4):
        for address in addresses:
            cache.access(address)
    assert cache.hit_rate == 1.0


def test_cache_invalid_geometry_rejected():
    with pytest.raises(HardwareError):
        SetAssociativeCache(0, ways=4)
    with pytest.raises(HardwareError):
        SetAssociativeCache(100 * CACHE_LINE_BYTES, ways=7)


def test_hierarchy_serves_from_first_fitting_level():
    hierarchy = CacheHierarchySim(IVY_BRIDGE)
    assert hierarchy.access(0) == "dram"
    assert hierarchy.access(0) == "l1"


# ----------------------------------------------------------------------
# Analytic model
# ----------------------------------------------------------------------
def model(arch=IVY_BRIDGE):
    return AnalyticCacheModel(arch)


def test_chase_over_huge_array_all_misses():
    # The MemLat property (Section 4.4): array >> LLC => every access a miss.
    from repro.units import GIB

    r = region(8 * GIB)
    batch = MemBatch(r, accesses=10_000, pattern=PatternKind.CHASE)
    profile = model().resolve(batch)
    assert profile.demand_dram_loads / batch.accesses > 0.99
    assert profile.effective_mlp == 1.0
    assert profile.dram_bytes == pytest.approx(
        profile.demand_dram_loads * CACHE_LINE_BYTES
    )


def test_chase_within_l1_all_hits():
    r = region(16 * KIB)
    batch = MemBatch(r, accesses=1000, pattern=PatternKind.CHASE)
    profile = model().resolve(batch)
    assert profile.l1_hits == 1000
    assert profile.demand_dram_loads == 0


def test_multiple_chains_raise_mlp_up_to_mshr_limit():
    r = region(512 * MIB)
    for chains, expected in [(1, 1), (4, 4), (8, 8), (32, IVY_BRIDGE.mshr_count)]:
        batch = MemBatch(r, accesses=1000, pattern=PatternKind.CHASE, parallelism=chains)
        assert model().resolve(batch).effective_mlp == expected


def test_serialized_accesses_scale_inversely_with_mlp():
    r = region(512 * MIB)
    one = model().resolve(MemBatch(r, 1000, PatternKind.CHASE, parallelism=1))
    four = model().resolve(MemBatch(r, 1000, PatternKind.CHASE, parallelism=4))
    assert one.serialized_dram_accesses == pytest.approx(
        4 * four.serialized_dram_accesses
    )


def test_hit_fractions_sum_to_accesses():
    r = region(40 * MIB)  # straddles LLC capacity
    batch = MemBatch(r, accesses=10_000, pattern=PatternKind.RANDOM)
    profile = model().resolve(batch)
    total = (
        profile.l1_hits + profile.l2_hits + profile.l3_hits + profile.demand_dram_loads
    )
    assert total == pytest.approx(batch.accesses)


def test_footprint_override_controls_hit_rate():
    r = region(512 * MIB)
    hot = MemBatch(r, 1000, PatternKind.RANDOM, footprint_bytes=8 * KIB)
    profile = model().resolve(hot)
    assert profile.l1_hits == 1000


def test_sequential_prefetch_covers_most_misses():
    from repro.units import GIB

    r = region(8 * GIB)  # LLC-resident fraction negligible
    batch = MemBatch(r, accesses=80_000, pattern=PatternKind.SEQUENTIAL, stride_bytes=8)
    profile = model().resolve(batch)
    lines = 80_000 / 8
    assert profile.prefetched_lines == pytest.approx(
        lines * IVY_BRIDGE.prefetch_coverage, rel=0.01
    )
    assert profile.demand_dram_loads == pytest.approx(
        lines * (1 - IVY_BRIDGE.prefetch_coverage), rel=0.02
    )
    # All traffic still reaches DRAM.
    assert profile.dram_bytes == pytest.approx(lines * CACHE_LINE_BYTES, rel=0.01)
    # Within-line accesses hit L1.
    assert profile.l1_hits == pytest.approx(80_000 - lines)


def test_prefetched_lines_retire_as_l3_hits_in_pmc_view():
    r = region(512 * MIB)
    batch = MemBatch(r, accesses=8_000, pattern=PatternKind.SEQUENTIAL, stride_bytes=8)
    profile = model().resolve(batch)
    assert profile.pmc_l3_hits == pytest.approx(
        profile.l3_hits + profile.prefetched_lines
    )


def test_store_batch_charges_rfo_and_writeback_traffic():
    r = region(512 * MIB)
    load = model().resolve(MemBatch(r, 1000, PatternKind.RANDOM))
    store = model().resolve(MemBatch(r, 1000, PatternKind.RANDOM, is_store=True))
    assert store.dram_bytes == pytest.approx(2 * load.dram_bytes)
    assert store.pmc_l3_hits == 0.0  # load events do not count stores
    assert store.pmc_dram_loads == 0.0


def test_non_temporal_store_bypasses_cache_and_rfo():
    r = region(512 * MIB)
    batch = MemBatch(
        r, accesses=8_000, pattern=PatternKind.SEQUENTIAL, stride_bytes=8,
        is_store=True, non_temporal=True,
    )
    profile = model().resolve(batch)
    lines = 8_000 / 8
    assert profile.dram_bytes == pytest.approx(lines * CACHE_LINE_BYTES)
    assert profile.demand_dram_loads == 0.0


def test_non_temporal_load_rejected():
    r = region(MIB)
    batch = MemBatch(r, 10, PatternKind.SEQUENTIAL, non_temporal=True)
    with pytest.raises(HardwareError):
        model().resolve(batch)


def test_llc_sharing_reduces_effective_capacity():
    r = region(20 * MIB)
    alone = AnalyticCacheModel(IVY_BRIDGE)
    shared = AnalyticCacheModel(IVY_BRIDGE)
    shared.llc_sharers = 8
    p_alone = alone.resolve(MemBatch(r, 10_000, PatternKind.RANDOM))
    p_shared = shared.resolve(MemBatch(r, 10_000, PatternKind.RANDOM))
    assert p_shared.demand_dram_loads > p_alone.demand_dram_loads


def test_hugepages_eliminate_tlb_walks_for_memlat_sized_arrays():
    # Section 4.4: MemLat uses 2 MB hugepages to minimise TLB misses.
    small = region(512 * MIB, page=PageSize.SMALL_4K)
    huge = region(512 * MIB, page=PageSize.HUGE_2M)
    walks_small = model().resolve(MemBatch(small, 10_000, PatternKind.CHASE)).tlb_walks
    walks_huge = model().resolve(MemBatch(huge, 10_000, PatternKind.CHASE)).tlb_walks
    assert walks_small > 1000
    assert walks_huge == 0.0


def test_empty_batch_resolves_to_zeroes():
    r = region(MIB)
    profile = model().resolve(MemBatch(r, 0, PatternKind.RANDOM))
    assert profile.accesses == 0
    assert profile.dram_bytes == 0.0


def test_freed_region_rejected():
    r = region(MIB)
    r.freed = True
    with pytest.raises(HardwareError, match="use after free"):
        model().resolve(MemBatch(r, 10, PatternKind.RANDOM))


# ----------------------------------------------------------------------
# Cross-validation: analytic vs detailed simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("footprint_mib", [1, 8, 64])
def test_analytic_matches_detailed_for_random_access(footprint_mib):
    """The capacity heuristic should track the functional LRU simulator."""
    import random as stdlib_random

    arch = SANDY_BRIDGE
    footprint = footprint_mib * MIB
    hierarchy = CacheHierarchySim(arch)
    rng = stdlib_random.Random(42)
    addresses = [
        rng.randrange(0, footprint // CACHE_LINE_BYTES) * CACHE_LINE_BYTES
        for _ in range(20_000)
    ]
    # Deterministic warmup: touch every line once so the steady state the
    # analytic model assumes (no cold misses) is reached.
    for line_base in range(0, footprint, CACHE_LINE_BYTES):
        hierarchy.access(line_base)
    served = {"l1": 0, "l2": 0, "l3": 0, "dram": 0}
    for address in addresses:
        served[hierarchy.access(address)] += 1
    measured_miss_rate = served["dram"] / 20_000

    r = region(footprint)
    profile = AnalyticCacheModel(arch).resolve(
        MemBatch(r, 20_000, PatternKind.RANDOM)
    )
    analytic_miss_rate = profile.demand_dram_loads / 20_000
    assert analytic_miss_rate == pytest.approx(measured_miss_rate, abs=0.08)


# ----------------------------------------------------------------------
# Per-shape memo
# ----------------------------------------------------------------------
def _profile_hex(profile):
    """Every field of a profile, floats as exact hex strings."""
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(profile).items()
    }


def _all_shapes():
    # Each variant differs from the base shape in one field only.
    variants = (
        {},
        {"accesses": 2_500},
        {"parallelism": 6},
        {"stride_bytes": 8},
        {"dram_bytes_multiplier": 2.0},
    )
    for pattern in PatternKind:
        for is_store, non_temporal in ((False, False), (True, False), (True, True)):
            for footprint in (16 * KIB, 200 * KIB, 4 * MIB, 40 * MIB, 4096 * MIB):
                for page in (PageSize.SMALL_4K, PageSize.HUGE_2M):
                    for variant in variants:
                        fields = dict(
                            accesses=10_000,
                            pattern=pattern,
                            is_store=is_store,
                            non_temporal=non_temporal,
                        )
                        fields.update(variant)
                        yield (footprint, page), fields


@pytest.mark.parametrize("arch", ALL_ARCHS, ids=lambda arch: arch.name)
def test_memoised_resolve_is_bit_identical_to_a_fresh_model(arch):
    # One warm model sees every shape twice; a shape missing from the
    # memo key would come back as another shape's profile.
    regions = {}
    warm = AnalyticCacheModel(arch)
    cases = []
    for sharers in (1, 2, 3, 4):
        for (footprint, page), fields in _all_shapes():
            r = regions.setdefault((footprint, page), region(footprint, page=page))
            cases.append((sharers, MemBatch(r, **fields)))
    for _ in range(2):
        for sharers, batch in cases:
            warm.llc_sharers = sharers
            warm.resolve(batch)
    for sharers, batch in cases:
        fresh = AnalyticCacheModel(arch)
        fresh.llc_sharers = sharers
        warm.llc_sharers = sharers
        assert _profile_hex(warm.resolve(batch)) == _profile_hex(fresh.resolve(batch))


def test_repeated_shape_returns_the_memoised_profile():
    r = region(64 * MIB)
    m = model()
    first = m.resolve(MemBatch(r, 1000, PatternKind.RANDOM, label="a"))
    # Label, compute and overlap do not change how a batch resolves.
    again = MemBatch(r, 1000, PatternKind.RANDOM, label="b",
                     compute_cycles_per_access=3.0, overlap=0.5)
    assert m.resolve(again) is first
    assert m.resolve(MemBatch(r, 1001, PatternKind.RANDOM)) is not first


def test_profile_derived_terms_follow_from_its_counts():
    r = region(64 * MIB)
    arch = IVY_BRIDGE
    for pattern, ilp in ((PatternKind.CHASE, 1.0), (PatternKind.RANDOM, 8.0)):
        p = AnalyticCacheModel(arch).resolve(MemBatch(r, 1000, pattern, parallelism=4))
        assert p.serialized_dram_accesses == p.demand_dram_loads / p.effective_mlp
        assert p.serialized_l3_hits == (p.l3_hits + p.prefetched_lines) / p.effective_mlp
        assert p.pmc_l3_hits == p.l3_hits + p.prefetched_lines
        assert p.pmc_dram_loads == p.demand_dram_loads
        assert p.hit_ns == (p.l1_hits * arch.l1_lat_ns + p.l2_hits * arch.l2_lat_ns) / ilp
        assert p.l3_wait_ns == p.serialized_l3_hits * arch.l3_lat_ns
        assert p.tlb_wait_ns == p.tlb_walks * arch.tlb_walk_ns / p.effective_mlp
    store = model().resolve(MemBatch(r, 1000, PatternKind.RANDOM, is_store=True))
    assert store.pmc_l3_hits == 0.0 and store.pmc_dram_loads == 0.0


def test_freed_region_rejected_after_its_shape_is_memoised():
    r = region(MIB)
    m = model()
    batch = MemBatch(r, 10, PatternKind.RANDOM)
    m.resolve(batch)
    r.freed = True
    with pytest.raises(HardwareError, match="use after free"):
        m.resolve(batch)


def test_non_temporal_load_rejected_on_a_memo_hit():
    r = region(MIB)
    m = model()
    m.resolve(MemBatch(r, 10, PatternKind.SEQUENTIAL, is_store=True, non_temporal=True))
    load = MemBatch(r, 10, PatternKind.SEQUENTIAL, non_temporal=True)
    for _ in range(2):
        with pytest.raises(HardwareError, match="non-temporal"):
            m.resolve(load)
    # An empty batch resolves before the hint is checked, as it always has.
    assert m.resolve(MemBatch(r, 0, PatternKind.SEQUENTIAL, non_temporal=True)).accesses == 0


def test_changing_llc_sharers_changes_the_memoised_result():
    r = region(20 * MIB)
    m = model()
    batch = MemBatch(r, 10_000, PatternKind.RANDOM)
    alone = m.resolve(batch)
    m.llc_sharers = 4
    shared = m.resolve(batch)
    assert shared.demand_dram_loads > alone.demand_dram_loads
    m.llc_sharers = 1
    assert m.resolve(batch) is alone


def test_returned_profile_is_immutable():
    profile = model().resolve(MemBatch(region(MIB), 10, PatternKind.RANDOM))
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.dram_bytes = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.tlb_walks *= 2


def test_memo_is_bounded():
    m = model()
    m.MEMO_LIMIT = 4
    r = region(MIB)
    for accesses in range(1, 12):
        m.resolve(MemBatch(r, accesses, PatternKind.RANDOM))
        assert len(m._memo) <= 4
    fresh = model().resolve(MemBatch(r, 1, PatternKind.RANDOM))
    assert _profile_hex(m.resolve(MemBatch(r, 1, PatternKind.RANDOM))) == _profile_hex(fresh)
