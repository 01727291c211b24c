"""Tests for the synthetic graph substrate."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.graphs import synthetic_scale_free


def test_basic_shape():
    graph = synthetic_scale_free(1000, 5, seed=1)
    assert graph.vertex_count == 1000
    # Each vertex past the first adds up to 5 undirected edges, stored in
    # both directions.
    assert graph.edge_count <= 2 * 5 * 999
    assert graph.edge_count >= 2 * 999  # at least one edge per new vertex


def test_csr_consistency():
    graph = synthetic_scale_free(500, 4, seed=2)
    degrees = graph.out_degrees()
    assert degrees.sum() == graph.edge_count
    assert (graph.col >= 0).all() and (graph.col < 500).all()


def test_symmetry():
    graph = synthetic_scale_free(200, 3, seed=3)
    arcs = set()
    for vertex in range(200):
        for neighbor in graph.neighbors(vertex):
            arcs.add((vertex, int(neighbor)))
    assert all((b, a) in arcs for a, b in arcs)


def test_deterministic_per_seed():
    a = synthetic_scale_free(300, 4, seed=9)
    b = synthetic_scale_free(300, 4, seed=9)
    c = synthetic_scale_free(300, 4, seed=10)
    assert np.array_equal(a.col, b.col)
    assert not np.array_equal(a.col, c.col)


def test_heavy_tail():
    """Preferential attachment must produce hub vertices."""
    graph = synthetic_scale_free(3000, 5, seed=4)
    degrees = graph.out_degrees()
    assert degrees.max() > 8 * np.median(degrees)


def test_connected():
    """Every vertex attaches to an existing one: one component."""
    graph = synthetic_scale_free(400, 2, seed=5)
    seen = {0}
    frontier = [0]
    while frontier:
        vertex = frontier.pop()
        for neighbor in graph.neighbors(vertex):
            neighbor = int(neighbor)
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert len(seen) == 400


def test_parameter_validation():
    with pytest.raises(WorkloadError):
        synthetic_scale_free(1, 1)
    with pytest.raises(WorkloadError):
        synthetic_scale_free(10, 0)
    with pytest.raises(WorkloadError):
        synthetic_scale_free(10, 10)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 200), st.integers(1, 6), st.integers(0, 100))
def test_property_valid_csr(n, m, seed):
    if m >= n:
        m = n - 1
    graph = synthetic_scale_free(n, m, seed=seed)
    assert graph.row_ptr[0] == 0
    assert graph.row_ptr[-1] == graph.edge_count
    assert (np.diff(graph.row_ptr) >= 0).all()
    # No self loops.
    for vertex in range(n):
        assert vertex not in set(int(x) for x in graph.neighbors(vertex))


def _randrange_reference(vertex_count, edges_per_vertex, seed):
    """The generator's draw loop written with ``Random.randrange``."""
    rng = random.Random(seed)
    sources, targets, endpoint_pool = [], [], [0]
    for vertex in range(1, vertex_count):
        attach_count = min(edges_per_vertex, vertex)
        chosen = set()
        while len(chosen) < attach_count:
            chosen.add(endpoint_pool[rng.randrange(len(endpoint_pool))])
        for target in chosen:
            sources.append(vertex)
            targets.append(target)
            endpoint_pool.append(vertex)
            endpoint_pool.append(target)
    src = np.concatenate([np.array(sources), np.array(targets)])
    dst = np.concatenate([np.array(targets), np.array(sources)])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    row_ptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=vertex_count), out=row_ptr[1:])
    return row_ptr, dst.astype(np.int32)


@pytest.mark.parametrize(
    "n, m, seed",
    [(2, 1, 0), (3, 1, 5), (2, 1, 7), (50, 1, 1), (64, 2, 3), (257, 3, 2),
     (1000, 4, 1), (1000, 4, 2), (4000, 7, 11)],
)
def test_exact_draw_generator_matches_randrange_loop(n, m, seed):
    # Pins the inlined bounded draw to CPython's ``randrange`` on the
    # running interpreter: the same draws, hence the same CSR arrays.
    graph = synthetic_scale_free(n, m, seed=seed)
    row_ptr, col = _randrange_reference(n, m, seed)
    assert np.array_equal(graph.row_ptr, row_ptr)
    assert np.array_equal(graph.col, col)
    assert graph.col.dtype == col.dtype
