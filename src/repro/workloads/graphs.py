"""Synthetic scale-free graphs — the substrate for PageRank and BFS.

The paper's PageRank runs on a 4.8M-vertex / 69M-edge web crawl we do not
have; per the substitution rule we generate preferential-attachment
(Barabási–Albert style) graphs, which preserve the property that matters
for the memory model: a heavy-tailed degree distribution driving random
accesses over a rank/visited vector much larger than the LLC.  Sizes are
scaled down (documented in EXPERIMENTS.md) but configurable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import WorkloadError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CsrGraph:
    """A directed graph in compressed-sparse-row form.

    Undirected source graphs are stored with both edge directions, so
    ``edge_count`` counts directed arcs.
    """

    vertex_count: int
    row_ptr: np.ndarray  # int64, len = vertex_count + 1
    col: np.ndarray  # int32, len = edge_count

    def __post_init__(self) -> None:
        if len(self.row_ptr) != self.vertex_count + 1:
            raise WorkloadError("row_ptr length must be vertex_count + 1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.col):
            raise WorkloadError("row_ptr must span the column array")

    @property
    def edge_count(self) -> int:
        """Number of directed arcs."""
        return int(len(self.col))

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        import numpy as np

        return np.diff(self.row_ptr)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Successors of one vertex."""
        return self.col[self.row_ptr[vertex] : self.row_ptr[vertex + 1]]


def synthetic_scale_free(
    vertex_count: int, edges_per_vertex: int, seed: int = 0
) -> CsrGraph:
    """Preferential-attachment graph, symmetrised into CSR form.

    Each new vertex attaches to ``edges_per_vertex`` existing vertices
    sampled proportionally to degree (by drawing from the running
    endpoint list), yielding the heavy-tailed degree distribution of web
    and social graphs.
    """
    import numpy as np

    if vertex_count < 2:
        raise WorkloadError(f"need at least two vertices: {vertex_count}")
    if edges_per_vertex < 1:
        raise WorkloadError(f"need at least one edge per vertex: {edges_per_vertex}")
    if edges_per_vertex >= vertex_count:
        raise WorkloadError("edges_per_vertex must be below vertex_count")
    rng = random.Random(seed)
    sources: list[int] = []
    targets: list[int] = []
    # Every draw lands in this list twice, making sampling degree-biased.
    endpoint_pool: list[int] = [0]
    for vertex in range(1, vertex_count):
        attach_count = min(edges_per_vertex, vertex)
        chosen: set[int] = set()
        while len(chosen) < attach_count:
            chosen.add(endpoint_pool[rng.randrange(len(endpoint_pool))])
        for target in chosen:
            sources.append(vertex)
            targets.append(target)
            endpoint_pool.append(vertex)
            endpoint_pool.append(target)
    # Symmetrise: store both arc directions.
    src = np.concatenate([np.array(sources), np.array(targets)])
    dst = np.concatenate([np.array(targets), np.array(sources)])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=vertex_count)
    row_ptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CsrGraph(
        vertex_count=vertex_count,
        row_ptr=row_ptr,
        col=dst.astype(np.int32),
    )


def synthetic_power_law(
    vertex_count: int,
    avg_degree: int,
    exponent: float = 2.1,
    seed: int = 0,
) -> CsrGraph:
    """Large power-law graph via the configuration model (vectorised).

    Used for experiment-scale graphs (hundreds of thousands of vertices)
    where the per-edge Python loop of :func:`synthetic_scale_free` would
    be too slow.  Degrees are Zipf-distributed with the given exponent
    (clipped), stubs are shuffled and paired; self-loops are dropped.
    """
    import numpy as np

    if vertex_count < 2:
        raise WorkloadError(f"need at least two vertices: {vertex_count}")
    if avg_degree < 1:
        raise WorkloadError(f"need at least one edge per vertex: {avg_degree}")
    if exponent <= 1.0:
        raise WorkloadError(f"exponent must exceed 1: {exponent}")
    rng = np.random.default_rng(seed)
    degrees = rng.zipf(exponent, size=vertex_count).astype(np.int64)
    degrees = np.clip(degrees, 1, max(2, vertex_count // 10))
    # Scale to the requested average degree.
    degrees = np.maximum(
        1, (degrees * (avg_degree * vertex_count / degrees.sum())).astype(np.int64)
    )
    if degrees.sum() % 2 == 1:
        degrees[0] += 1
    stubs = np.repeat(np.arange(vertex_count, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    half = len(stubs) // 2
    endpoint_a, endpoint_b = stubs[:half], stubs[half : 2 * half]
    keep = endpoint_a != endpoint_b
    endpoint_a, endpoint_b = endpoint_a[keep], endpoint_b[keep]
    src = np.concatenate([endpoint_a, endpoint_b])
    dst = np.concatenate([endpoint_b, endpoint_a])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=vertex_count)
    row_ptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CsrGraph(
        vertex_count=vertex_count,
        row_ptr=row_ptr,
        col=dst.astype(np.int32),
    )
