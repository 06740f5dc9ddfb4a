"""Random regular expanders: the static switches' fixed matchings.

Each static switch holds one fixed-point-free random permutation; their
union is a random regular expander.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExpanderGraph:
    """Union of ``degree`` fixed-point-free random matchings on n nodes.

    Each matching is a tuple ``perm`` sending input port i to output port
    ``perm[i]``. Multi-edges across matchings are kept (``multiplicity``)
    and count as parallel capacity; path computations treat them as one
    edge.
    """

    n: int
    degree: int
    seed: int
    matchings: tuple

    def __post_init__(self):
        matchings = tuple(tuple(int(p) for p in perm) for perm in self.matchings)
        for perm in matchings:
            if sorted(perm) != list(range(self.n)):
                raise ValueError(f"matching must be a permutation of 0..{self.n - 1}")
            if any(p == i for i, p in enumerate(perm)):
                raise ValueError("matching must be fixed-point free")
        object.__setattr__(self, "matchings", matchings)

    @property
    def multiplicity(self) -> np.ndarray:
        mult = np.zeros((self.n, self.n), dtype=np.int64)
        for m in self.matchings:
            mult[np.arange(self.n), m] += 1
        return mult

    def adjacency(self) -> np.ndarray:
        return self.multiplicity > 0

    def distances(self) -> np.ndarray:
        """All-pairs unweighted shortest-path hop counts (directed), inf
        where there is no path.

        One breadth-first search from every source at once: ``frontier[v, s]``
        marks node v as first reached from source s in the last step. Each
        matching sends v to ``perm[v]``, so row v ORs into row ``perm[v]``;
        parallel edges merge under OR.
        """
        dist = np.full((self.n, self.n), np.inf)  # [node, source]
        np.fill_diagonal(dist, 0.0)
        frontier = np.eye(self.n, dtype=bool)
        seen = frontier.copy()
        perms = [np.asarray(perm) for perm in self.matchings]
        hops = 0
        while frontier.any():
            hops += 1
            nxt = np.zeros_like(frontier)
            for perm in perms:
                nxt[perm] |= frontier
            frontier = nxt & ~seen
            seen |= frontier
            dist[frontier] = hops
        return dist.T.copy()


def _random_derangement(n, rng):
    # resample until fixed-point free; expected O(e) tries
    while True:
        perm = rng.permutation(n)
        if not (perm == np.arange(n)).any():
            return tuple(perm.tolist())


def build_expander(n, k_s, seed) -> ExpanderGraph:
    """Union of k_s independently sampled random derangements, reproducible per seed."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k_s < 1:
        raise ValueError(f"k_s must be >= 1, got {k_s}")
    rng = np.random.default_rng(seed)
    matchings = tuple(_random_derangement(n, rng) for _ in range(k_s))
    return ExpanderGraph(n=n, degree=k_s, seed=seed, matchings=matchings)


def expected_path_length(graph: ExpanderGraph) -> float:
    """Mean shortest-path hop count over all ordered pairs (u, v), u != v.

    Raises on a disconnected graph, naming an unreachable pair.
    """
    d = graph.distances()
    np.fill_diagonal(d, 0.0)
    bad = np.argwhere(~np.isfinite(d))
    if len(bad):
        u, v = bad[0]
        raise ValueError(f"graph is disconnected: no path from {u} to {v}")
    n = graph.n
    return float(d.sum() / (n * (n - 1)))


def mean_expected_path_length(n, k_s, seeds) -> float:
    """epl averaged over freshly built expanders, one per seed."""
    vals = [expected_path_length(build_expander(n, k_s, s)) for s in seeds]
    if not vals:
        raise ValueError("no seeds to average the path length over")
    return float(np.mean(vals))
