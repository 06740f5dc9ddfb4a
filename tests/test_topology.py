import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

import ocsnet
from ocsnet.topology import (
    ExpanderGraph, build_expander, expected_path_length,
    mean_expected_path_length,
)


class TestMatching:
    """ExpanderGraph checks each matching it is given."""

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            ExpanderGraph(n=3, degree=1, seed=0, matchings=((0, 0, 1),))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            ExpanderGraph(n=4, degree=1, seed=0, matchings=((1, 2, 0),))

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError, match="fixed-point"):
            ExpanderGraph(n=3, degree=1, seed=0, matchings=((0, 2, 1),))

    def test_indexing(self):
        g = ExpanderGraph(n=3, degree=1, seed=0, matchings=(np.array([1, 2, 0]),))
        m = g.matchings[0]
        assert m == (1, 2, 0) and len(m) == 3 and type(m[2]) is int


class TestBuildExpander:
    def test_out_degree_is_k(self):
        g = build_expander(4, 3, seed=0)
        mult = g.multiplicity
        assert (mult.sum(axis=1) == 3).all() and (mult.sum(axis=0) == 3).all()

    def test_deterministic_per_seed(self):
        a = build_expander(32, 4, seed=9)
        b = build_expander(32, 4, seed=9)
        assert (a.multiplicity == b.multiplicity).all()

    def test_seeds_differ(self):
        a = build_expander(32, 4, seed=1)
        b = build_expander(32, 4, seed=2)
        assert (a.multiplicity != b.multiplicity).any()

    def test_n2_is_the_swap(self):
        g = build_expander(2, 1, seed=5)
        assert g.matchings[0] == (1, 0)

    def test_large_union_is_connected(self):
        # expected_path_length raises on a disconnected graph
        assert expected_path_length(build_expander(256, 32, seed=1)) > 1.0


class TestExpectedPathLength:
    def test_complete_digraph_is_one(self):
        shifts = tuple(tuple((i + t) % 8 for i in range(8)) for t in range(1, 8))
        g = ExpanderGraph(n=8, degree=7, seed=0, matchings=shifts)
        assert expected_path_length(g) == 1.0

    def test_directed_cycle(self):
        g = ExpanderGraph(n=4, degree=1, seed=0,
                          matchings=((1, 2, 3, 0),))
        assert expected_path_length(g) == pytest.approx(2.0)

    def test_disconnected_names_a_pair(self):
        # two disjoint 2-cycles
        g = ExpanderGraph(n=4, degree=1, seed=0,
                          matchings=((1, 0, 3, 2),))
        with pytest.raises(ValueError, match="no path from"):
            expected_path_length(g)

    def test_denser_graphs_are_no_longer(self):
        sparse = mean_expected_path_length(64, 3, range(5))
        dense = mean_expected_path_length(64, 8, range(5))
        assert dense <= sparse

    def test_empty_seed_range_rejected(self):
        with pytest.raises(ValueError, match="no seeds"):
            mean_expected_path_length(16, 4, range(0))

    def test_multi_edges_counted_once_for_distance(self):
        m = (1, 0)
        g = ExpanderGraph(n=2, degree=2, seed=0, matchings=(m, m))
        assert g.multiplicity[0, 1] == 2
        assert expected_path_length(g) == 1.0


def _reference_distances(graph):
    """One breadth-first walk per source over the matchings, in plain Python."""
    dist = np.full((graph.n, graph.n), np.inf)
    for src in range(graph.n):
        dist[src, src] = 0.0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for perm in graph.matchings:
                w = perm[v]
                if dist[src, w] == np.inf:
                    dist[src, w] = dist[src, v] + 1
                    queue.append(w)
    return dist


class TestDistances:
    """``distances`` against a per-source walk over the same matchings."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33, 64])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_random_graphs_match_the_reference(self, n, k):
        for seed in range(3):
            g = build_expander(n, k, seed)
            assert np.array_equal(g.distances(), _reference_distances(g))

    def test_dense_graph_matches_the_reference(self):
        g = build_expander(256, 32, seed=1)
        assert np.array_equal(g.distances(), _reference_distances(g))

    @pytest.mark.parametrize("matchings", [
        ((1, 2, 3, 0),),                # directed cycle
        ((1, 0, 3, 2),),                # two disjoint 2-cycles
        ((1, 0), (1, 0)),               # multi-edge
    ])
    def test_small_graphs_match_the_reference(self, matchings):
        g = ExpanderGraph(n=len(matchings[0]), degree=len(matchings), seed=0,
                          matchings=matchings)
        assert np.array_equal(g.distances(), _reference_distances(g))

    def test_layout(self):
        d = build_expander(8, 2, seed=0).distances()
        assert d.dtype == np.float64 and d.flags.c_contiguous


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, ocsnet, ocsnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(ocsnet.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
