"""The expander plane's heap-driven max-min filler against the dict/set
progressive filler and choice-based path sampler it replaced.

The oracles below are the previous ``_ExpanderPlane`` code, kept verbatim
apart from being lifted out of the class (and, for the filler, recording
the bottleneck edges in the order it froze them, and for the path code,
reading a node's neighbours from the plane's boolean adjacency). The
arithmetic of the two fillers is the same, so rates must agree exactly,
not approximately. The plane's next-hop tables, built by array passes
over all nodes at once, must equal the per-node build bit for bit. The
plane keys a link u -> v by ``u * n + v``; the oracle filler takes
whatever keys the flows' paths and the capacities use.

The plane re-fills only the flows linked to an added or finished flow
through shared links, which the filler finds by walking the plane's own
edge->flow incidence from that flow's links; after every such
re-filling, each active flow's rate must equal the rate the oracle's
filling of every active flow gives. An added flow gets its rate when the
fill event its add scheduled is served, which the tests below do before
reading rates, as the event loop would.
"""
import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocsnet import config_io, simulator, traffic
from ocsnet.model import NetworkConfig, validate
from ocsnet.topology import ExpanderGraph, build_expander

from conftest import PlaneSim, flow_table


def oracle_fill(flows, capacity):
    """Progressive filling by a full rescan of the loaded edges per level."""
    order = []
    cap = {}
    on_edge = {}
    for fid, state in flows.items():
        for e in state[2]:
            cap.setdefault(e, capacity[e])
            on_edge.setdefault(e, set()).add(fid)
    unfixed = set(flows)
    while unfixed:
        share, edge = min(
            (c / len(on_edge[e]), e) for e, c in cap.items() if on_edge.get(e)
        )
        order.append(edge)
        for fid in list(on_edge[edge]):
            flows[fid][1] = share
            unfixed.discard(fid)
            for e in flows[fid][2]:
                on_edge[e].discard(fid)
                if e != edge:
                    cap[e] -= share
        del cap[edge]
    return order


def oracle_counts(self, dst):
    """Number of shortest paths from every node to ``dst``."""
    d = self.dist[:, dst]
    counts = np.zeros(self.graph.n)
    counts[dst] = 1.0
    for v in np.argsort(d):
        v = int(v)
        if v == dst or not np.isfinite(d[v]):
            continue
        nxt = np.flatnonzero(self.adj[v])
        counts[v] = counts[nxt[self.dist[nxt, dst] == d[v] - 1]].sum()
    return counts


def oracle_hops_to(self, dst):
    """Next-hop tables toward ``dst``, built one node at a time in
    distance order."""
    n = self.graph.n
    d = self.dist[:, dst]
    counts = np.zeros(n)
    counts[dst] = 1.0
    hops = {}
    for v in np.argsort(d):
        v = int(v)
        if v == dst or not np.isfinite(d[v]):
            continue
        nxt = np.flatnonzero(self.adj[v])
        nxt = nxt[self.dist[nxt, dst] == d[v] - 1]
        w = counts[nxt]
        counts[v] = w.sum()
        cdf = (w / counts[v]).cumsum()
        cdf /= cdf[-1]
        hops[v] = (nxt, cdf)
    start, cand, cdf = [0], [], []
    for v in range(n):
        if v in hops:
            cand.extend(hops[v][0].tolist())
            cdf.extend(hops[v][1].tolist())
        start.append(len(cand))
    return counts, start, cand, np.array(cdf)


def oracle_sample_path(self, src, dst):
    """Shortest path drawn hop by hop with ``Generator.choice``."""
    counts = oracle_counts(self, dst)
    if counts[src] == 0:
        raise ValueError(f"no path from {src} to {dst} on the expander")
    path = [src]
    v = src
    while v != dst:
        nxt = np.flatnonzero(self.adj[v])
        nxt = nxt[self.dist[nxt, dst] == self.dist[v, dst] - 1]
        w = counts[nxt]
        v = int(self.rng.choice(nxt, p=w / w.sum()))
        path.append(v)
    return path


def _plane(n, k_s, graph_seed, rng_seed):
    return _plane_on(build_expander(n, k_s, graph_seed), rng_seed)


def _config(graph):
    return validate(NetworkConfig(n=graph.n, k_s=graph.degree, k_r=0, k_c=0,
                                  r=10e9, delta=100e-6, R_r=10e-6, R_c=15e-3))


def _plane_on(graph, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return simulator._ExpanderPlane(graph, _config(graph), rng, None)


def _flows(paths):
    return {fid: [1.0, 0.0, list(zip(p[:-1], p[1:]))] for fid, p in enumerate(paths)}


def _incidence(flows):
    on_edge = {}
    for fid, state in flows.items():
        for e in state[2]:
            on_edge.setdefault(e, set()).add(fid)
    return on_edge


def _assert_same_filling(flows, capacity):
    """The filler, walking from every loaded link, against the oracle."""
    expect, got = copy.deepcopy(flows), copy.deepcopy(flows)
    oracle_order = oracle_fill(expect, capacity)
    on_edge = _incidence(got)
    order = simulator._max_min_fill(got, on_edge, capacity, list(on_edge))
    assert order == oracle_order
    assert {fid: st[1] for fid, st in got.items()} == {
        fid: st[1] for fid, st in expect.items()}
    return order


# capacities that tie often and round in the last bit when shared
_CAPS = st.sampled_from([1.0, 2.0, 3.0, 0.1, 0.3, 0.7, 1e10, 2e10])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_heap_filling_matches_oracle_on_random_expanders(data):
    n = data.draw(st.integers(3, 16), label="n")
    k_s = data.draw(st.integers(1, min(4, n - 1)), label="k_s")
    plane = _plane(n, k_s, data.draw(st.integers(0, 999), label="graph_seed"),
                   data.draw(st.integers(0, 999), label="rng_seed"))
    pairs = [(s, d) for s in range(n) for d in range(n)
             if s != d and np.isfinite(plane.dist[s, d])]
    picked = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=40),
                       label="pairs")
    paths = [plane._sample_path(s, d) for s, d in picked]
    # flows that share their whole path with an earlier flow
    dup = data.draw(st.lists(st.integers(0, len(paths) - 1), max_size=10), label="dup")
    paths += [paths[i] for i in dup]
    capacity = {divmod(e, n): c for e, c in plane.capacity.items()}
    if data.draw(st.booleans(), label="redraw_caps"):
        capacity = {e: data.draw(_CAPS) for e in sorted(capacity)}
    _assert_same_filling(_flows(paths), capacity)


@pytest.mark.parametrize("paths, capacity, order", [
    # three links at share 5.0: the smallest edge wins each tie
    ([[2, 3], [0, 1], [0, 1], [1, 0]],
     {(0, 1): 10.0, (1, 0): 5.0, (2, 3): 5.0},
     [(0, 1), (1, 0), (2, 3)]),
    # a tie whose winner takes its share from the other tied link, which
    # then keeps the same share with one flow fewer
    ([[0, 1, 2], [1, 2], [0, 1]],
     {(0, 1): 2.0, (1, 2): 2.0},
     [(0, 1), (1, 2)]),
    # a tie broken on the second endpoint, then a share left by rounding
    ([[3, 1], [3, 0, 2], [3, 0], [0, 2]],
     {(3, 1): 0.1, (3, 0): 0.2, (0, 2): 0.3},
     [(3, 0), (3, 1), (0, 2)]),
])
def test_heap_filling_matches_oracle_on_hand_built_ties(paths, capacity, order):
    assert _assert_same_filling(_flows(paths), capacity) == order


def _assert_same_tables(graph):
    plane = _plane_on(graph)
    for dst in range(graph.n):
        got, want = plane._hops_to(dst), oracle_hops_to(plane, dst)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype
            assert np.array_equal(a, b), f"dst {dst}"


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33, 64])
def test_array_hop_tables_match_the_per_node_build(n, k):
    for seed in range(3):
        _assert_same_tables(build_expander(n, k, seed))


def test_dense_hop_tables_match_the_per_node_build():
    _assert_same_tables(build_expander(256, 32, 0))


@pytest.mark.parametrize("matchings", [
    ((1, 0, 3, 2),),                # two disjoint 2-cycles
    ((1, 0), (1, 0)),               # multi-edge
    ((1, 2, 3, 0, 5, 6, 7, 4), (1, 2, 3, 0, 5, 6, 7, 4),
     (4, 5, 6, 7, 0, 1, 2, 3)),     # a doubled matching
])
def test_small_hop_tables_match_the_per_node_build(matchings):
    _assert_same_tables(ExpanderGraph(n=len(matchings[0]), degree=len(matchings),
                                      seed=0, matchings=matchings))


def test_cached_cdf_sampling_matches_choice_draw_for_draw():
    for graph_seed in range(5):
        new, old = _plane(16, 3, graph_seed, 7), _plane(16, 3, graph_seed, 7)
        pairs = [(s, d) for s in range(16) for d in range(16)
                 if s != d and np.isfinite(new.dist[s, d])]
        for s, d in pairs * 2:
            assert new._sample_path(s, d) == oracle_sample_path(old, s, d)
        assert new.rng.random() == old.rng.random()


def test_streamed_default_mix_is_unchanged_under_the_oracle(monkeypatch):
    mapping = config_io.load_config(overrides={
        "network.n": 16, "network.k_s": 2, "network.k_r": 4, "network.k_c": 4,
        "traffic.distribution.kind": "default-mix", "traffic.load_x": 0.3,
        "traffic.window_s": 8e-3,
    })
    cfg = config_io.network_config(mapping)
    flows = traffic.generate(config_io.traffic_spec(mapping, seed=1), cfg)
    graph = build_expander(cfg.n, cfg.k_s, 0)
    shipped = simulator.run(cfg, flows, seed=1, expander=graph)

    calls = []

    def counted_oracle(flows, on_edge, capacity, edges):
        calls.append(len(flows))
        return oracle_fill(flows, capacity)  # fills every active flow

    monkeypatch.setattr(simulator, "_max_min_fill", counted_oracle)
    monkeypatch.setattr(simulator._ExpanderPlane, "_sample_path", oracle_sample_path)
    oracle = simulator.run(cfg, flows, seed=1, expander=graph)

    assert len(calls) > 100 and max(calls) > 1
    assert {rec.plane for rec in shipped.records} == {"rotor", "cache", "expander"}
    assert shipped.completed and oracle.completed
    assert shipped.records == oracle.records
    assert shipped.dct_s == oracle.dct_s


def _drive(plane, flows):
    """Give ``plane`` a stand-in simulator holding the flows ``(src, dst,
    size_bits)``, all at arrival 0.0: the expander reads no arrival."""
    plane.sim = PlaneSim(flow_table(_config(plane.graph), [(*f, 0.0) for f in flows]))


def _fill(plane):
    """Serve the fill event the plane's adds scheduled, as the event loop does."""
    t, kind, payload = plane.sim.events.pop()
    assert (kind, payload) == ("expander", -plane.version)
    plane.on_event(payload, t)


def _finish(plane, fids, now):
    """Complete ``fids`` through the plane's own completion event."""
    for fid in fids:
        plane.flows[fid][0] = 0.0
    plane.on_event(plane.version, now)


def _assert_fresh(plane):
    expect = copy.deepcopy(plane.flows)
    oracle_fill(expect, plane.capacity)
    assert {fid: st[1] for fid, st in plane.flows.items()} == {
        fid: st[1] for fid, st in expect.items()}
    assert plane.on_edge == _incidence(plane.flows)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_local_refilling_matches_a_fresh_filling_of_every_flow(data):
    n = data.draw(st.integers(3, 16), label="n")
    k_s = data.draw(st.integers(1, min(4, n - 1)), label="k_s")
    plane = _plane(n, k_s, data.draw(st.integers(0, 999), label="graph_seed"),
                   data.draw(st.integers(0, 999), label="rng_seed"))
    if data.draw(st.booleans(), label="redraw_caps"):
        plane.capacity = {e: data.draw(_CAPS) for e in sorted(plane.capacity)}
    pairs = [(s, d) for s in range(n) for d in range(n)
             if s != d and np.isfinite(plane.dist[s, d])]
    op = st.tuples(st.sampled_from(["add", "add", "finish", "next"]),
                   st.sampled_from(pairs), st.floats(1e3, 1e6), st.floats(0.0, 1e-4),
                   st.sets(st.integers(0, 99), min_size=1, max_size=3))
    ops = data.draw(st.lists(op, min_size=20, max_size=80), label="ops")
    _drive(plane, [(*pair, size) for kind, pair, size, _, _ in ops if kind == "add"])
    now, fid = 0.0, 0
    for kind, _, _, dt, picks in ops:
        if kind == "add":
            now += dt
            plane.add(fid, now)
            _fill(plane)
            fid += 1
        elif not plane.flows:
            continue
        elif kind == "finish":
            active = sorted(plane.flows)
            _finish(plane, {active[i % len(active)] for i in picks}, now)
        else:  # the plane's next completion
            now = max(now, plane.sim.events[-1][0])
            plane.on_event(plane.sim.events[-1][2], now)
        _assert_fresh(plane)
        if plane.flows:
            assert plane.sim.events[-1][2] == plane.version


# f0 and f1 on link (0, 1); f2 on 2-3-4 and f3 on 3-4-5 share (3, 4);
# f4 on (6, 7) is a component of its own throughout. The bridge f5 on
# 0-1-2-3 shares (0, 1) with f0 and f1 and (2, 3) with f2, so it reaches
# f3 only through f2.
_COMPONENTS = [[0, 1], [0, 1], [2, 3, 4], [3, 4, 5], [6, 7]]
_BRIDGE = [0, 1, 2, 3]
_BRIDGED_CAPS = {8 * u + v: c for (u, v), c in {
    (0, 1): 3.0, (1, 2): 10.0, (2, 3): 3.0, (3, 4): 5.0, (4, 5): 10.0,
    (6, 7): 7.0}.items()}


def _add_on_path(plane, fid, path):
    plane._sample_path = lambda src, dst: path
    plane.add(fid, 0.0)


def _bridged_plane(monkeypatch):
    """The plane with f0-f4 added, and the ids of the flows each filling
    set a rate on."""
    plane = _plane(8, 2, 0, 0)
    _drive(plane, [(p[0], p[-1], 1e6) for p in _COMPONENTS + [_BRIDGE]])
    plane.capacity = dict(_BRIDGED_CAPS)
    filled, fill = [], simulator._max_min_fill

    def spied_fill(flows, on_edge, capacity, edges):
        rates = {fid: st[1] for fid, st in flows.items()}
        for st in flows.values():
            st[1] = None
        order = fill(flows, on_edge, capacity, edges)
        filled.append({fid for fid, st in flows.items() if st[1] is not None})
        for fid, st in flows.items():
            if st[1] is None:
                st[1] = rates[fid]
        return order

    monkeypatch.setattr(simulator, "_max_min_fill", spied_fill)
    for fid, path in enumerate(_COMPONENTS):
        _add_on_path(plane, fid, path)
    _fill(plane)
    return plane, filled


def _rates(plane):
    return {fid: st[1] for fid, st in plane.flows.items()}


def test_bridging_flow_merges_two_components(monkeypatch):
    plane, filled = _bridged_plane(monkeypatch)
    assert _rates(plane) == {0: 1.5, 1: 1.5, 2: 2.5, 3: 2.5, 4: 7.0}
    _add_on_path(plane, 5, _BRIDGE)
    _fill(plane)
    # the bridge takes 1.0 of (0, 1) and (2, 3), which leaves f2 2.0
    # and f3 the rest of (3, 4)
    assert _rates(plane) == {0: 1.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 7.0, 5: 1.0}
    assert filled[-1] == {0, 1, 2, 3, 5}
    _assert_fresh(plane)


def test_removing_the_bridge_splits_them_again(monkeypatch):
    plane, filled = _bridged_plane(monkeypatch)
    _add_on_path(plane, 5, _BRIDGE)
    _fill(plane)
    _finish(plane, [5], 0.0)
    assert _rates(plane) == {0: 1.5, 1: 1.5, 2: 2.5, 3: 2.5, 4: 7.0}
    assert filled[-1] == {0, 1, 2, 3}
    assert plane.sim.records == {5: (0.0, "expander", 3)}
    _assert_fresh(plane)
