"""The simulator's event loop against the eager loop it replaced.

``EagerSimulator`` is the previous ``Simulator`` event loop, kept verbatim
apart from being a subclass: every arrival pushed onto the heap before the
first event. Its rotor-slot branch no longer overwrites ``delivered_bits``
with ``injected_bits`` less the residual, its rotor-slot and cache-done
branches call the planes' common ``on_event``, and it builds
``plane_bits`` and ``delivered_bits`` from the planes' own counts, because
each plane now counts its deliveries itself. It loads the flow columns with
``_take`` and hands ``_on_arrival`` one flow index per event, where the
current loop hands it every flow of an arrival instant from one event, and
the planes write its records into the simulator's record columns, as in
the current loop; it reads them back with each flow's own arrival time.
``oracle_run_batch`` is the previous ``run_batch``: it serves a copy of the
flows with every arrival reset to zero. The planes are shared, so records,
completion time and bit counts must agree exactly.
"""
import heapq
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocsnet import simulator
from ocsnet.model import FlowTable, NetworkConfig, validate
from ocsnet.simulator import SimResult
from ocsnet.topology import build_expander

from conftest import flow_table


class EagerSimulator(simulator.Simulator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seq = 0

    def schedule(self, t, kind, payload):
        heapq.heappush(self._heap, (t, self._seq, kind, payload))
        self._seq += 1

    def run(self, flows) -> SimResult:
        self._take(flows)
        for i, t in enumerate(flows.arrival_s.tolist()):
            self.schedule(t, "arrival", i)
        completed = True
        while self._heap:
            t, _, kind, payload = heapq.heappop(self._heap)
            if self.horizon_s is not None and t > self.horizon_s:
                completed = False
                break
            self._clock = t
            if kind == "arrival":
                self._on_arrival(payload, t)
            elif kind == "rotor_slot":
                self.rotor.on_event(payload, t)
            elif kind == "cache_done":
                self.cache.on_event(payload, t)
            elif kind == "expander":
                self.expander.on_event(payload, t)
            if self.audit:
                self._check_conservation()
        done = np.flatnonzero(self._plane >= 0)
        records = simulator.Records(
            done, flows.arrival_s[done],
            self._completion_s[done], self._plane[done], self._hops[done])
        dct = max(records.completion_s.tolist(), default=0.0)
        plane_bits = {name: plane.delivered_bits if plane else 0.0 for name, plane
                      in zip(simulator.PLANES, (self.rotor, self.cache, self.expander))}
        return SimResult(
            dct_s=dct,
            records=records,
            spill_count=self.spill_count,
            completed=completed and len(records) == len(flows),
            injected_bits=self.injected_bits,
            delivered_bits=sum(plane_bits.values()),
            plane_bits=plane_bits,
        )


def oracle_run(config, flows, **kwargs):
    return EagerSimulator(config, **kwargs).run(flows)


def oracle_run_batch(config, flows, **kwargs):
    batch = FlowTable(flows.src, flows.dst, flows.size_bits, np.zeros(len(flows)),
                      flows.flow_class)
    return EagerSimulator(config, **kwargs).run(batch)


@contextmanager
def count_events():
    """Count the events ``Simulator.schedule`` queues, by kind."""
    counts = Counter()
    original = simulator.Simulator.schedule

    def schedule(self, t, kind, payload):
        counts[kind] += 1
        return original(self, t, kind, payload)

    simulator.Simulator.schedule = schedule
    try:
        yield counts
    finally:
        simulator.Simulator.schedule = original


def assert_same_result(got, want):
    assert got.records == want.records
    assert got.dct_s == want.dct_s
    assert got.spill_count == want.spill_count
    assert got.completed == want.completed
    assert got.injected_bits == want.injected_bits
    assert got.delivered_bits == want.delivered_bits
    assert got.plane_bits == want.plane_bits


# a shared grid of times, so arrivals tie often and land mid-slot
_TIMES = st.sampled_from([0.0, 0.0, 4e-5, 1e-4, 2.5e-4, 1e-3])
# multiples of the medium threshold (a slot-full) and the large threshold
_SIZES = st.sampled_from([0.01, 0.3, 1.0, 2.5, "large", "2large"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_arrivals_match_the_eager_loop(data):
    n = data.draw(st.integers(4, 16), label="n")
    k_s = data.draw(st.sampled_from([0, 3]), label="k_s")
    k_r = data.draw(st.sampled_from([0, 2, 4] if k_s else [2, 4]), label="k_r")
    k_c = data.draw(st.integers(0, 2), label="k_c")
    cfg = validate(NetworkConfig(n=n, k_s=k_s, k_r=k_r, k_c=k_c, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=1e-3))
    graph = build_expander(n, k_s, data.draw(st.integers(0, 99), label="graph")) \
        if k_s else None
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d
             and (graph is None or np.isfinite(graph.distances()[s, d]))]
    drawn = data.draw(st.lists(st.tuples(st.sampled_from(pairs), _SIZES, _TIMES),
                               min_size=1, max_size=30), label="flows")
    m, big = cfg.medium_threshold_bits, cfg.large_threshold_bits
    scale = {"large": big / m, "2large": 2 * big / m}
    flows = flow_table(cfg, [(s, d, m * scale.get(size, size), t)
                             for (s, d), size, t in drawn])
    kwargs = dict(seed=data.draw(st.integers(0, 9), label="seed"), expander=graph,
                  cache_policy=data.draw(st.sampled_from(["queue", "spill"]),
                                         label="cache_policy"),
                  horizon_s=data.draw(st.sampled_from([None, None, 3e-4, 2e-3]),
                                      label="horizon_s"))

    for run, oracle, instants in (
            (simulator.run, oracle_run, len(set(flows.arrival_s.tolist()))),
            (simulator.run_batch, oracle_run_batch, 1)):
        with count_events() as counts:
            got = run(cfg, flows, **kwargs)
        assert_same_result(got, oracle(cfg, flows, **kwargs))
        if got.completed:
            assert counts["arrival"] == instants


def test_unsorted_tied_arrivals_pop_in_index_order():
    cfg = validate(NetworkConfig(n=8, k_s=0, k_r=2, k_c=1, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=1e-3))
    times = [2e-4, 0.0, 2e-4, 5e-5, 0.0, 5e-5, 2e-4, 0.0]
    flows = flow_table(cfg, [(i, (i + 3) % 8, 2.5e6 * (1 + i % 3), t)
                             for i, t in enumerate(times)])
    got = simulator.run(cfg, flows)
    assert got.completed
    assert [rec.flow_id for rec in got.records] == list(range(len(flows)))
    assert [rec.arrival_s for rec in got.records] == times
    assert_same_result(got, EagerSimulator(cfg).run(flows))


def test_tied_arrivals_are_one_event():
    cfg = validate(NetworkConfig(n=8, k_s=3, k_r=2, k_c=1, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=1e-3))
    graph = build_expander(8, 3, 0)
    times = [2e-4, 0.0, 2e-4, 5e-5, 0.0, 5e-5, 2e-4, 0.0]
    sizes = [1e5, 2.5e6, 2e8]    # one of each class
    flows = flow_table(cfg, [(i, (i + 3) % 8, sizes[i % 3], t)
                             for i, t in enumerate(times)])
    for run, oracle, instants in ((simulator.run, oracle_run, 3),
                                  (simulator.run_batch, oracle_run_batch, 1)):
        with count_events() as counts:
            got = run(cfg, flows, expander=graph)
        assert got.completed and counts["arrival"] == instants
        assert_same_result(got, oracle(cfg, flows, expander=graph))


def test_an_empty_table_completes_with_no_arrival_event():
    cfg = validate(NetworkConfig(n=8, k_s=3, k_r=2, k_c=1, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=1e-3))
    for run in (simulator.run, simulator.run_batch):
        with count_events() as counts:
            got = run(cfg, flow_table(cfg, []))
        assert not counts
        assert got.completed and got.dct_s == 0.0 and len(got.records) == 0
        assert got.injected_bits == got.delivered_bits == 0.0


@pytest.mark.parametrize("plane, books", [("_RotorPlane", "pending_bits"),
                                          ("_CachePlane", "residual"),
                                          ("_ExpanderPlane", "residual")])
def test_audit_checks_each_flow_of_an_arrival_instant(monkeypatch, plane, books):
    # one flow in the middle of a 1,000-flow batch loses half its bits as
    # it is added; the audit after the instant's one event must see it
    cfg = validate(NetworkConfig(n=16, k_s=3, k_r=2, k_c=2, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=1e-3))
    sizes = [4e5, 2.5e6, 1e7]    # small, medium, large
    flows = flow_table(cfg, [(i % 16, (i + 1 + i // 16 % 15) % 16, sizes[i % 3], 0.0)
                             for i in range(1000)])
    cls = getattr(simulator, plane)
    add, lossy = cls.add, None

    def leaky_add(self, fid, now):
        nonlocal lossy
        took = add(self, fid, now)
        if lossy is None and 400 <= fid:
            lossy = fid
            setattr(self, books, getattr(self, books) - self.sim._size[fid] / 2)
        return took

    monkeypatch.setattr(cls, "add", leaky_add)
    with pytest.raises(AssertionError, match=r"conservation .* at t=0\.0:"):
        simulator.run_batch(cfg, flows, seed=1)
    assert lossy is not None


def test_arrival_tied_with_a_circuit_release_pops_first():
    # B arrives at the very instant A's circuit is released, and is pushed
    # after the release was scheduled: the arrival must still pop first,
    # find the ports busy, and spill to the rotors
    cfg = validate(NetworkConfig(n=8, k_s=0, k_r=2, k_c=1, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=1e-3))
    size = 2 * cfg.large_threshold_bits
    release = 0.0 + cfg.R_c + size / cfg.r
    flows = flow_table(cfg, [(0, 1, size, 0.0), (2, 3, 2.5e6, release / 2),
                             (0, 1, size, release)])
    got = simulator.run(cfg, flows, cache_policy="spill")
    assert got.spill_count == 1
    assert [rec.plane for rec in got.records] == ["cache", "rotor", "rotor"]
    assert_same_result(got, EagerSimulator(cfg, cache_policy="spill").run(flows))
