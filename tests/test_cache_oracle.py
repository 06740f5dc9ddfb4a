"""The cache plane's queue discipline against the code it replaced.

``OracleCachePlane`` keeps the previous ``_CachePlane`` queue code
verbatim: ``_refill`` picks the oldest waiting flow (ties to the smallest
pair) among every waiting pair whose ports are free on the switch, by
scanning all waiting pairs or all free port pairs, whichever set is
smaller, and it keeps a count of waiting flows in its own ``pending``
dict of deques. ``add`` and ``_start`` come with it, because they keep
that count and the residual the way the old ``_refill`` expects, and
``_start`` schedules one ``cache_done`` event per circuit; the old
``add`` is kept as ``add_flow``, which the plane's ``add(fid, now)``
hands the flow's columns; its release adds the bits to the plane's own
``delivered_bits``, as every plane now does. The plane's current
``_refill`` looks only at the freed source's row and the freed
destination's column, its waiting flows are FIFOs threaded through a
flow-id array, and it releases the circuits that end at one instant in
one event, so records, bit counts and the order in which circuits start
must agree exactly.
"""
from collections import deque
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from ocsnet import simulator
from ocsnet.model import NetworkConfig, validate

from conftest import PlaneSim, at_time_zero, flow_table


class OracleCachePlane(simulator._CachePlane):
    def __init__(self, *args):
        super().__init__(*args)
        self.pending = {}            # (src, dst) -> deque of (arrival, fid, size)
        self.pending_count = 0

    def add(self, fid, now):
        return self.add_flow(fid, *PlaneSim.flow(self.sim, fid), now)

    def add_flow(self, fid, src, dst, size, now):
        for s in range(self.k_c):
            if src in self.free_src[s] and dst in self.free_dst[s]:
                self._start(s, fid, src, dst, size, now)
                return True
        if self.spill:
            return False
        self.pending.setdefault((src, dst), deque()).append((now, fid, size))
        self.pending_count += 1
        self.residual += size
        return True

    def _start(self, s, fid, src, dst, size, now):
        self.free_src[s].discard(src)
        self.free_dst[s].discard(dst)
        self.residual += size
        done = now + self.R_c + size / self.r
        self.sim.schedule(done, "cache_done", (s, fid, src, dst, size))

    def on_event(self, payload, now):
        s, fid, src, dst, size = payload
        self.residual -= size
        self.delivered_bits += size
        self.sim.record(fid, now, simulator.PLANES.index("cache"), 1)
        self.free_src[s].add(src)
        self.free_dst[s].add(dst)
        self._refill(s, now)

    def _refill(self, s, now):
        while self.pending_count:
            fs, fd = self.free_src[s], self.free_dst[s]
            if len(self.pending) <= len(fs) * len(fd):
                candidates = [k for k in self.pending if k[0] in fs and k[1] in fd]
            else:
                candidates = [(i, j) for i in fs for j in fd if (i, j) in self.pending]
            if not candidates:
                return
            key = min(candidates, key=lambda k: (self.pending[k][0][0], k))
            arrival, fid, size = self.pending[key].popleft()
            if not self.pending[key]:
                del self.pending[key]
            self.pending_count -= 1
            self.residual -= size  # _start re-adds it
            self._start(s, fid, key[0], key[1], size, now)


@contextmanager
def oracle_cache_plane():
    original = simulator._CachePlane
    simulator._CachePlane = OracleCachePlane
    try:
        yield
    finally:
        simulator._CachePlane = original


class CheckedSimulator(simulator.Simulator):
    """Logs each circuit start as ``(time, flow id)`` from the plane's
    ``_start`` and checks after every event that no waiting pair has both
    its ports free on any switch. For the current plane it also checks that
    the free-switch counts match the port sets, that ``wait_dst`` and
    ``wait_src`` list exactly the pairs with a head, and that each pair's
    FIFO chain ends at its tail (the oracle plane keeps none of these)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.starts = []
        start = self.cache._start

        def logged_start(s, fid, *args):
            self.starts.append((self._clock, fid))
            start(s, fid, *args)

        self.cache._start = logged_start

    def _check_conservation(self):
        super()._check_conservation()
        cache = self.cache
        if isinstance(cache, OracleCachePlane):
            assert all(cache.pending.values())
            waiting = list(cache.pending)
        else:
            n = cache.n
            waiting = [divmod(pair, n) for pair in cache.head]
            assert set(waiting) == {(i, j) for i, js in enumerate(cache.wait_dst) for j in js}
            assert set(waiting) == {(i, j) for j, si in enumerate(cache.wait_src) for i in si}
            assert cache.tail.keys() == cache.head.keys()
            for pair, fid in cache.head.items():
                while cache.next_fid[fid] >= 0:
                    fid = cache.next_fid[fid]
                assert fid == cache.tail[pair]
            for i in range(n):
                assert cache.n_free_src[i] == sum(i in fs for fs in cache.free_src)
                assert cache.n_free_dst[i] == sum(i in fd for fd in cache.free_dst)
        for src, dst in waiting:
            for s in range(cache.k_c):
                assert not (src in cache.free_src[s] and dst in cache.free_dst[s])


def run_checked(cfg, flows, batch, **kwargs):
    sim = CheckedSimulator(cfg, **kwargs)
    return sim.run(at_time_zero(flows) if batch else flows), sim.starts


def cfg_of(n, k_r, k_c):
    # medium from 1 Mbit (a slot-full), large from 5 Mbit (0.5 ms at 10 Gb/s)
    return validate(NetworkConfig(n=n, k_s=0, k_r=k_r, k_c=k_c, r=10e9, delta=100e-6,
                                  R_r=10e-6, R_c=1e-3, large_threshold_bits=5e6))


# whole milliseconds of service, so that releases tie with each other and
# with arrivals on the grid below
_SIZES = st.sampled_from([5e6, 1e7, 1e7, 2e7, 3e7])
_TIMES = st.sampled_from([0.0, 0.0, 5e-4, 1e-3, 2e-3, 2e-3, 3e-3])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_row_and_column_refill_matches_the_full_scan(data):
    n = data.draw(st.integers(2, 12), label="n")
    k_r = data.draw(st.integers(0, 2), label="k_r")
    k_c = data.draw(st.integers(1, 3), label="k_c")
    cfg = cfg_of(n, k_r, k_c)
    # a refused flow needs the rotors to spill to
    policy = data.draw(st.sampled_from(["queue", "spill"] if k_r else ["queue"]),
                       label="cache_policy")
    ports = min(n, 5)
    pairs = [(s, d) for s in range(ports) for d in range(ports) if s != d]
    times = _TIMES if data.draw(st.booleans(), label="spread") else st.just(0.0)
    drawn = data.draw(st.lists(st.tuples(st.sampled_from(pairs), _SIZES, times),
                               min_size=1, max_size=40), label="flows")
    flows = flow_table(cfg, [(s, d, size, t) for (s, d), size, t in drawn])

    for batch in (False, True):
        got, got_starts = run_checked(cfg, flows, batch, cache_policy=policy)
        with oracle_cache_plane():
            want, want_starts = run_checked(cfg, flows, batch, cache_policy=policy)
        assert got.completed
        assert got.records == want.records
        assert got.dct_s == want.dct_s
        assert got.spill_count == want.spill_count
        assert got.injected_bits == want.injected_bits
        assert got.delivered_bits == want.delivered_bits
        assert got.plane_bits == want.plane_bits
        assert got_starts == want_starts


def test_release_starts_the_column_then_the_row():
    cfg = cfg_of(4, 0, 1)
    flows = flow_table(cfg, [(0, 1, 3e7, 0.0),    # runs until 4 ms
                             (2, 1, 1e7, 1e-3),   # waits for destination 1
                             (0, 3, 1e7, 2e-3)])  # waits for source 0
    res, starts = run_checked(cfg, flows, False)
    release = cfg.R_c + 3e7 / cfg.r
    assert starts == [(0.0, 0), (release, 1), (release, 2)]
    assert res.completed
    done = [rec.completion_s for rec in res.records]
    assert done == pytest.approx([release, release + 2e-3, release + 2e-3])


def test_tied_waits_go_to_the_smallest_pair():
    cfg = cfg_of(4, 0, 1)
    flows = flow_table(cfg, [(2, 1, 3e7, 0.0),    # frees source 2 and destination 1
                             (2, 3, 1e7, 1e-3),   # the freed row
                             (3, 1, 1e7, 1e-3),   # the freed column
                             (0, 1, 1e7, 1e-3)])  # the freed column, smallest pair
    res, starts = run_checked(cfg, flows, False)
    release = cfg.R_c + 3e7 / cfg.r
    second = release + cfg.R_c + 1e7 / cfg.r
    assert starts == [(0.0, 0), (release, 3), (release, 1), (second, 2)]
    done = [rec.completion_s for rec in res.records]
    assert done == pytest.approx([release, second, second + 2e-3, second])
