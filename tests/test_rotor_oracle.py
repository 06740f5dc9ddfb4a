"""The rotor plane's array state and one-pass relay admission against
the code they replaced.

``OracleRotorPlane`` keeps the previous ``_RotorPlane`` verbatim: relay
bits are admitted by one ``_admit_relay`` walk per spare source, and each
(src, dst) pair keeps a dict entry of bits admitted and a deque of its
flows. The plane now admits relay bits for all spare sources of a
matching in one 2-D pass and keeps the pair FIFOs in a flow log, so after
every slot the queues, the relay parking, the delivered bits and the
relay chunk FIFOs must be equal bit for bit, and so must the records.

Sizes are not whole numbers of bits, and neither is the paper profile's
slot (``delta * r`` = 999999.9999999999 bits), so float rounding shows
whenever the order of additions changes. Sizes are drawn from a small set
as well, so that queue rows tie and the order ``argsort`` gives ties
matters.
"""
import math
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from ocsnet import simulator
from ocsnet.model import NetworkConfig, validate

from conftest import flow_table


class OracleRotorPlane:
    """Slotted fluid rotor service with bounded two-hop relaying.

    Switch s is phase-shifted by s slots, so with k_r <= n-1 switches a
    source reaches k_r distinct destinations each slot. Relay parking
    space is capped at one slot-full per (relay, destination) pair.
    """

    def __init__(self, config: NetworkConfig, sim):
        self.sim = sim
        self.n = config.n
        self.k_r = config.k_r
        self.slot_bits = config.delta * config.r
        self.delta = config.delta
        self.period = config.delta + config.R_r
        self.n_match = self.n - 1
        n = self.n
        self.queue = np.zeros((n, n))
        self.relay_total = np.zeros((n, n))
        self.relay_chunks = {}
        self.delivered = np.zeros((n, n))
        self.injected_pair = {}         # (src, dst) -> bits admitted so far
        self.pair_used_relay = np.zeros((n, n), dtype=bool)
        self.pair_flows = {}
        self.next_target = np.full((n, n), np.inf)
        self.pending = []               # (arrival, src, dst, bits, fid)
        self.pending_bits = 0.0
        self.in_network = 0.0           # queue + relay bits, as of the last slot end
        self.scheduled = False
        self._ids = np.arange(n)

    def add(self, fid, src, dst, size, now):
        self.pending.append((now, src, dst, float(size), fid))
        self.pending_bits += size
        if not self.scheduled:
            slot = math.ceil(max(now, 0.0) / self.period - 1e-12)
            self.sim.schedule(slot * self.period + self.delta, "rotor_slot", slot)
            self.scheduled = True
        return True

    @property
    def residual(self):
        """Bits injected and not yet delivered, read from the plane's state."""
        return self.in_network + self.pending_bits

    def on_event(self, slot, t_end):
        slot_start = t_end - self.delta
        if self.pending:
            self._admit(slot_start)
        for s in range(self.k_r):
            shift = (slot + s) % self.n_match + 1
            self._serve_switch(shift)
        self._complete(t_end)
        self.in_network = self.queue.sum() + self.relay_total.sum()
        if self.residual > simulator._TOL:
            self.sim.schedule((slot + 1) * self.period + self.delta,
                              "rotor_slot", slot + 1)
        else:
            self.scheduled = False

    def _admit(self, slot_start):
        """Queue the pending flows that arrived by ``slot_start``.

        ``np.add.at`` adds repeated pairs in index order, so each queue
        entry gets the same float sums as one ``+=`` per flow.
        """
        keep, src, dst, bits = [], [], [], []
        injected = self.injected_pair
        for item in self.pending:
            if item[0] <= slot_start + 1e-12:
                _, s, d, b, fid = item
                self.pending_bits -= b
                pair = (s, d)
                total = injected[pair] = injected.get(pair, 0.0) + b
                dq = self.pair_flows.setdefault(pair, deque())
                dq.append((fid, total))
                if len(dq) == 1:
                    self.next_target[s, d] = total
                src.append(s)
                dst.append(d)
                bits.append(b)
            else:
                keep.append(item)
        self.pending = keep
        if bits:
            np.add.at(self.queue, (src, dst), bits)

    def _serve_switch(self, shift):
        n = self.n
        i = self._ids
        j = (i + shift) % n
        cap = np.full(n, self.slot_bits)
        # direct bits for the matching's destination
        q = self.queue[i, j]
        d1 = np.minimum(q, cap)
        self.queue[i, j] = q - d1
        cap -= d1
        self.delivered[i, j] += d1
        sent = float(d1.sum())
        self.sim.delivered_bits += sent
        self.sim.plane_bits["rotor"] += sent
        # second hop of previously relayed bits
        rt = self.relay_total[i, j]
        d2 = np.minimum(rt, cap)
        hot = np.nonzero(d2 > simulator._TOL)[0]
        if hot.size:
            self.relay_total[i[hot], j[hot]] = rt[hot] - d2[hot]
            cap[hot] -= d2[hot]
            for v in hot:
                self._drain_chunks(int(v), int(j[v]), float(d2[v]))
        # first hop of fresh two-hop traffic, spare capacity only
        spare = np.nonzero(cap > simulator._TOL)[0]
        if spare.size:
            backlog = self.queue[spare].sum(axis=1)
            for v in spare[backlog > simulator._TOL]:
                self._admit_relay(int(v), int(j[v]), float(cap[v]))

    def _drain_chunks(self, relay, dst, amount):
        chunks = self.relay_chunks[(relay, dst)]
        while amount > simulator._TOL and chunks:
            src, bits = chunks[0]
            take = min(bits, amount)
            self.delivered[src, dst] += take
            self.sim.delivered_bits += take
            self.sim.plane_bits["rotor"] += take
            amount -= take
            if take >= bits - simulator._TOL / 2:
                chunks.popleft()
            else:
                chunks[0][1] = bits - take
        if not chunks:
            del self.relay_chunks[(relay, dst)]

    def _admit_relay(self, src, relay, cap):
        row = self.queue[src]
        for d in np.argsort(row)[::-1]:
            d = int(d)
            bits = row[d]
            if bits <= simulator._TOL:
                break
            if d == relay:
                continue
            room = self.slot_bits - self.relay_total[relay, d]
            if room <= simulator._TOL:
                continue
            take = min(bits, cap, room)
            self.queue[src, d] -= take
            self.relay_total[relay, d] += take
            self.relay_chunks.setdefault((relay, d), deque()).append([src, take])
            self.pair_used_relay[src, d] = True
            cap -= take
            if cap <= simulator._TOL:
                break

    def _complete(self, t_end):
        ready = np.argwhere(self.delivered + simulator._TOL >= self.next_target)
        for src, dst in ready:
            src, dst = int(src), int(dst)
            dq = self.pair_flows[(src, dst)]
            got = self.delivered[src, dst] + simulator._TOL
            while dq and got >= dq[0][1]:
                fid, _ = dq.popleft()
                hops = 2 if self.pair_used_relay[src, dst] else 1
                self.sim.record(fid, t_end, simulator.PLANES.index("rotor"), hops)
            self.next_target[src, dst] = dq[0][1] if dq else np.inf


def snapshotting(plane):
    """``plane`` that logs its state after every slot."""

    class Snapshotting(plane):
        def __init__(self, *args):
            super().__init__(*args)
            self.states = []

        def on_event(self, slot, t_end):
            super().on_event(slot, t_end)
            chunks = {key: np.array([list(c) for c in dq])
                      for key, dq in self.relay_chunks.items()}
            self.states.append((slot, self.queue.copy(), self.relay_total.copy(),
                                self.delivered.copy(), chunks))

    return Snapshotting


def run_logged(plane, cfg, flows, batch):
    original = simulator._RotorPlane
    simulator._RotorPlane = snapshotting(plane)
    try:
        sim = simulator.Simulator(cfg)
        return sim.run(flows, batch=batch), sim.rotor.states
    finally:
        simulator._RotorPlane = original


def cfg_of(n, k_r):
    # the paper profile's link rate and slot; every flow goes to the rotors
    return validate(NetworkConfig(n=n, k_s=0, k_r=k_r, k_c=0, r=10e9, delta=100e-6,
                                  R_r=10e-6, R_c=15e-3, large_threshold_bits=math.inf))


_SLOT = 100e-6 * 10e9
_SIZES = st.one_of(
    st.sampled_from([0.25 * _SLOT, 0.5 * _SLOT, _SLOT, 1.5 * _SLOT, 2.5 * _SLOT]),
    st.floats(0.02 * _SLOT, 0.3 * _SLOT),   # several fit in one slot's spare capacity
    st.floats(0.3 * _SLOT, 4 * _SLOT))
# slot starts (period 110 us) and times between them
_TIMES = st.sampled_from([0.0, 0.0, 50e-6, 110e-6, 200e-6, 330e-6, 1e-3])


def assert_same_states(got, want):
    assert len(got) == len(want)
    for (slot, *arrays, chunks), (want_slot, *want_arrays, want_chunks) in zip(got, want):
        assert slot == want_slot
        for a, b in zip(arrays, want_arrays):
            assert np.array_equal(a, b), f"slot {slot}"
        assert chunks.keys() == want_chunks.keys(), f"slot {slot}"
        for key, fifo in chunks.items():
            assert np.array_equal(fifo, want_chunks[key]), f"slot {slot}, chunks {key}"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_rotor_matches_the_per_source_walk(data):
    n = data.draw(st.integers(2, 12), label="n")
    k_r = data.draw(st.integers(1, n - 1), label="k_r")
    cfg = cfg_of(n, k_r)
    # a few busy sources with a flow to every destination, so that spare
    # capacity relays several entries of one row, and some flows anywhere
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                 unique=True), label="sources")
    times = _TIMES if data.draw(st.booleans(), label="spread") else st.just(0.0)
    drawn = [((s, d), data.draw(_SIZES), data.draw(times))
             for s in sources for d in range(n) if d != s]
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    drawn += data.draw(st.lists(st.tuples(st.sampled_from(pairs), _SIZES, times),
                                max_size=20), label="more flows")
    flows = flow_table(cfg, [(s, d, size, t) for (s, d), size, t in drawn])
    batch = data.draw(st.booleans(), label="batch")

    got, got_states = run_logged(simulator._RotorPlane, cfg, flows, batch)
    want, want_states = run_logged(OracleRotorPlane, cfg, flows, batch)
    assert_same_states(got_states, want_states)
    assert got.completed
    assert got.records == want.records
    assert got.dct_s == want.dct_s
    assert got.delivered_bits == want.delivered_bits
    assert got.plane_bits == want.plane_bits


def test_relayed_flow_reports_two_hops():
    # a backlog of four slots to one destination: direct service on one
    # switch and relaying through the others
    cfg = cfg_of(4, 3)
    flows = flow_table(cfg, [(0, 1, 4 * _SLOT + 0.5, 0.0), (2, 3, 0.5 * _SLOT, 0.0)])
    got, got_states = run_logged(simulator._RotorPlane, cfg, flows, True)
    want, want_states = run_logged(OracleRotorPlane, cfg, flows, True)
    assert_same_states(got_states, want_states)
    assert got.records == want.records
    assert [rec.hops for rec in got.records] == [2, 1]
