"""Flow-level discrete-event simulation of a mixed spine network.

Three planes run side by side and share nothing but the clock:

* rotor: slotted fluid service over the cyclic matchings, with two-hop
  relaying of backlog that cannot be sent directly (direct bits first,
  then spare slot capacity forwards bits through the current matching's
  endpoint toward their final destination);
* cache (demand-aware): one flow per reconfigured link, paying the
  reconfiguration time before transmitting at line rate;
* expander: small flows served fluidly on a shortest path with max-min
  fair sharing per link.

Flow classes are mapped to planes the way the flow-assignment rules
prescribe: small to the expander, medium to the rotors, large to the
demand-aware switches with either FIFO queueing ("queue") or immediate
rerouting to the rotors when no ports are free ("spill").

Every plane takes flows through ``add(fid, src, dst, size, now)``, which
returns whether the plane took the flow, handles its own events through
``on_event(payload, now)``, and reports the bits it holds as ``residual``.
"""
from __future__ import annotations

import bisect
import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import FLOW_CLASSES, FlowTable, NetworkConfig, Table
from .topology import ExpanderGraph, build_expander

_TOL = 1e-6  # bits

RESULT_HEADER = ["flow_id", "arrival_s", "completion_s", "plane", "hops"]
PLANES = ("rotor", "cache", "expander")   # Records.plane codes index this
_ROTOR, _CACHE, _EXPANDER = range(len(PLANES))


class FlowRecord(NamedTuple):
    flow_id: int
    arrival_s: float
    completion_s: float
    plane: str
    hops: int


class Records(Table):
    """The completed flows in flow-id order; ``plane`` codes index ``PLANES``."""

    _row = FlowRecord
    _dtypes = {"flow_id": np.int64, "arrival_s": np.float64, "completion_s": np.float64,
               "plane": np.int8, "hops": np.int32}
    _code = ("plane", PLANES)


@dataclass(frozen=True)
class SimResult:
    dct_s: float
    records: Records
    spill_count: int
    completed: bool
    injected_bits: float
    delivered_bits: float
    plane_bits: dict


class _RotorPlane:
    """Slotted fluid rotor service with bounded two-hop relaying.

    Switch s is phase-shifted by s slots, so with k_r <= n-1 switches a
    source reaches k_r distinct destinations each slot. Relay parking
    space is capped at one slot-full per (relay, destination) pair.

    Each (src, dst) pair keeps its admitted flows in a FIFO threaded
    through a flow log: log entry f holds the flow id ``log_fid[f]``, the
    pair's admitted bits up to and including that flow ``log_target[f]``,
    and the pair's next entry ``log_next[f]`` (-1 for none). ``head`` and
    ``tail``, indexed by ``src * n + dst``, hold a pair's oldest waiting
    entry (-1 when none waits) and its last admitted entry. Entry 0 is a
    sink that every pair's tail starts at; its next entry is never read.
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
        self.relay_chunks = {}          # (relay, dst) -> deque of [src, bits]
        self.delivered = np.zeros((n, n))
        self.pair_used_relay = np.zeros((n, n), dtype=bool)
        self.head = np.full(n * n, -1)
        self.tail = np.zeros(n * n, dtype=np.int64)
        self.next_target = np.full(n * n, np.inf)   # log_target of each head
        self.log_fid = np.zeros(1, dtype=np.int64)
        self.log_target = np.zeros(1)
        self.log_next = np.zeros(1, dtype=np.int64)
        self.n_log = 1
        self.pair_total = [0.0] * (n * n)   # bits added so far per pair
        # src, dst, bits, fid, target per flow, in add order; flat, since a
        # tuple per waiting flow doubles the garbage collector's passes, and
        # src and dst are the caller's objects where a pair id is a new int
        self.pending = []
        self.arrivals = []              # the pending flows' arrival times
        self.pending_bits = 0.0
        self.in_network = 0.0           # queue + relay bits, as of the last slot end
        self.scheduled = False
        self._ids = np.arange(n)
        self._dst = (self._ids + self._ids[:, None]) % n     # [shift, src] -> dst
        self._cell = self._ids * n + self._dst                # flat (src, dst)
        self._flat = tuple(a.reshape(-1) for a in (self.queue, self.relay_total,
                                                   self.delivered))

    def add(self, fid, src, dst, size, now):
        pair, bits = src * self.n + dst, float(size)
        self.pair_total[pair] += bits
        self.pending.extend((src, dst, bits, fid, self.pair_total[pair]))
        self.arrivals.append(now)
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
        if self.residual > _TOL:
            self.sim.schedule((slot + 1) * self.period + self.delta,
                              "rotor_slot", slot + 1)
        else:
            self.scheduled = False

    def _admit(self, slot_start):
        """Queue the pending flows that arrived by ``slot_start`` and append
        them to their pairs' FIFOs.

        Flows are added in time order, so these are a prefix of
        ``pending`` and are admitted in add order: the target ``add`` summed
        for each is the sum one ``+=`` per admitted flow of its pair gives.
        ``np.add.at`` adds repeated pairs in index order, so each queue
        entry gets the same float sums as one ``+=`` per flow.
        ``pending_bits`` is reduced by a left-to-right cumsum, which
        subtracts in the same order.
        """
        k = bisect.bisect_right(self.arrivals, slot_start + 1e-12)
        if not k:
            return
        admitted = np.fromiter(self.pending[:5 * k], float, 5 * k).reshape(-1, 5)
        del self.pending[:5 * k], self.arrivals[:k]
        src, dst, bits, fid, target = admitted.T
        pair, fid = (src * self.n + dst).astype(np.int64), fid.astype(np.int64)
        self.pending_bits = float(np.cumsum(np.r_[self.pending_bits, -bits])[-1])
        np.add.at(self._flat[0], pair, bits)

        order = np.argsort(pair, kind="stable")
        pair, fid, target = pair[order], fid[order], target[order]
        first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
        last = np.r_[first[1:], pair.size] - 1
        keys = pair[first]

        base = self.n_log
        self.n_log += pair.size
        if self.n_log > self.log_fid.size:
            grow = max(self.n_log, 2 * self.log_fid.size) - self.log_fid.size
            self.log_fid, self.log_target, self.log_next = (
                np.concatenate((a, np.zeros(grow, a.dtype)))
                for a in (self.log_fid, self.log_target, self.log_next))
        idx = base + np.arange(pair.size)
        self.log_fid[idx] = fid
        self.log_target[idx] = target
        self.log_next[idx] = idx + 1
        self.log_next[idx[last]] = -1
        self.log_next[self.tail[keys]] = idx[first]
        empty = self.head[keys] < 0
        self.head[keys[empty]] = idx[first[empty]]
        self.next_target[keys[empty]] = target[first[empty]]
        self.tail[keys] = idx[last]

    def _serve_switch(self, shift):
        """One matching: direct bits, relayed bits on their second hop, then
        spare capacity admits fresh relay bits."""
        cell = self._cell[shift]
        queue, relay_total, delivered = self._flat
        # direct bits for the matching's destination
        q = queue[cell]
        d1 = np.minimum(q, self.slot_bits)
        queue[cell] = q - d1
        cap = self.slot_bits - d1
        delivered[cell] += d1
        sent = float(d1.sum())
        self.sim.delivered_bits += sent
        self.sim.plane_bits["rotor"] += sent
        # second hop of previously relayed bits
        rt = relay_total[cell]
        d2 = np.minimum(rt, cap)
        hot = (d2 > _TOL).nonzero()[0]
        if hot.size:
            d2 = d2[hot]
            relay_total[cell[hot]] = rt[hot] - d2
            cap[hot] -= d2
            dst = self._dst[shift]
            for v, d, amount in zip(hot.tolist(), dst[hot].tolist(), d2.tolist()):
                self._drain_chunks(v, d, amount)
        # first hop of fresh two-hop traffic, spare capacity only
        spare = (cap > _TOL).nonzero()[0]
        if spare.size:
            spare = spare[self.queue[spare].max(axis=1) > _TOL]
            if spare.size:
                self._admit_relay(spare, self._dst[shift][spare], cap[spare])

    def _drain_chunks(self, relay, dst, amount):
        chunks = self.relay_chunks[(relay, dst)]
        while amount > _TOL and chunks:
            src, bits = chunks[0]
            take = min(bits, amount)
            self.delivered[src, dst] += take
            self.sim.delivered_bits += take
            self.sim.plane_bits["rotor"] += take
            amount -= take
            if take >= bits - _TOL / 2:
                chunks.popleft()
            else:
                chunks[0][1] = bits - take
        if not chunks:
            del self.relay_chunks[(relay, dst)]

    def _admit_relay(self, src, relay, cap):
        """Park bits of the sources ``src`` at their matched ``relay`` nodes,
        up to each source's spare ``cap``, in one pass for all of them.

        Per source this is a greedy walk over its queue row in
        ``argsort(row)[::-1]`` order: stop at the first entry of at most
        ``_TOL`` bits, skip the relay itself and destinations whose parking
        at the relay has at most ``_TOL`` room, take ``min(bits, cap,
        room)`` and stop once cap is at most ``_TOL``. One 2-D pass gives
        the same floats. The matching is a permutation, so the sources'
        queue rows, the relays' parking rows and the chunk keys are
        disjoint. ``argsort`` along axis 1 orders each row as the 1-D
        ``argsort`` does, ties included. The cap left before each step is a
        left-to-right ``cumsum`` over ``[cap, -w0, -w1, ...]``, with ``w =
        min(bits, room)`` where the walk takes and 0.0 where it skips,
        because ``a - b == a + (-b)`` in IEEE 754 (``cap - cumsum(w)``
        rounds differently). That cap never grows, so the walk takes
        ``min(w, cap left)`` wherever w > 0 and the cap left is above
        ``_TOL``, and nowhere after.
        """
        queue = self.queue[src]
        room = self.slot_bits - self.relay_total[relay]
        w = np.where((queue > _TOL) & (self._ids != relay[:, None]) & (room > _TOL),
                     np.minimum(queue, room), 0.0)
        order = np.argsort(queue, axis=1)[:, ::-1]
        w = w.take(order + self._ids[:src.size, None] * self.n)
        left = np.cumsum(np.concatenate((cap[:, None], -w), axis=1), axis=1)[:, :-1]
        row, k = ((w > 0.0) & (left > _TOL)).nonzero()
        take = np.minimum(w[row, k], left[row, k])
        s, d, via = src[row], order[row, k], relay[row]
        self.queue[s, d] = queue[row, d] - take
        self.relay_total[via, d] += take
        self.pair_used_relay[s, d] = True
        chunks = self.relay_chunks
        for key, v, t in zip(zip(via.tolist(), d.tolist()), s.tolist(), take.tolist()):
            chunks.setdefault(key, deque()).append([v, t])

    def _complete(self, t_end):
        """Record the flows whose pair has delivered their target, taking
        each ready pair's head once per round."""
        delivered = self._flat[2]
        used = self.pair_used_relay.reshape(-1)
        ready = np.flatnonzero(delivered + _TOL >= self.next_target)
        while ready.size:
            f = self.head[ready]
            self.sim.record(self.log_fid[f], t_end, _ROTOR, used[ready] + 1)
            nxt = self.log_next[f]
            self.head[ready] = nxt
            self.next_target[ready] = np.where(nxt >= 0, self.log_target[nxt], np.inf)
            ready = ready[delivered[ready] + _TOL >= self.next_target[ready]]


class _CachePlane:
    """Per-switch port bookkeeping plus a FIFO of waiting large flows.

    With ``spill`` set, a flow that finds no free port pair is refused
    rather than queued.

    After every event no waiting pair has both its ports free on any
    switch: an arrival that finds a free port pair takes it, and only a
    release frees ports, one source and one destination on one switch. So
    every pair that can start after a release sends from the freed source
    or to the freed destination, and ``_refill`` looks only at that row and
    that column.

    ``n_free_src[i]`` and ``n_free_dst[j]`` count the switches on which
    source i and destination j are free; ``add`` scans the switches only
    when both are nonzero, since otherwise none can take the flow.
    """

    def __init__(self, config: NetworkConfig, sim, spill):
        self.sim = sim
        self.spill = spill
        self.k_c = config.k_c
        self.R_c = config.R_c
        self.r = config.r
        n = config.n
        self.free_src = [set(range(n)) for _ in range(self.k_c)]
        self.free_dst = [set(range(n)) for _ in range(self.k_c)]
        self.n_free_src = [self.k_c] * n
        self.n_free_dst = [self.k_c] * n
        self.pending = {}            # (src, dst) -> deque of (arrival, fid, size)
        self.residual = 0.0

    def add(self, fid, src, dst, size, now):
        if self.n_free_src[src] and self.n_free_dst[dst]:
            for s in range(self.k_c):
                if src in self.free_src[s] and dst in self.free_dst[s]:
                    self._start(s, fid, src, dst, size, now)
                    self.residual += size
                    return True
        if self.spill:
            return False
        self.pending.setdefault((src, dst), deque()).append((now, fid, size))
        self.residual += size
        return True

    def _start(self, s, fid, src, dst, size, now):
        self.free_src[s].discard(src)
        self.free_dst[s].discard(dst)
        self.n_free_src[src] -= 1
        self.n_free_dst[dst] -= 1
        done = now + self.R_c + size / self.r
        self.sim.schedule(done, "cache_done", (s, fid, src, dst, size))

    def on_event(self, payload, now):
        s, fid, src, dst, size = payload
        self.residual -= size
        self.sim.delivered_bits += size
        self.sim.plane_bits["cache"] += size
        self.sim.record(fid, now, _CACHE, 1)
        self.free_src[s].add(src)
        self.free_dst[s].add(dst)
        self.n_free_src[src] += 1
        self.n_free_dst[dst] += 1
        self._refill(s, src, dst, now)

    def _refill(self, s, src, dst, now):
        """Start the oldest waiting flows (ties to the smallest pair) that
        the ports ``src`` and ``dst``, just freed on switch s, let start:
        at most one from each."""
        fs, fd, pending = self.free_src[s], self.free_dst[s], self.pending
        while pending:
            candidates = []
            if src in fs:
                candidates += [(src, j) for j in fd if (src, j) in pending]
            if dst in fd:
                candidates += [(i, dst) for i in fs if (i, dst) in pending]
            if not candidates:
                return
            key = min(candidates, key=lambda k: (pending[k][0][0], k))
            _, fid, size = pending[key].popleft()
            if not pending[key]:
                del pending[key]
            self._start(s, fid, key[0], key[1], size, now)


def _max_min_fill(flows, on_edge, capacity, edges):
    """Set the max-min fair rate of every flow linked to ``edges`` by
    progressive filling; returns the bottleneck edges in the order they
    were frozen.

    ``flows`` maps a flow id to its ``[residual, rate, path_edges]`` state,
    ``on_edge`` maps each loaded edge to the ids of the flows on it and
    ``capacity`` maps an edge to its bits per second. One walk from
    ``edges`` over ``on_edge`` finds the linked flows, directly or through
    other flows, and the links they load. The link with the smallest fair
    share (capacity left / unfixed flows on it, ties to the smallest edge)
    freezes its unfixed flows at that share, which is taken from the
    capacity left on their other links (Bertsekas & Gallager, *Data
    Networks*, section 6.5.2). A heap of ``(share, edge)`` keys finds that
    link; a key is pushed whenever a link's share changes, and a popped key
    that no longer matches its link's share is skipped. Heap order is
    ``min()``'s order over the same tuples, and every subtraction in a
    level uses the same share, so the rates are bit-identical to a rescan
    of every loaded link per level. Neither ``flows``' paths nor
    ``on_edge`` is changed.
    """
    cap, left, unfixed = {}, {}, set()   # every flow the walk reaches starts unfixed
    stack = list(edges)
    while stack:
        e = stack.pop()
        users = on_edge.get(e)
        if e in cap or not users:
            continue
        cap[e], left[e] = capacity[e], len(users)
        for fid in users - unfixed:
            unfixed.add(fid)
            stack += flows[fid][2]
    heap = [(cap[e] / n, e) for e, n in left.items()]
    heapq.heapify(heap)
    order = []
    while unfixed:
        share, edge = heapq.heappop(heap)
        n = left[edge]
        if not n or share != cap[edge] / n:
            continue
        left[edge] = 0
        order.append(edge)
        changed = set()
        for fid in on_edge[edge] & unfixed:
            unfixed.discard(fid)
            state = flows[fid]
            state[1] = share
            for e in state[2]:
                if e != edge:
                    left[e] -= 1
                    cap[e] -= share
                    changed.add(e)
        for e in changed:
            if left[e]:
                heapq.heappush(heap, (cap[e] / left[e], e))
    return order


class _ExpanderPlane:
    """Fluid max-min fair service of small flows on sampled shortest paths."""

    def __init__(self, graph: ExpanderGraph, config: NetworkConfig, rng, sim):
        self.sim = sim
        self.graph = graph
        self.n = graph.n
        mult = graph.multiplicity.reshape(-1)
        # link u -> v has id u * n + v, so ids sort as the (u, v) pairs do
        self.capacity = {e: float(mult[e]) * config.r
                         for e in np.flatnonzero(mult).tolist()}
        self.dist = graph.distances()
        self.adj = graph.adjacency()
        self._hop_tables = {}        # dst -> _hops_to(dst)
        self.rng = rng
        self.flows = {}              # fid -> [residual, rate, path_edges]
        self.on_edge = {}            # edge -> fids of the active flows on it
        self.last_t = 0.0
        self.version = 0             # the pending event carries -version (fill) or version
        self._added = []             # links of the flows added since the last fill
        self.residual = 0.0

    def add(self, fid, src, dst, size, now):
        path = self._sample_path(src, dst)
        edges = [u * self.n + v for u, v in zip(path[:-1], path[1:])]
        self.flows[fid] = [float(size), 0.0, edges]
        for e in edges:
            self.on_edge.setdefault(e, set()).add(fid)
        self.residual += size
        if not self._added:   # one fill event per instant, after its arrivals
            self.version += 1
            self.sim.schedule(now, "expander", -self.version)
        self._added += edges
        return True

    def _hops_to(self, dst):
        """Shortest-path next hops toward ``dst`` from every node.

        Returns ``(counts, start, cand, cdf)``: ``counts[v]`` shortest paths
        lead from v to ``dst``, and v's next hop is drawn from
        ``cand[start[v]:start[v + 1]]`` in proportion to the paths through
        each. Its slice of ``cdf`` is built exactly as
        ``Generator.choice(cand, p=w / w.sum())`` builds it, so
        ``rng.random()`` + ``searchsorted(side="right")`` makes the same
        draw ``choice`` would. ``step[v, u]`` marks u as a next hop of v;
        candidates are listed in ascending node order.
        """
        table = self._hop_tables.get(dst)
        if table is None:
            d = self.dist[:, dst]
            step = self.adj & (d == d[:, None] - 1) & np.isfinite(d)[:, None]
            counts = np.zeros(self.n)
            counts[dst] = 1.0
            for h in range(1, int(d[np.isfinite(d)].max()) + 1):
                layer = d == h           # whole numbers: exact in any order
                counts[layer] = step[layer] @ counts
            # a row's cumsum adds only 0.0 between two candidates
            cum = np.divide(counts, counts[:, None], out=np.zeros(step.shape), where=step)
            cum = cum.cumsum(axis=1)
            rows, cand = np.nonzero(step)
            table = self._hop_tables[dst] = (
                counts, rows.searchsorted(np.arange(self.n + 1)).tolist(),
                cand.tolist(), cum[rows, cand] / cum[rows, -1])
        return table

    def _sample_path(self, src, dst):
        counts, start, cand, cdf = self._hops_to(dst)
        if counts[src] == 0:
            raise ValueError(f"no path from {src} to {dst} on the expander")
        path = [src]
        v = src
        while v != dst:
            lo, hi = start[v], start[v + 1]
            v = cand[lo + cdf[lo:hi].searchsorted(self.rng.random(), side="right")]
            path.append(v)
        return path

    def on_event(self, version, now):
        """Serve the fill event ``-version`` that ``add`` schedules, or the
        completion event ``version``; older events are skipped. A fill
        finishes no flow, so a completion that ties an arrival happens at
        the time the fill schedules.

        Both re-fill only the flows linked to the links of the flows added
        or finished, once for all of an instant's adds. Every other flow
        keeps the rate a filling of every active flow would give it: the
        components of the flow-link graph those links do not touch carry
        the same flows on the same links as at their last filling, and the
        heap pops a component's keys in the same relative order whatever
        other keys it holds, since two components share no edge and so no
        key. Filling them again would give back their rates bit for bit.
        """
        if abs(version) != self.version:
            return
        dt = now - self.last_t
        if dt > 0:
            for state in self.flows.values():
                sent = state[1] * dt
                state[0] -= sent
                self.residual -= sent
                self.sim.delivered_bits += sent
                self.sim.plane_bits["expander"] += sent
        self.last_t = now
        edges, self._added = self._added, []
        if version > 0:
            for fid in [fid for fid, st in self.flows.items() if st[0] <= _TOL]:
                st = self.flows.pop(fid)
                for e in st[2]:
                    users = self.on_edge[e]
                    users.discard(fid)
                    if not users:
                        del self.on_edge[e]
                edges += st[2]
                self.residual -= st[0]   # tiny float remainder
                self.sim.delivered_bits += st[0]
                self.sim.plane_bits["expander"] += st[0]
                self.sim.record(fid, now, _EXPANDER, len(st[2]))
        if not self.flows:
            return
        _max_min_fill(self.flows, self.on_edge, self.capacity, edges)
        horizon = min(st[0] / st[1] for st in self.flows.values() if st[1] > 0)
        self.sim.schedule(now + max(horizon, 0.0), "expander", self.version)


class Simulator:
    def __init__(self, config: NetworkConfig, *, seed=0, expander=None,
                 cache_policy="queue", horizon_s=None, audit=True):
        if config.medium_threshold_bits is None or config.large_threshold_bits is None:
            raise ValueError("config thresholds unset; run model.validate first")
        if cache_policy not in ("queue", "spill"):
            raise ValueError(f"unknown cache policy {cache_policy!r}")
        if horizon_s is not None and not horizon_s >= 0:   # also rejects nan
            raise ValueError(f"horizon_s must be >= 0 seconds, got {horizon_s}")
        self._n = config.n
        self.horizon_s = horizon_s
        self.audit = audit
        self.rng = np.random.default_rng(seed)
        self._heap = []
        self.spill_count = 0
        self.injected_bits = 0.0
        self.delivered_bits = 0.0
        self.plane_bits = {"rotor": 0.0, "cache": 0.0, "expander": 0.0}
        self.rotor = _RotorPlane(config, self) if config.k_r > 0 else None
        self.cache = (_CachePlane(config, self, cache_policy == "spill")
                      if config.k_c > 0 else None)
        self.expander = None
        if config.k_s > 0:
            if expander is None:
                # only the expander reads self.rng, so its graph seed is the first draw
                expander = build_expander(config.n, config.k_s,
                                          int(self.rng.integers(2 ** 31)))
            elif (expander.n, expander.degree) != (config.n, config.k_s):
                raise ValueError(
                    f"expander has n = {expander.n} and degree {expander.degree}; "
                    f"the config needs n = {config.n} and k_s = {config.k_s}")
            self.expander = _ExpanderPlane(expander, config, self.rng, self)
        self._planes = [p for p in (self.rotor, self.cache, self.expander)
                        if p is not None]
        self._spill_to = self.rotor or self.expander
        # indexed by class code (FLOW_CLASSES); the small and medium entries
        # are None only when there is nowhere to spill, so only large flows
        # ever reach self._spill_to
        self._plane_of = [self.expander or self.rotor, self._spill_to, self.cache]
        self._plane_of_event = {"rotor_slot": self.rotor, "cache_done": self.cache,
                                "expander": self.expander}
        self._clock = 0.0

    def schedule(self, t, kind, payload):
        """Queue an event. Arrival i, whose payload is i, sorts as ``(t, i)``;
        the k-th other event as ``(t, len(flows) + k)``."""
        if kind == "arrival":
            seq = payload
        else:
            seq = self._seq
            self._seq += 1
        heapq.heappush(self._heap, (t, seq, kind, payload))

    def record(self, fid, t, plane, hops):
        """Flow ``fid`` (or each of an array of ids) completed at ``t``."""
        self._completion_s[fid] = t
        self._plane[fid] = plane
        self._hops[fid] = hops

    def run(self, flows: FlowTable, *, batch=False) -> SimResult:
        """Serve ``flows`` until all complete or the horizon passes.

        ``batch`` serves every flow as arriving at 0.0. Arrivals enter the
        heap one at a time in ``(arrival_s, index)`` order, the next one
        when the previous one pops, so the heap holds the events of the
        flows in flight, and events pop in the same order as if every
        arrival had been pushed up front.
        """
        self._take(flows)
        n = len(flows)
        if batch:
            order = ((i, 0.0) for i in range(n))
        else:
            # stable, as sorted(range(n), key=...) is
            i = np.argsort(flows.arrival_s, kind="stable")
            order = zip(i.tolist(), flows.arrival_s[i].tolist())
        self._seq = n

        def schedule_next_arrival():
            i, t = next(order, (None, None))
            if i is not None:
                self.schedule(t, "arrival", i)

        schedule_next_arrival()
        completed = True
        while self._heap:
            t, _, kind, payload = heapq.heappop(self._heap)
            if self.horizon_s is not None and t > self.horizon_s:
                completed = False
                break
            self._clock = t
            if kind == "arrival":
                schedule_next_arrival()
                self._on_arrival(payload, t)
            else:
                self._plane_of_event[kind].on_event(payload, t)
            if self.audit:
                self._check_conservation()
        done = np.flatnonzero(self._plane >= 0)
        records = Records(done, np.broadcast_to(0.0 if batch else flows.arrival_s, n)[done],
                          self._completion_s[done], self._plane[done], self._hops[done])
        return SimResult(
            dct_s=float(records.completion_s.max(initial=0.0)),
            records=records,
            spill_count=self.spill_count,
            completed=completed and len(records) == n,
            injected_bits=self.injected_bits,
            delivered_bits=self.delivered_bits,
            plane_bits=dict(self.plane_bits),
        )

    def _take(self, flows: FlowTable):
        """Hold the columns ``_on_arrival`` reads, one list each, and those
        ``record`` fills; reject flows with a ToR id outside the network, and
        those the expander takes but cannot route."""
        flows._require(np.maximum(flows.src, flows.dst) < self._n,
                       f"ToR ids must be < n = {self._n}")
        self._src, self._dst, self._size, self._code = (
            c.tolist() for c in (flows.src, flows.dst, flows.size_bits, flows.flow_class))
        self._completion_s = np.zeros(len(flows))
        self._plane = np.full(len(flows), -1, np.int8)   # -1 until the flow completes
        self._hops = np.zeros(len(flows), np.int32)
        if self.expander is not None:   # large flows spilled here are checked when sampled
            codes = [c for c, plane in enumerate(self._plane_of) if plane is self.expander]
            routed = np.isin(flows.flow_class, codes)
            src, dst = flows.src[routed], flows.dst[routed]
            cut = np.isinf(self.expander.dist[src, dst])
            if cut.any():
                i = int(np.argmax(cut))
                raise ValueError(f"no path from {src[i]} to {dst[i]} on the expander")

    def _on_arrival(self, fid, t):
        size = self._size[fid]
        self.injected_bits += size
        args = (fid, self._src[fid], self._dst[fid], size, t)
        plane = self._plane_of[self._code[fid]]
        if plane is not None and plane.add(*args):
            return
        if self._spill_to is None:
            raise ValueError(f"no plane available for {FLOW_CLASSES[self._code[fid]].value} "
                             "flows (k_s = k_r = 0)")
        self.spill_count += 1
        self._spill_to.add(*args)

    def _check_conservation(self):
        residual = 0.0
        for plane in self._planes:
            residual += plane.residual
        drift = self.injected_bits - self.delivered_bits - residual
        limit = 1e-6 * max(self.injected_bits, 1.0) + 1.0
        if abs(drift) > limit:
            raise AssertionError(
                f"byte conservation violated at t={self._clock}: drift {drift} bits"
            )


def run(config: NetworkConfig, flows: FlowTable, **kwargs) -> SimResult:
    """Simulate one flow trace to completion; deterministic per (config, flows, seed)."""
    return Simulator(config, **kwargs).run(flows)


def run_batch(config: NetworkConfig, flows: FlowTable, **kwargs) -> SimResult:
    """Serve the accumulated demand matrix: every flow arrives at time zero.

    This matches the completion-time metric, which clocks the time to
    drain the demand collected over a window, not the streaming tail.
    ``flows`` is not copied; the records carry arrival 0.0.
    """
    return Simulator(config, **kwargs).run(flows, batch=True)
