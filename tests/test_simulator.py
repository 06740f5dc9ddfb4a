import gc
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocsnet import config_io, model, simulator
from ocsnet.analytics import dct_all_to_all_rotor, dct_rotor
from ocsnet.distributions import FlowSizeDistribution
from ocsnet.model import NetworkConfig, validate
from ocsnet.topology import build_expander
from ocsnet.traffic import (
    TrafficSpec, demand_matrix, generate, skewness_phi, write_trace,
)

from conftest import flow_table


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def cfg_of(n, k_s, k_r, k_c, **kw):
    args = dict(n=n, k_s=k_s, k_r=k_r, k_c=k_c, r=10e9,
                delta=100e-6, R_r=10e-6, R_c=15e-3)
    args.update(kw)
    return validate(NetworkConfig(**args))


class TestRun:
    def test_empty_trace(self):
        cfg = cfg_of(8, 0, 4, 0)
        res = simulator.run(cfg, flow_table(cfg, []))
        assert res.dct_s == 0.0 and res.completed

    def test_unset_thresholds_rejected(self):
        cfg = NetworkConfig(n=8, k_s=0, k_r=4, k_c=0, r=10e9,
                            delta=100e-6, R_r=10e-6, R_c=15e-3)
        with pytest.raises(ValueError, match="validate"):
            simulator.run(cfg, [])

    def test_a_flow_table_needs_no_flow_objects(self, monkeypatch, tmp_path):
        cfg = cfg_of(16, 2, 4, 4)
        graph = build_expander(16, 2, 0)
        spec = TrafficSpec("uniform", 0.3, window_s=0.01, distribution=(
            FlowSizeDistribution.discrete((1e5, 4e6, 2e8), (0.4, 0.4, 0.2))))
        want = generate(spec, cfg)
        results = [run(cfg, want, expander=graph) for run in (simulator.run,
                                                               simulator.run_batch)]

        def no_flow(*args):
            raise AssertionError("a Flow was built")

        monkeypatch.setattr(model.Flow, "__new__", no_flow)
        flows = generate(spec, cfg)
        assert flows == want and set(flows.flow_class.tolist()) == {0, 1, 2}
        write_trace(flows, tmp_path / "trace.csv")
        demand_matrix(flows, cfg.n, class_filter="medium")
        for run, result in zip((simulator.run, simulator.run_batch), results):
            assert run(cfg, flows, expander=graph) == result

    @pytest.mark.parametrize("k_s, k_r, k_c", [(0, 4, 0), (2, 2, 2)])
    @pytest.mark.parametrize("src, dst", [(-1, 2), (2, 8)])
    def test_tor_outside_the_network_is_rejected_before_the_first_event(
            self, monkeypatch, k_s, k_r, k_c, src, dst):
        cfg = cfg_of(8, k_s, k_r, k_c)
        counts = _count_events(monkeypatch)
        with pytest.raises(ValueError, match="^flow 1: ToR ids must be "):
            simulator.run(cfg, flow_table(cfg, [(0, 1, 1e5, 0.0), (src, dst, 2e6, 0.0)]))
        assert not counts

    def test_determinism(self):
        cfg = cfg_of(16, 0, 8, 0, large_threshold_bits=math.inf)
        dist = FlowSizeDistribution.point(4e6)
        flows = generate(TrafficSpec("uniform", 0.3, dist, window_s=0.02, seed=5), cfg)
        a = simulator.run_batch(cfg, flows, seed=5)
        b = simulator.run_batch(cfg, flows, seed=5)
        assert a.records == b.records and a.dct_s == b.dct_s

    def test_dct_at_least_serialization_bound(self):
        cfg = cfg_of(16, 0, 8, 0, large_threshold_bits=math.inf)
        dist = FlowSizeDistribution.point(4e6)
        flows = generate(TrafficSpec("uniform", 0.3, dist, window_s=0.02, seed=5), cfg)
        res = simulator.run_batch(cfg, flows, seed=5)
        assert res.dct_s >= max(f.size_bits for f in flows) / (cfg.k * cfg.r)

    def test_records_are_immutable_values(self):
        rec = simulator.FlowRecord(3, 0.0, 1.5, "rotor", 2)
        assert rec._fields == ("flow_id", "arrival_s", "completion_s", "plane", "hops")
        assert rec == simulator.FlowRecord(3, 0.0, 1.5, "rotor", 2)
        assert rec != simulator.FlowRecord(3, 0.0, 1.5, "rotor", 1)
        with pytest.raises(AttributeError):
            rec.hops = 1

    def test_horizon_marks_incomplete(self):
        cfg = cfg_of(8, 0, 0, 1)
        flows = flow_table(cfg, [(0, 1, 8e9, 0.0)])  # needs R_c + 0.8 s
        res = simulator.run(cfg, flows, horizon_s=0.1)
        assert not res.completed and len(res.records) == 0

    def test_a_run_cut_by_the_horizon_keeps_the_completed_flows(self):
        # the network and grid point CI runs through ``ocsnet simulate``
        mapping = config_io.load_config(overrides={
            "network.n": 16, "network.k_s": 2, "network.k_r": 4, "network.k_c": 4,
            "traffic.window_s": 2e-3, "traffic.load_x": 0.3})
        cfg, spec = config_io.network_config(mapping), config_io.traffic_spec(mapping, seed=0)
        flows = generate(spec, cfg)
        res = simulator.run_batch(cfg, flows, seed=0, expander=build_expander(16, 2, 0),
                                  horizon_s=2e-3)
        recs = res.records
        assert len(flows) == 603 and len(recs) == 579 and not res.completed
        assert (np.diff(recs.flow_id) > 0).all()
        assert recs.completion_s.max() <= 2e-3 and res.dct_s == max(recs.completion_s)
        rows = list(recs)
        assert rows[-1] == recs[-1] == simulator.FlowRecord(*rows[-1])
        # a cache circuit takes R_c = 15 ms to set up
        assert {rec.plane for rec in rows} == {"rotor", "expander"}
        assert list(recs[:-1]) == rows[:-1] and len(recs[:-1]) == 578
        assert recs[:-1] == recs[:-1] and recs[:-1] != recs and recs != rows

    @pytest.mark.parametrize("horizon", [math.nan, -1.0])
    def test_nan_or_negative_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon_s"):
            simulator.Simulator(cfg_of(8, 0, 4, 0), horizon_s=horizon)

    def test_conservation_and_full_delivery(self):
        cfg = cfg_of(16, 2, 8, 2)
        spec = TrafficSpec("uniform", 0.4, _mixed_dist(cfg), window_s=0.004, seed=3)
        flows = generate(spec, cfg)
        res = simulator.run_batch(cfg, flows, seed=3)  # audit on every event
        assert res.completed
        assert res.delivered_bits == pytest.approx(res.injected_bits, rel=1e-9)
        assert res.injected_bits == sum(f.size_bits for f in flows)

    def test_plane_bits_add_up_to_delivered_bits(self):
        cfg = cfg_of(16, 2, 8, 2)
        spec = TrafficSpec("uniform", 0.4, _mixed_dist(cfg), window_s=0.004, seed=3)
        res = simulator.run_batch(cfg, generate(spec, cfg), seed=3)
        assert {rec.plane for rec in res.records} == {"rotor", "cache", "expander"}
        assert sum(res.plane_bits.values()) == pytest.approx(res.delivered_bits, rel=1e-9)
        assert res.plane_bits["rotor"] > 0


def _mixed_dist(cfg):
    return FlowSizeDistribution.discrete(
        [1e5, 4e6, 4e8], [0.6, 0.3995, 0.0005])


class TestRouting:
    """Every flow class on every present/absent pattern of the three planes."""

    @pytest.mark.parametrize("policy", ["queue", "spill"])
    @pytest.mark.parametrize("flow_class", ["small", "medium", "large"])
    @pytest.mark.parametrize("k_s,k_r,k_c", [
        (k_s, k_r, k_c) for k_s in (0, 3) for k_r in (0, 1) for k_c in (0, 1)
        if k_s or k_r or k_c])
    def test_class_goes_to_its_plane(self, k_s, k_r, k_c, flow_class, policy):
        cfg = cfg_of(8, k_s, k_r, k_c)
        graph = build_expander(8, 3, seed=0)
        # a slot-full is the smallest medium flow; the large threshold is the
        # smallest large flow
        size = {"small": 1e5, "medium": cfg.medium_threshold_bits,
                "large": cfg.large_threshold_bits}[flow_class]
        # two large flows on one pair: the second finds a single cache switch busy
        flows = flow_table(cfg, [(0, 1, size, 0.0)] * (2 if flow_class == "large" else 1))
        assert {f.flow_class.value for f in flows} == {flow_class}

        oblivious = "rotor" if k_r else "expander" if k_s else None
        if flow_class == "small":
            want = ["expander" if k_s else oblivious]
        elif flow_class == "medium":
            want = [oblivious]
        elif not k_c:
            want = [oblivious] * 2
        else:
            want = ["cache", "cache" if policy == "queue" else oblivious]
        spills = sum(flow_class == "large" and plane != "cache" for plane in want)

        if None in want:
            with pytest.raises(ValueError, match="no .*plane"):
                simulator.run(cfg, flows, expander=graph, cache_policy=policy)
            return
        res = simulator.run(cfg, flows, expander=graph, cache_policy=policy)
        assert res.completed
        assert [rec.plane for rec in res.records] == want
        # a flow above one slot-full relays through the next matching's endpoint
        hops = {"cache": 1, "expander": int(graph.distances()[0, 1]),
                "rotor": 1 if size <= cfg.delta * cfg.r else 2}
        assert [rec.hops for rec in res.records] == [hops[p] for p in want]
        assert res.spill_count == spills


class TestCachePlane:
    @pytest.mark.parametrize("size", [1.25e8, 1e9, 8e9])
    def test_single_flow_law(self, size):
        cfg = cfg_of(8, 0, 0, 1)
        res = simulator.run(cfg, flow_table(cfg, [(0, 1, size, 0.0)]))
        assert res.dct_s == pytest.approx(cfg.R_c + size / cfg.r, abs=1e-9)
        assert res.records[0].plane == "cache" and res.records[0].hops == 1

    def test_shared_source_port_serializes(self):
        cfg = cfg_of(8, 0, 0, 1)
        flows = flow_table(cfg, [(0, 1, 1e9, 0.0), (0, 2, 1e9, 0.0)])
        res = simulator.run(cfg, flows)
        assert res.dct_s == pytest.approx(2 * cfg.R_c + 2 * 1e9 / cfg.r, abs=1e-9)

    def test_disjoint_pairs_run_in_parallel(self):
        cfg = cfg_of(8, 0, 0, 1)
        flows = flow_table(cfg, [(0, 1, 1e9, 0.0), (2, 3, 1e9, 0.0)])
        res = simulator.run(cfg, flows)
        assert res.dct_s == pytest.approx(cfg.R_c + 1e9 / cfg.r, abs=1e-9)

    def test_second_switch_carries_a_parallel_circuit(self):
        # each spine switch has its own ToR uplink, so the same pair can
        # be served on two switches at once
        cfg = cfg_of(8, 0, 0, 2)
        flows = flow_table(cfg, [(0, 1, 1e9, 0.0), (0, 1, 1e9, 0.0)])
        res = simulator.run(cfg, flows)
        assert res.dct_s == pytest.approx(cfg.R_c + 1e9 / cfg.r, abs=1e-9)

    def test_spill_policy_reroutes_to_rotor(self):
        cfg = cfg_of(8, 0, 4, 1)
        flows = flow_table(cfg, [(0, 1, 2e8, 0.0), (0, 2, 2e8, 0.0)])
        spill = simulator.run(cfg, flows, cache_policy="spill")
        queue = simulator.run(cfg, flows, cache_policy="queue")
        assert spill.spill_count == 1 and queue.spill_count == 0
        assert {rec.plane for rec in spill.records} == {"cache", "rotor"}
        assert {rec.plane for rec in queue.records} == {"cache"}

    def test_no_cache_switches_spill_everything(self):
        cfg = cfg_of(8, 0, 4, 0)
        res = simulator.run(cfg, flow_table(cfg, [(0, 1, 2e8, 0.0)]))
        assert res.spill_count == 1 and res.records[0].plane == "rotor"


class TestRotorPlane:
    def test_single_slot_flow_completes_within_one_period(self):
        cfg = cfg_of(2, 0, 1, 0, large_threshold_bits=math.inf)
        res = simulator.run(cfg, flow_table(cfg, [(0, 1, cfg.delta * cfg.r, 0.0)]))
        assert res.dct_s <= cfg.delta + cfg.R_r + 1e-12
        assert res.records[0].hops == 1

    def test_mid_slot_arrival_waits_for_next_slot(self):
        cfg = cfg_of(2, 0, 1, 0, large_threshold_bits=math.inf)
        res = simulator.run(cfg, flow_table(cfg, [(0, 1, 1e6, 0.5 * cfg.delta)]))
        period = cfg.delta + cfg.R_r
        assert res.dct_s == pytest.approx(period + cfg.delta, abs=1e-12)

    def test_all_to_all_matches_analytic_oracle(self):
        n, k_r = 16, 4
        cfg = cfg_of(n, 0, k_r, 0, large_threshold_bits=math.inf)
        # whole slot-fulls per pair: the formula describes steady pipelining,
        # fractional tails add per-shift quantization it does not model
        per_pair = 40 * cfg.medium_threshold_bits
        per_tor = per_pair * (n - 1)
        flows = flow_table(cfg, [(i, j, per_pair, 0.0)
                                 for i in range(n) for j in range(n) if i != j])
        res = simulator.run(cfg, flows)
        analytic = dct_all_to_all_rotor(per_tor, k_r, cfg)
        assert abs(res.dct_s - analytic) / analytic <= 0.10

    def test_uniform_load_respects_analytic_lower_bound(self):
        cfg = cfg_of(32, 0, 8, 0, large_threshold_bits=math.inf)
        dist = FlowSizeDistribution.point(8e6)
        flows = generate(TrafficSpec("uniform", 0.3, dist, window_s=0.1, seed=7), cfg)
        res = simulator.run_batch(cfg, flows, seed=7)
        phi = skewness_phi(demand_matrix(flows, cfg.n))
        bound = dct_rotor(0.3, phi, cfg) * 0.1  # 0.1 s worth of demand
        assert res.dct_s >= 0.99 * bound

    def test_more_switches_never_slower(self):
        dist = FlowSizeDistribution.point(8e6)
        dcts = []
        for k_r in (4, 8):
            cfg = cfg_of(32, 0, k_r, 0, large_threshold_bits=math.inf)
            flows = generate(TrafficSpec("uniform", 0.2, dist, window_s=0.05,
                                         seed=9), cfg)
            dcts.append(simulator.run_batch(cfg, flows, seed=9).dct_s)
        assert dcts[1] <= dcts[0]

    def test_skewed_pair_uses_two_hops(self):
        # one hot pair with far more than delta*r per cycle forces relaying
        n = 8
        cfg = cfg_of(n, 0, 1, 0, large_threshold_bits=math.inf)
        direct_only = (n - 1) * cfg.delta * cfg.r  # one slot per cycle
        res = simulator.run(cfg, flow_table(cfg, [(0, 1, 20 * direct_only, 0.0)]))
        assert res.records[0].hops == 2
        # Valiant spreading must beat the single-slot-per-cycle service time
        cycles_direct_only = 20 * (n - 1)
        assert res.dct_s < cycles_direct_only * (n - 1) * (cfg.delta + cfg.R_r)

    def test_audit_catches_relayed_bits_that_vanish(self, monkeypatch):
        n = 8
        cfg = cfg_of(n, 0, 1, 0, large_threshold_bits=math.inf)
        flows = flow_table(cfg, [(0, 1, 20 * (n - 1) * cfg.delta * cfg.r, 0.0)])
        drain = simulator._RotorPlane._drain_chunks

        def leaky_drain(self, relay, dst, amount):
            drain(self, relay, dst, 0.5 * amount)  # the other half is lost

        monkeypatch.setattr(simulator._RotorPlane, "_drain_chunks", leaky_drain)
        with pytest.raises(AssertionError, match="conservation"):
            simulator.run(cfg, flows)


class TestExpanderPlane:
    def test_adjacent_single_flow_runs_at_line_rate(self):
        cfg = cfg_of(4, 1, 0, 0)
        g = build_expander(4, 1, seed=0)
        dst = g.matchings[0][0]
        res = simulator.run(cfg, flow_table(cfg, [(0, dst, 5e5, 0.0)]), expander=g)
        assert res.dct_s == pytest.approx(5e5 / cfg.r, abs=1e-9)
        assert res.records[0].plane == "expander" and res.records[0].hops == 1

    def test_two_flows_share_a_link_fairly(self):
        cfg = cfg_of(4, 1, 0, 0)
        g = build_expander(4, 1, seed=0)
        dst = g.matchings[0][0]
        flows = flow_table(cfg, [(0, dst, 5e5, 0.0)] * 2)
        res = simulator.run(cfg, flows, expander=g)
        assert res.dct_s == pytest.approx(2 * 5e5 / cfg.r, abs=1e-9)

    def test_arrivals_at_one_instant_share_one_filling(self, monkeypatch):
        cfg = cfg_of(16, 3, 0, 0)
        flows = flow_table(cfg, [(s, (s + d) % 16, 1e5, t)
                                 for t in (1e-4, 2e-4) for s in range(16) for d in (1, 5)])
        sim = simulator.Simulator(cfg, expander=build_expander(16, 3, seed=2))
        fill, clocks = simulator._max_min_fill, []

        def counted_fill(*args):
            clocks.append(sim._clock)
            return fill(*args)

        monkeypatch.setattr(simulator, "_max_min_fill", counted_fill)
        assert sim.run(flows).completed
        assert clocks.count(1e-4) == clocks.count(2e-4) == 1

    def test_arrival_tying_a_completion_leaves_it_to_the_filling(self):
        # f0 is scheduled to finish at 100008 / r, where 1.46e-11 bits are
        # left; the three arrivals at that instant cut its rate to r / 4,
        # which moves its completion three ulps later
        cfg = cfg_of(4, 1, 0, 0)
        g = build_expander(4, 1, seed=0)
        dst = g.matchings[0][0]
        tie = 100008 / cfg.r
        flows = flow_table(cfg, [(0, dst, 100008, 0.0)] + [(0, dst, 5e4, tie)] * 3)
        res = simulator.run(cfg, flows, expander=g)
        assert [rec.completion_s for rec in res.records] == [
            1.0000800000000004e-05, 2.50008e-05, 2.50008e-05, 2.50008e-05]

    def test_bandwidth_tax_tracks_path_length(self):
        from ocsnet.topology import expected_path_length
        cfg = cfg_of(16, 3, 0, 0)
        g = build_expander(16, 3, seed=2)
        dist = FlowSizeDistribution.point(1e5)
        flows = generate(TrafficSpec("uniform", 0.05, dist, window_s=0.001,
                                     seed=2), cfg)
        res = simulator.run_batch(cfg, flows, seed=2, expander=g)
        mean_hops = np.mean([rec.hops for rec in res.records])
        assert mean_hops == pytest.approx(expected_path_length(g), abs=0.25)

    @pytest.mark.parametrize("n,degree", [(16, 5), (4, 2), (8, 3)])
    def test_expander_for_another_network_rejected(self, n, degree):
        cfg = cfg_of(8, 2, 2, 0)
        flows = flow_table(cfg, [(0, 1, 1e5, 0.0)])
        with pytest.raises(ValueError, match="expander has"):
            simulator.run(cfg, flows, expander=build_expander(n, degree, seed=0))

    def test_unroutable_flow_is_rejected_before_the_first_event(self, monkeypatch):
        # the degree-1 expander on 16 nodes from seed 0 has no path from 0 to 3
        cfg = cfg_of(16, 1, 1, 0)
        graph = build_expander(16, 1, seed=0)
        assert np.isinf(graph.distances()[0, 3])
        flows = flow_table(cfg, [(0, 1, 2 * cfg.medium_threshold_bits, 0.0),
                                 (0, 3, 1e5, 1e-3)])
        counts = _count_events(monkeypatch)
        with pytest.raises(ValueError, match="no path from 0 to 3 on the expander"):
            simulator.run(cfg, flows, expander=graph)
        assert not counts

    def test_large_flow_spilled_to_the_expander_is_routed_on_arrival(self, monkeypatch):
        cfg = cfg_of(16, 1, 0, 0)
        flows = flow_table(cfg, [(0, 3, 2 * cfg.large_threshold_bits, 1e-3)])
        counts = _count_events(monkeypatch)
        with pytest.raises(ValueError, match="no path from 0 to 3 on the expander"):
            simulator.run(cfg, flows, expander=build_expander(16, 1, seed=0))
        assert counts == {"arrival": 1}

    def test_small_flows_fall_back_to_rotor_without_static_switches(self):
        cfg = cfg_of(8, 0, 4, 0)
        res = simulator.run(cfg, flow_table(cfg, [(0, 1, 1e5, 0.0)]))
        assert res.records[0].plane == "rotor"

    def test_everything_on_expander_when_it_is_the_only_plane(self):
        cfg = cfg_of(8, 4, 0, 0)
        flows = flow_table(cfg, [(0, 1, 1e5, 0.0),    # small
                                 (0, 2, 4e6, 0.0),    # medium
                                 (0, 3, 2e8, 0.0)])   # large
        res = simulator.run(cfg, flows, seed=1)
        assert {rec.plane for rec in res.records} == {"expander"}
        assert res.completed


def _count_events(monkeypatch):
    """Count the events ``Simulator.schedule`` queues, by kind."""
    counts, schedule = Counter(), simulator.Simulator.schedule

    def counted(self, t, kind, payload):
        counts[kind] += 1
        return schedule(self, t, kind, payload)

    monkeypatch.setattr(simulator.Simulator, "schedule", counted)
    return counts


def test_records_hold_at_most_50_bytes_per_flow():
    # hybrid-batch's network and mix at a 0.1 s window: 31,526 flows
    mapping = config_io.load_config(WORKLOADS / "hybrid-batch.conf",
                                    overrides={"traffic.window_s": 0.1})
    cfg, spec = config_io.network_config(mapping), config_io.traffic_spec(mapping)
    flows = generate(spec, cfg)
    graph = build_expander(cfg.n, cfg.k_s, 0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = simulator.run_batch(cfg, flows, seed=spec.seed, expander=graph)
        gc.collect()   # the planes and their simulator refer to each other
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(flows) == 31526 and res.completed
    assert held / len(flows) <= 50


class TestProperties:
    """Small random instances of every plane mix, batch and streamed."""

    @staticmethod
    def _draw(data):
        n = data.draw(st.integers(4, 8), label="n")
        k_s = data.draw(st.sampled_from([0, 2]), label="k_s")
        # small and medium flows need the expander or the rotors
        k_r = data.draw(st.integers(0 if k_s else 1, 2), label="k_r")
        k_c = data.draw(st.integers(1, 3), label="k_c")
        policy = data.draw(st.sampled_from(["queue", "spill"]), label="cache_policy")
        cfg = cfg_of(n, k_s, k_r, k_c, R_c=1e-3, large_threshold_bits=5e6)
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        # small, medium (from one slot-full, 1 Mbit) and large flows
        sizes = st.sampled_from([1e5, 3e5, 1e6, 2.5e6, 5e6, 1e7, 3e7])
        times = st.sampled_from([0.0, 0.0, 2e-4, 1e-3, 2e-3, 2.5e-3])
        drawn = data.draw(st.lists(st.tuples(st.sampled_from(pairs), sizes, times),
                                   min_size=1, max_size=30), label="flows")
        flows = flow_table(cfg, [(s, d, size, t) for (s, d), size, t in drawn])
        graph = build_expander(n, k_s, seed=0) if k_s else None
        batch = data.draw(st.booleans(), label="batch")
        run = simulator.run_batch if batch else simulator.run
        return cfg, flows, run(cfg, flows, expander=graph, cache_policy=policy)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_no_cache_flow_finishes_before_reconfiguring_and_serializing(self, data):
        cfg, flows, res = self._draw(data)
        assert res.completed
        for rec in res.records:
            if rec.plane == "cache":
                size = flows[rec.flow_id].size_bits
                assert rec.completion_s >= rec.arrival_s + cfg.R_c + size / cfg.r

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_delivered_equals_injected(self, data):
        cfg, flows, res = self._draw(data)
        assert res.completed
        assert res.injected_bits == sum(f.size_bits for f in flows)
        assert res.delivered_bits == pytest.approx(res.injected_bits, rel=1e-9, abs=0)
        assert sum(res.plane_bits.values()) == pytest.approx(res.delivered_bits, rel=1e-9)
