"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in the captured output of
a failing run). The slower simulator criteria use desk-scale networks
(n=64) with fixed seeds so every run is reproducible.
"""
import itertools
import math

import numpy as np
import pytest

from ocsnet import analytics, simulator, topology, traffic
from ocsnet.analytics import (
    dct_cache, dct_hybrid_uniform, dct_rotor, large_flow_threshold,
    optimal_split, rotor_component_dct, throughput_star,
)
from ocsnet.distributions import FlowSizeDistribution, default_mix
from ocsnet.model import NetworkConfig, validate
from ocsnet.traffic import (
    TrafficSpec, class_rates, demand_matrix, generate, skewness_phi,
    variation_distance,
)

from conftest import flow_table


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def paper_cfg():
    return validate(NetworkConfig(n=256, k_s=5, k_r=16, k_c=16, r=10e9,
                                  delta=100e-6, R_r=10e-6, R_c=15e-3))


def test_criterion_1_threshold_golden_numbers(paper_cfg):
    lo = large_flow_threshold(0.0, paper_cfg)
    hi = large_flow_threshold(1.0, paper_cfg)
    ok = (abs(lo - 15.625 * 8e6) <= 1e-9 * 15.625 * 8e6
          and abs(hi - 187.5 * 8e6) <= 1e-9 * 187.5 * 8e6)
    _verdict(1, ok, f"large-flow threshold {lo / 8e6:.6g} MB at phi=0, "
                    f"{hi / 8e6:.6g} MB at phi=1 (want 15.625 / 187.5)")


def test_criterion_2_rotor_latency_tax(paper_cfg):
    got = dct_rotor(1.0, 1.0, paper_cfg)
    ok = got == 1.1  # 11/10 is exact in binary-rounded arithmetic of 1.1e-4/1e-4
    _verdict(2, ok, f"dct_rotor(x=1, phi=1) = {got!r} s (want 1.1, the ~9% tax)")


def test_criterion_3_expander_path_length():
    epl = topology.mean_expected_path_length(256, 32, range(10))
    ok = 1.80 <= epl <= 1.90
    _verdict(3, ok, f"mean epl over 10 seeds of (n=256, k=32) = {epl:.4f} "
                    "(want within [1.80, 1.90])")


def test_criterion_4_throughput_proportionality(paper_cfg):
    at_half = throughput_star("rotor", 0.5, 0.49, config=paper_cfg)
    beyond = [throughput_star("rotor", x, 0.49, config=paper_cfg)
              for x in (0.6, 0.7, 0.8, 0.9, 1.0)]
    expander = throughput_star("expander", 1.0, 0.0, epl=1.85)
    ok = (at_half == 1.0 and all(v < 1.0 for v in beyond)
          and abs(expander - 0.5405) <= 1e-3)
    _verdict(4, ok, f"rotor L*(0.5)={at_half}, L*(0.6..1) all < 1, "
                    f"expander L*(1)={expander:.4f} (want 0.5405 +/- 0.001)")


def test_criterion_5_rotor_simulator_oracle():
    cfg = validate(NetworkConfig(n=64, k_s=0, k_r=32, k_c=0, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=15e-3,
                                 large_threshold_bits=math.inf))
    dist = FlowSizeDistribution.point(6.4e7)  # medium-only
    details = []
    ok = True
    for x in (0.2, 0.4, 0.6):
        spec = TrafficSpec("uniform", x, dist, seed=1)
        flows = generate(spec, cfg)
        phi = skewness_phi(demand_matrix(flows, cfg.n))
        analytic = dct_rotor(x, phi, cfg)
        sim = simulator.run_batch(cfg, flows, seed=1).dct_s
        rel = (sim - analytic) / analytic
        ok &= abs(rel) <= 0.15 and sim >= 0.99 * analytic
        details.append(f"x={x}: sim={sim:.4f} analytic={analytic:.4f} rel={rel:+.3f}")
    _verdict(5, ok, "rotor-net (0,32,0) n=64 " + "; ".join(details)
             + " (want |rel| <= 0.15 and sim >= 0.99*analytic)")


def test_criterion_6_cache_single_flow_law():
    cfg = validate(NetworkConfig(n=8, k_s=0, k_r=0, k_c=1, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=15e-3))
    details = []
    ok = True
    for mb in (15.625, 125.0, 1000.0):
        size = mb * 8e6
        res = simulator.run(cfg, flow_table(cfg, [(0, 1, size, 0.0)]))
        want = cfg.R_c + size / cfg.r
        ok &= abs(res.dct_s - want) <= 1e-9
        details.append(f"{mb:g} MB -> {res.dct_s:.6f} s (law {want:.6f})")
    _verdict(6, ok, "idle demand-aware switch: " + "; ".join(details))


def test_criterion_7_optimal_split_property(paper_cfg):
    # 50/50 byte mixture of 1 Mbit / 1 Gbit flows; at this medium-class
    # skewness the rotor and cache per-switch loads are exactly equal
    phi_m = 2.0 - 1.15 / 1.1
    mix = FlowSizeDistribution.two_point_by_bytes(1e6, 1e9, 0.5)
    split = optimal_split(mix, 0.5, phi_m, paper_cfg)

    def worst(k_r, k_c):
        base = 0.5 * paper_cfg.k * paper_cfg.r
        rot = rotor_component_dct(base * 0.5, phi_m, k_r, paper_cfg)
        cac = dct_cache(base * 0.5, k_c, mix, paper_cfg)
        return max(rot, cac)

    at_split = worst(*split)
    neighbors = worst(15, 17), worst(17, 15)
    ok = split == (16, 16) and all(at_split <= v + 1e-15 for v in neighbors)
    _verdict(7, ok, f"equal-ratio mixture split = {split} (want (16, 16)); "
                    f"max-component DCT {at_split:.4f} <= neighbors "
                    f"{neighbors[0]:.4f}, {neighbors[1]:.4f}")


def test_criterion_8_invariant_suites(paper_cfg):
    notes = []

    # byte conservation, audited at every simulator event
    cfg = validate(NetworkConfig(n=16, k_s=2, k_r=8, k_c=2, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=15e-3))
    dist = FlowSizeDistribution.discrete([1e5, 4e6, 4e8], [0.6, 0.3995, 0.0005])
    flows = generate(TrafficSpec("uniform", 0.4, dist, window_s=0.004, seed=3), cfg)
    res = simulator.run_batch(cfg, flows, seed=3, audit=True)
    conserved = (res.completed
                 and abs(res.delivered_bits - res.injected_bits)
                 <= 1e-9 * res.injected_bits)
    notes.append(f"conservation over {len(flows)} flows: {conserved}")

    # variation distance bounds, brute force on 0.05 grids up to n=4
    delta_ok = True
    for n in (2, 3, 4):
        for combo in itertools.combinations_with_replacement(range(n), 20):
            p = np.bincount(combo, minlength=n) / 20
            d = variation_distance(p)
            above = float(np.clip(p - 1 / n, 0, None).sum())
            delta_ok &= abs(d - above) <= 1e-12 and -1e-12 <= d <= 1 - 1 / n + 1e-12
    notes.append(f"variation-distance grids: {delta_ok}")

    # per-class byte rates sum to k*r at full load
    rates = class_rates(default_mix(), 1.0, paper_cfg)
    rates_ok = abs(rates.total - paper_cfg.k * paper_cfg.r) \
        <= 1e-6 * paper_cfg.k * paper_cfg.r
    notes.append(f"class rates normalize: {rates_ok}")

    # L*(x) monotone nonincreasing for all three systems on 21 points
    xs = np.linspace(0.05, 1.0, 21)
    mix = FlowSizeDistribution.two_point_by_bytes(1e6, 1e9, 0.5)
    mono_ok = True
    for system, kw in (("expander", dict(epl=1.85)),
                       ("rotor", dict(config=paper_cfg)),
                       ("hybrid", dict(distribution=mix, config=paper_cfg))):
        vals = [throughput_star(system, x, 0.5, **kw) for x in xs]
        mono_ok &= all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
    notes.append(f"L*(x) monotone: {mono_ok}")

    # determinism: identical seeds give byte-identical outcomes
    rerun = simulator.run_batch(cfg, flows, seed=3, audit=True)
    det_ok = rerun.records == res.records and rerun.dct_s == res.dct_s
    notes.append(f"determinism: {det_ok}")

    ok = conserved and delta_ok and rates_ok and mono_ok and det_ok
    _verdict(8, ok, "; ".join(notes))


def test_criterion_9_hybrid_bound_direction():
    cfg = validate(NetworkConfig(n=64, k_s=5, k_r=16, k_c=16, r=10e9,
                                 delta=100e-6, R_r=10e-6, R_c=15e-3,
                                 large_threshold_bits=1.6e7))
    mix = FlowSizeDistribution.two_point_by_bytes(8e6, 6.4e7, 0.1)
    details = []
    ok = True
    for x in (0.3, 0.5):
        flows = generate(TrafficSpec("uniform", x, mix, seed=3), cfg)
        phi_m = skewness_phi(demand_matrix(flows, cfg.n, class_filter="medium"))
        # the simulator serves classes on the configured (k_r, k_c) switches
        bound = dct_hybrid_uniform(x, mix, phi_m, cfg, split=(cfg.k_r, cfg.k_c))
        sim = simulator.run_batch(cfg, flows, seed=3).dct_s
        ok &= sim <= 1.1 * bound
        details.append(f"x={x}: sim={sim:.4f} bound={bound:.4f} "
                       f"ratio={sim / bound:.3f}")
    _verdict(9, ok, "hybrid (5,16,16) n=64 " + "; ".join(details)
             + " (want sim <= 1.1 x bound)")
