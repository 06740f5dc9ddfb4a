import math

import numpy as np
import pytest

from ocsnet import analytics
from ocsnet.analytics import (
    cache_capacity_z, dct_all_to_all_rotor, dct_cache, dct_expander,
    dct_hybrid_uniform, dct_rotor, large_flow_threshold,
    optimal_split, report, rotor_component_dct, spill_fraction, throughput_star,
)
from ocsnet.distributions import FlowSizeDistribution, default_mix
from ocsnet.model import NetworkConfig, validate

# skewness at which a 50/50 byte mixture of 1 Mbit / 1 Gbit flows makes the
# rotor and demand-aware component completion times exactly equal
EQUAL_RATIO_PHI_M = 2.0 - 1.15 / 1.1


@pytest.fixture
def cfg(paper_config):
    return paper_config


@pytest.fixture
def equal_mix():
    return FlowSizeDistribution.two_point_by_bytes(1e6, 1e9, 0.5)


class TestDctExpander:
    def test_zero_load(self):
        assert dct_expander(0.0, 1.85) == 0.0

    def test_complete_graph(self):
        assert dct_expander(1.0, 1.0) == 1.0

    def test_half_load(self):
        assert dct_expander(0.5, 1.85) == pytest.approx(0.925)

    def test_rejects_bad_epl(self):
        with pytest.raises(ValueError):
            dct_expander(0.5, 0.5)


class TestDctRotor:
    def test_reconfiguration_tax_at_full_skew(self, cfg):
        assert dct_rotor(1.0, 1.0, cfg) == pytest.approx(1.1, rel=1e-12)

    def test_zero_load(self, cfg):
        assert dct_rotor(0.0, 0.7, cfg) == 0.0

    def test_half_load_uniform_needs_two_hops(self, cfg):
        assert dct_rotor(0.5, 0.0, cfg) == pytest.approx(1.1, rel=1e-12)

    def test_nonincreasing_in_phi(self, cfg):
        vals = [dct_rotor(0.8, phi, cfg) for phi in np.linspace(0, 1, 11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestAllToAllRotor:
    def test_one_slot_full_per_switch(self, cfg):
        u = cfg.medium_threshold_bits * cfg.k
        assert dct_all_to_all_rotor(u, cfg.k, cfg) == pytest.approx(110e-6, rel=1e-12)

    def test_zero_demand(self, cfg):
        assert dct_all_to_all_rotor(0.0, cfg.k, cfg) == 0.0

    def test_linear_in_demand(self, cfg):
        a = dct_all_to_all_rotor(1e9, 16, cfg)
        b = dct_all_to_all_rotor(2e9, 16, cfg)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_matches_skewed_closed_form_via_inflation(self, cfg):
        """Independent re-derivation: the per-load closed form equals the
        all-to-all formula applied to two-hop-inflated traffic."""
        for x in np.linspace(0, 1, 11):
            for phi in np.linspace(0, 1, 11):
                inflated = (2.0 - phi) * x * cfg.k * cfg.r
                assert dct_rotor(x, phi, cfg) == pytest.approx(
                    dct_all_to_all_rotor(inflated, cfg.k, cfg), abs=1e-12)


class TestLargeFlowThreshold:
    def test_uniform_skew(self, cfg):
        assert large_flow_threshold(0.0, cfg) == pytest.approx(1.25e8, rel=1e-9)

    def test_full_skew(self, cfg):
        assert large_flow_threshold(1.0, cfg) == pytest.approx(1.5e9, rel=1e-9)

    def test_singular_denominator(self):
        cfg = validate(NetworkConfig(n=8, k_s=0, k_r=1, k_c=1, r=10e9,
                                     delta=100e-6, R_r=10e-6, R_c=15e-3,
                                     medium_threshold_bits=10e9 * 110e-6,
                                     large_threshold_bits=1e9))
        with pytest.raises(ValueError, match="no finite large-flow threshold"):
            large_flow_threshold(1.0, cfg)

    def test_nondecreasing_in_phi(self, cfg):
        vals = [large_flow_threshold(p, cfg) for p in np.linspace(0, 1, 11)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestDctCache:
    def test_point_mass_large_flows(self, cfg):
        dist = FlowSizeDistribution.point(1e9)
        got = dct_cache(1.6e11, 16, dist, cfg)
        assert got == pytest.approx(1.15, rel=1e-12)

    def test_zero_demand(self, cfg):
        assert dct_cache(0.0, 16, default_mix(), cfg) == 0.0

    def test_no_switches_rejected(self, cfg):
        with pytest.raises(ValueError, match="k_c"):
            dct_cache(1e9, 0, default_mix(), cfg)

    def test_single_flow_single_switch(self, cfg):
        size = 1e9
        dist = FlowSizeDistribution.point(size)
        got = dct_cache(size, 1, dist, cfg)
        assert got == pytest.approx(cfg.R_c + size / cfg.r, rel=1e-12)


class TestOptimalSplit:
    def test_equal_ratio_mixture_splits_evenly(self, cfg, equal_mix):
        assert optimal_split(equal_mix, 0.5, EQUAL_RATIO_PHI_M, cfg) == (16, 16)

    def test_all_medium(self, cfg):
        dist = FlowSizeDistribution.point(4e6)
        assert optimal_split(dist, 0.5, 1.0, cfg) == (32, 0)

    def test_all_large(self, cfg):
        dist = FlowSizeDistribution.point(8e9)
        assert optimal_split(dist, 0.5, 1.0, cfg) == (0, 32)

    def test_split_is_locally_optimal(self, cfg):
        dist = FlowSizeDistribution.two_point_by_bytes(4e6, 2e9, 0.3)
        k_r, k_c = optimal_split(dist, 0.7, 0.8, cfg)

        def worst(kr, kc):
            base = 0.7 * cfg.k * cfg.r
            rot = rotor_component_dct(base * dist.byte_fraction_between(
                cfg.medium_threshold_bits, cfg.large_threshold_bits), 0.8, kr, cfg)
            cac = dct_cache(base * dist.byte_fraction_between(
                cfg.large_threshold_bits, math.inf), kc, dist, cfg)
            return max(rot, cac)

        best = worst(k_r, k_c)
        for dkr in (-1, 1):
            if 1 <= k_r + dkr and 1 <= k_c - dkr:
                assert best <= worst(k_r + dkr, k_c - dkr) + 1e-12

    def test_needs_two_dynamic_switches(self):
        cfg = validate(NetworkConfig(n=8, k_s=2, k_r=1, k_c=0, r=10e9,
                                     delta=100e-6, R_r=10e-6, R_c=15e-3))
        with pytest.raises(ValueError, match="dynamic"):
            optimal_split(default_mix(), 0.5, 1.0, cfg)

    @pytest.mark.parametrize("x, phi_m, name", [
        (-0.1, 1.0, "x"), (1.5, 1.0, "x"), (0.5, 3.0, "phi_m"), (0.5, -1.0, "phi_m")])
    @pytest.mark.parametrize("size", [4e6, 8e9, None])   # one-class splits too
    def test_out_of_range_inputs_rejected(self, cfg, x, phi_m, name, size):
        dist = default_mix() if size is None else FlowSizeDistribution.point(size)
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            optimal_split(dist, x, phi_m, cfg)

    @pytest.mark.parametrize("size, want", [(4e6, (1, 0)), (8e9, (0, 1))])
    def test_one_class_needs_no_second_dynamic_switch(self, size, want):
        cfg = validate(NetworkConfig(n=8, k_s=2, k_r=1, k_c=0, r=10e9,
                                     delta=100e-6, R_r=10e-6, R_c=15e-3))
        dist = FlowSizeDistribution.point(size)
        assert optimal_split(dist, 0.5, 1.0, cfg) == want
        base = 0.5 * cfg.k * cfg.r
        only = rotor_component_dct(base, 0.9, 1, cfg) if want[0] else \
            dct_cache(base, 1, dist, cfg)
        assert dct_hybrid_uniform(0.5, dist, 0.9, cfg) == only


class TestHybridDct:
    def test_no_large_mass_reduces_to_rotor_component(self, cfg):
        dist = FlowSizeDistribution.point(4e6)
        got = dct_hybrid_uniform(0.5, dist, 0.9, cfg)
        want = rotor_component_dct(0.5 * cfg.k * cfg.r, 0.9, 32, cfg)
        assert got == pytest.approx(want, rel=1e-12)

    def test_components_agree_at_real_valued_split(self, cfg, equal_mix):
        base = 0.5 * cfg.k * cfg.r
        rot = rotor_component_dct(base * 0.5, EQUAL_RATIO_PHI_M, 16, cfg)
        cac = dct_cache(base * 0.5, 16, equal_mix, cfg)
        assert rot == pytest.approx(cac, rel=1e-9)

    def test_slope_matches_cache_coefficient(self, cfg, equal_mix):
        """The hybrid curve is linear in x with the cache-component slope."""
        xs = np.linspace(0.1, 0.9, 9)
        ys = [dct_hybrid_uniform(x, equal_mix, EQUAL_RATIO_PHI_M, cfg,
                                 split=(16, 16)) for x in xs]
        slope = np.polyfit(xs, ys, 1)[0]
        alpha = analytics.hybrid_alpha(1.0, equal_mix, 16, cfg)
        assert slope == pytest.approx(alpha, rel=1e-9)

    def test_small_mass_needs_epl(self, cfg):
        with pytest.raises(ValueError, match="epl"):
            dct_hybrid_uniform(0.5, default_mix(), 1.0, cfg)

    def test_zero_at_zero_load(self, cfg):
        assert dct_hybrid_uniform(0.0, default_mix(), 1.0, cfg, epl=1.85) == 0.0

    def test_nondecreasing_in_x(self, cfg):
        vals = [dct_hybrid_uniform(x, default_mix(), 1.0, cfg, epl=1.85)
                for x in np.linspace(0, 1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestSkewedTraffic:
    def test_cache_capacity_example(self):
        # 32 switches total so the full-rate large byte rate is 1.6e11 bits/s
        cfg32 = validate(NetworkConfig(n=256, k_s=0, k_r=16, k_c=16, r=10e9,
                                       delta=100e-6, R_r=10e-6, R_c=15e-3))
        dist = FlowSizeDistribution.two_point_by_bytes(1e6, 1e9, 0.5)
        z = cache_capacity_z(16, dist, cfg32)
        assert z == pytest.approx(16 / 18.4, rel=1e-9)

    def test_no_cache_no_capacity(self, cfg):
        assert cache_capacity_z(0, default_mix(), cfg) == 0.0

    def test_capacity_linear_in_switch_count(self, cfg, equal_mix):
        assert cache_capacity_z(8, equal_mix, cfg) * 2 == pytest.approx(
            cache_capacity_z(16, equal_mix, cfg), rel=1e-12)

    def test_spill_fraction_cases(self):
        assert spill_fraction(0.5, 0.8) == 0.0
        assert spill_fraction(1.0, 0.87) == pytest.approx(0.13)
        assert spill_fraction(0.7, 0.0) == 1.0
        with pytest.raises(ValueError):
            spill_fraction(0.0, 0.5)


class TestThroughputStar:
    def test_rotor_half_active_full_rate(self, cfg):
        assert throughput_star("rotor", 0.5, 0.49, config=cfg) == 1.0

    def test_rotor_saturates_past_half(self, cfg):
        for x in (0.6, 0.8, 1.0):
            assert throughput_star("rotor", x, 0.49, config=cfg) < 1.0

    def test_expander_full_load(self):
        got = throughput_star("expander", 1.0, 0.0, epl=1.85)
        assert got == pytest.approx(0.5405, abs=1e-3)

    def test_hybrid_without_large_mass_matches_rotor(self, cfg):
        dist = FlowSizeDistribution.point(4e6)
        got = throughput_star("hybrid", 0.8, 0.9, dist, cfg, split=(cfg.k, 0))
        assert got == pytest.approx(
            throughput_star("rotor", 0.8, 0.9, config=cfg), abs=1e-6)

    def test_bisection_result_sits_on_the_boundary(self, cfg, equal_mix):
        x, phi = 0.9, 0.4
        L = throughput_star("hybrid", x, phi, equal_mix, cfg)
        assert L < 1.0
        # re-evaluate the completion-time condition at the returned L
        split = optimal_split(equal_mix, 1.0, phi, cfg)
        z = cache_capacity_z(split[1], equal_mix, cfg)
        u1_m = cfg.k * cfg.r * 0.5
        u1_l = cfg.k * cfg.r * 0.5
        coeff = x * (2 - phi * x) * (cfg.R_r + cfg.delta) / (
            cfg.medium_threshold_bits * split[0])
        dct = coeff * (L * u1_m + max(L - z, 0.0) * u1_l)
        assert abs(dct - 1.0) <= 1e-5

    @pytest.mark.parametrize("system", ["expander", "rotor", "hybrid"])
    def test_monotone_nonincreasing_in_x(self, cfg, equal_mix, system):
        xs = np.linspace(0.05, 1.0, 21)
        kw = dict(epl=1.85) if system == "expander" else \
            dict(config=cfg) if system == "rotor" else \
            dict(distribution=equal_mix, config=cfg)
        vals = [throughput_star(system, x, 0.5, **kw) for x in xs]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0  # proportional regime at low activity

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            throughput_star("torus", 0.5, 0.5)


class TestReport:
    def test_zero_load_row(self, cfg, equal_mix):
        rep = report(0.0, 1.0, 1.0, equal_mix, cfg, epl=1.85)
        assert rep.dct_expander_s == rep.dct_rotor_s == rep.dct_hybrid_s == 0.0
        assert rep.L_star_expander == rep.L_star_rotor == rep.L_star_hybrid == 1.0

    def test_split_partitions_dynamic_switches(self, cfg, equal_mix):
        rep = report(0.5, 1.0, EQUAL_RATIO_PHI_M, equal_mix, cfg, epl=1.85)
        assert rep.k_r_star + rep.k_c_star == cfg.k - cfg.k_s

    def test_beta_gamma_coefficients(self, cfg, equal_mix):
        rep = report(0.5, 0.3, 0.3, equal_mix, cfg, epl=1.85)
        assert rep.beta == pytest.approx((2 - 0.3) * 1.1, rel=1e-12)
        assert rep.gamma == 1.85
