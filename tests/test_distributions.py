import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ocsnet.distributions import FlowSizeDistribution, default_mix
from ocsnet.model import FlowClass, NetworkConfig, validate


@pytest.fixture
def cfg():
    return validate(NetworkConfig(n=64, k_s=0, k_r=16, k_c=16,
                                  r=10e9, delta=100e-6, R_r=10e-6, R_c=15e-3))


class TestConstructors:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            FlowSizeDistribution.discrete([1e6, 1e9], [0.6, 0.6])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FlowSizeDistribution.discrete([0.0], [1.0])

    @pytest.mark.parametrize("make", [
        lambda: FlowSizeDistribution.point(math.nan),
        lambda: FlowSizeDistribution.discrete([1e6, math.inf], [0.5, 0.5]),
        lambda: FlowSizeDistribution.discrete([1e6, 1e9], [math.nan, 1.0]),
        lambda: FlowSizeDistribution.log_uniform(1.0, math.inf),
        lambda: FlowSizeDistribution.pareto(math.nan, 1e6),
        lambda: FlowSizeDistribution.pareto(2.0, math.inf),
        lambda: FlowSizeDistribution.two_point_by_bytes(0.0, 1e9, 0.5),
    ], ids=["nan-size", "inf-size", "nan-prob", "inf-log-uniform-upper", "nan-pareto-shape",
            "inf-pareto-lower", "zero-size-by-bytes"])
    def test_parameter_outside_its_range_rejected(self, make):
        with pytest.raises(ValueError, match="finite|inf|lie in"):
            make()

    def test_two_point_by_bytes_solves_probability(self):
        d = FlowSizeDistribution.two_point_by_bytes(1e6, 1e9, 0.5)
        # equal byte halves need 1000x more of the small flows
        assert d.probs[0] == pytest.approx(1000 / 1001, rel=1e-12)
        assert d.byte_fraction_between(0, 2e6) == pytest.approx(0.5, rel=1e-12)

    def test_point_mean(self):
        assert FlowSizeDistribution.point(4e6).mean_size() == 4e6

    def test_pareto_needs_positive_shape(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution.pareto(0.0, 1e6)

    def test_from_csv_round_trip(self, tmp_path):
        p = tmp_path / "dist.csv"
        p.write_text("size_bits,probability\n1000000,0.75\n1000000000,0.25\n")
        d = FlowSizeDistribution.from_csv(p)
        assert d.sizes == (1e6, 1e9) and d.probs == (0.75, 0.25)

    def test_from_csv_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("bits,prob\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            FlowSizeDistribution.from_csv(p)


class TestQueries:
    def test_log_uniform_halves_in_log_space(self):
        d = FlowSizeDistribution.log_uniform(1e3, 1e9)
        assert d.prob_between(1e3, 1e6) == pytest.approx(0.5, rel=1e-12)

    def test_pareto_mean(self):
        d = FlowSizeDistribution.pareto(2.0, 1e6)
        assert d.mean_size() == pytest.approx(2e6, rel=1e-12)

    def test_pareto_heavy_tail_mean_undefined(self):
        d = FlowSizeDistribution.pareto(1.0, 1e6)
        with pytest.raises(ValueError, match="infinite mean"):
            d.mean_size()

    def test_class_byte_fractions_sum_to_one(self, cfg):
        d = default_mix()
        total = sum(d.class_byte_fraction(c, cfg) for c in FlowClass)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_mean_reciprocal_large_point_mass(self, cfg):
        d = FlowSizeDistribution.point(1e9)
        assert d.mean_reciprocal_large(cfg) == pytest.approx(1e-9, rel=1e-12)

    def test_mean_reciprocal_large_requires_mass(self, cfg):
        d = FlowSizeDistribution.point(4e6)
        with pytest.raises(ValueError, match="large"):
            d.mean_reciprocal_large(cfg)

    def test_half_open_interval_convention(self):
        d = FlowSizeDistribution.point(1e6)
        assert d.prob_between(1e6, 2e6) == 1.0
        assert d.prob_between(0, 1e6) == 0.0

    @given(st.floats(min_value=1e3, max_value=1e9))
    def test_partition_is_additive(self, cut):
        d = default_mix()
        left = d.prob_between(0, cut)
        right = d.prob_between(cut, math.inf)
        assert left + right == pytest.approx(1.0, rel=1e-9)

    @given(st.floats(min_value=1.1, max_value=5.0),
           st.floats(min_value=1e3, max_value=1e9))
    def test_pareto_partial_mass_matches_numeric(self, shape, lower):
        d = FlowSizeDistribution.pareto(shape, lower)
        hi = lower * 10
        grid = np.geomspace(lower, hi, 20001)
        pdf = shape * lower ** shape / grid ** (shape + 1)
        numeric = np.trapezoid(grid * pdf, grid)
        assert d.byte_mass_between(lower, hi) == pytest.approx(numeric, rel=1e-5)


class TestSampling:
    def test_deterministic_per_seed(self):
        d = default_mix()
        a = d.sample(np.random.default_rng(7), 1000)
        b = d.sample(np.random.default_rng(7), 1000)
        assert (a == b).all()

    def test_discrete_samples_stay_on_support(self):
        d = default_mix()
        out = d.sample(np.random.default_rng(0), 5000)
        assert set(np.unique(out)) <= {int(s) for s in d.sizes}

    def test_sizes_at_least_one_bit(self):
        d = FlowSizeDistribution.log_uniform(1.0, 10.0)
        assert d.sample(np.random.default_rng(0), 1000).min() >= 1

    def test_pareto_empirical_mean(self):
        d = FlowSizeDistribution.pareto(2.5, 1e6)
        out = d.sample(np.random.default_rng(1), 200_000)
        assert out.mean() == pytest.approx(d.mean_size(), rel=0.05)
