import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ocsnet.distributions import FlowSizeDistribution, default_mix
from ocsnet.model import DemandMatrix, Flow, FlowClass, FlowTable, NetworkConfig, validate
from ocsnet.traffic import (
    TRACE_HEADER, TrafficSpec, class_rates, demand_matrix, generate, read_trace,
    skewness_phi, variation_distance, write_trace,
)


_CLASSES = np.array([FlowClass.SMALL, FlowClass.MEDIUM, FlowClass.LARGE], dtype=object)


def oracle_generate(spec, config):
    """The previous ``generate``: the same draws, one ``Flow`` per row."""
    rng = np.random.default_rng(spec.seed)
    n = config.n
    dist = spec.distribution
    mean_size = dist.mean_size()

    if spec.model == "uniform":
        sources = np.arange(n)
        rate = spec.load_x * config.k * config.r
        dest_pool = None
    else:
        n_active = math.ceil(spec.load_x * n)
        sources = np.sort(rng.choice(n, size=n_active, replace=False))
        rate = spec.per_tor_rate_L * config.k * config.r
        dest_pool = sources

    lam = rate / mean_size * spec.window_s
    counts = rng.poisson(lam, size=len(sources))
    total = int(counts.sum())
    if total == 0:
        return []

    src = np.repeat(sources, counts)
    arrivals = rng.uniform(0.0, spec.window_s, size=total)
    sizes = dist.sample(rng, total)

    if dest_pool is None:
        offs = rng.integers(1, n, size=total)
        dst = (src + offs) % n
    else:
        pos = np.searchsorted(dest_pool, src)
        offs = rng.integers(1, len(dest_pool), size=total)
        dst = dest_pool[(pos + offs) % len(dest_pool)]

    order = np.argsort(arrivals, kind="stable")
    sizes = sizes[order]
    classes = _CLASSES[np.searchsorted(
        (config.medium_threshold_bits, config.large_threshold_bits), sizes, side="right")]
    return list(map(Flow, src[order].tolist(), dst[order].tolist(), sizes.tolist(),
                    arrivals[order].tolist(), classes))


def oracle_write_trace(flows, path):
    """The previous ``write_trace``: one ``csv.writer`` row per flow."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for f in flows:
            writer.writerow([repr(f.arrival_s), f.src, f.dst, f.size_bits, f.flow_class.value])


@pytest.fixture
def cfg():
    return validate(NetworkConfig(n=64, k_s=0, k_r=16, k_c=16,
                                  r=10e9, delta=100e-6, R_r=10e-6, R_c=15e-3))


class TestGenerate:
    def test_zero_load_is_empty(self, cfg):
        spec = TrafficSpec("uniform", 0.0, default_mix())
        assert len(generate(spec, cfg)) == 0

    @pytest.mark.parametrize("spec", [
        TrafficSpec("uniform", 0.3, default_mix(), window_s=0.01, seed=11),
        TrafficSpec("skewed", 0.25, default_mix(), per_tor_rate_L=0.7, window_s=0.01, seed=2),
        TrafficSpec("uniform", 0.0, default_mix()),
        TrafficSpec("skewed", 0.1, default_mix(), window_s=1e-9, seed=3),
    ], ids=["uniform", "skewed", "zero-load", "empty-window"])
    def test_rows_match_the_per_flow_build(self, cfg, spec):
        flows = generate(spec, cfg)
        want = oracle_generate(spec, cfg)
        assert list(flows) == want
        assert all(f.flow_class is w.flow_class for f, w in zip(flows, want))
        assert (flows.src.dtype, flows.size_bits.dtype) == (np.int32, np.int64)

    def test_deterministic_per_seed(self, cfg):
        spec = TrafficSpec("uniform", 0.3, default_mix(), window_s=0.01, seed=11)
        assert generate(spec, cfg) == generate(spec, cfg)

    def test_seeds_differ(self, cfg):
        a = generate(TrafficSpec("uniform", 0.3, default_mix(), window_s=0.01, seed=1), cfg)
        b = generate(TrafficSpec("uniform", 0.3, default_mix(), window_s=0.01, seed=2), cfg)
        assert a != b

    def test_sorted_by_arrival_within_window(self, cfg):
        flows = generate(TrafficSpec("uniform", 0.3, default_mix(), window_s=0.01, seed=0), cfg)
        arrivals = [f.arrival_s for f in flows]
        assert arrivals == sorted(arrivals)
        assert 0.0 <= arrivals[0] and arrivals[-1] < 0.01

    def test_compound_poisson_byte_volume(self, cfg):
        dist = FlowSizeDistribution.point(4e6)
        spec = TrafficSpec("uniform", 0.5, dist, window_s=0.01, seed=4)
        flows = generate(spec, cfg)
        total = sum(f.size_bits for f in flows)
        mean = cfg.n * 0.5 * cfg.k * cfg.r * 0.01
        sigma = math.sqrt(mean / 4e6) * 4e6         # Poisson count variance
        assert abs(total - mean) < 3 * sigma

    def test_skewed_restricts_sources_and_destinations(self, cfg):
        spec = TrafficSpec("skewed", 0.25, default_mix(), window_s=0.01, seed=2)
        flows = generate(spec, cfg)
        sources = {f.src for f in flows}
        dests = {f.dst for f in flows}
        assert len(sources) == math.ceil(0.25 * cfg.n)
        assert dests <= sources

    def test_skewed_needs_two_active(self, cfg):
        spec = TrafficSpec("skewed", 0.01, default_mix(), seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            generate(spec, cfg)

    def test_classes_match_thresholds(self, cfg):
        # the default mix, then every flow exactly at, or one bit below, the
        # medium or the large threshold
        cases = [(default_mix(), None)] + [
            (FlowSizeDistribution.point(size), size)
            for cut in (cfg.medium_threshold_bits, cfg.large_threshold_bits)
            for size in (cut - 1, cut)]
        for dist, at in cases:
            flows = generate(TrafficSpec("uniform", 0.2, dist, window_s=0.01, seed=0), cfg)
            assert flows
            assert at is None or {f.size_bits for f in flows} == {at}
            for f in flows[:2000]:
                if f.size_bits < cfg.medium_threshold_bits:
                    assert f.flow_class is FlowClass.SMALL
                elif f.size_bits < cfg.large_threshold_bits:
                    assert f.flow_class is FlowClass.MEDIUM
                else:
                    assert f.flow_class is FlowClass.LARGE

    def test_demand_matrix_conserves_bytes(self, cfg):
        flows = generate(TrafficSpec("uniform", 0.2, default_mix(), window_s=0.01, seed=0), cfg)
        dm = demand_matrix(flows, cfg.n)
        assert dm.cells.sum() == sum(f.size_bits for f in flows)

    @pytest.mark.parametrize("class_filter", [None, "small", FlowClass.LARGE])
    def test_demand_matrix_matches_the_per_flow_loop(self, cfg, class_filter):
        flows = generate(TrafficSpec("uniform", 0.2, default_mix(), window_s=0.01, seed=0), cfg)
        # sums that round differently if the flows are added out of order
        size, code = zip(*[(2 ** 53, 2), (1, 0), (1, 0), (1, 2), (2 ** 53, 0)])
        flows = FlowTable(*map(np.concatenate, zip(
            (flows.src, flows.dst, flows.size_bits, flows.arrival_s, flows.flow_class),
            ([1] * 5, [2] * 5, size, [0.0] * 5, code))))
        expect = np.zeros((cfg.n, cfg.n))
        for f in flows:
            if class_filter is None or f.flow_class is FlowClass(class_filter):
                expect[f.src, f.dst] += f.size_bits
        got = demand_matrix(flows, cfg.n, class_filter=class_filter).cells
        assert np.array_equal(got, expect)

    def test_demand_matrix_rejects_unknown_class_without_flows(self):
        with pytest.raises(ValueError, match="huge"):
            demand_matrix(FlowTable([], [], [], [], []), 4, class_filter="huge")

    @pytest.mark.parametrize("src, dst", [(0, 4), (5, 1)])
    def test_demand_matrix_rejects_a_tor_outside_it(self, src, dst):
        flows = FlowTable([0, src], [1, dst], [5, 7], [0.0, 0.0], [0, 0])
        with pytest.raises(ValueError, match=r"^flow 1: ToR ids must be < n = 4, got Flow\("):
            demand_matrix(flows, 4)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec("bursty", 0.5, default_mix())
        with pytest.raises(ValueError):
            TrafficSpec("uniform", 1.5, default_mix())

    @pytest.mark.parametrize("window_s", [0.0, -1.0, math.nan, math.inf])
    def test_window_must_be_positive_and_finite(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            TrafficSpec("uniform", 0.5, default_mix(), window_s=window_s)


class TestClassRates:
    def test_all_small_distribution(self, cfg):
        dist = FlowSizeDistribution.point(1e5)
        rates = class_rates(dist, 0.7, cfg)
        assert rates.bits_per_s_small == pytest.approx(0.7 * cfg.k * cfg.r)
        assert rates.bits_per_s_medium == 0 and rates.bits_per_s_large == 0

    def test_two_point_split(self):
        cfg = validate(NetworkConfig(n=256, k_s=0, k_r=16, k_c=16,
                                     r=10e9, delta=100e-6, R_r=10e-6, R_c=15e-3))
        dist = FlowSizeDistribution.two_point_by_bytes(1e6, 1e9, 0.5)
        rates = class_rates(dist, 1.0, cfg)
        assert rates.bits_per_s_medium == pytest.approx(1.6e11, rel=1e-9)
        assert rates.bits_per_s_large == pytest.approx(1.6e11, rel=1e-9)

    def test_normalizes_to_kr_at_full_load(self, cfg):
        rates = class_rates(default_mix(), 1.0, cfg)
        assert rates.total == pytest.approx(cfg.k * cfg.r, rel=1e-6)

    def test_linear_in_x(self, cfg):
        full = class_rates(default_mix(), 1.0, cfg)
        half = class_rates(default_mix(), 0.5, cfg)
        assert half.total == pytest.approx(0.5 * full.total, rel=1e-12)


class TestVariationDistance:
    def test_uniform_is_zero(self):
        assert variation_distance([0.25] * 4) == 0.0

    def test_point_mass(self):
        assert variation_distance([1.0, 0, 0, 0]) == pytest.approx(0.75)

    def test_half_concentrated(self):
        assert variation_distance([0.5, 0.5, 0, 0]) == pytest.approx(0.5)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            variation_distance([1.5, -0.5])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            variation_distance([0.5, 0.4])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=16)
           .filter(lambda v: sum(v) > 1e-6))
    def test_bounds_random(self, raw):
        p = np.asarray(raw) / sum(raw)
        d = variation_distance(p)
        assert -1e-12 <= d <= 1 - 1 / len(p) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bounds_brute_force_grid(self, n):
        """Every distribution on a 0.05 grid; cross-checked against the
        mass-above-average formulation."""
        steps = 20
        for combo in itertools.combinations_with_replacement(range(n), steps):
            counts = np.bincount(combo, minlength=n)
            p = counts / steps
            d = variation_distance(p)
            above = float(np.clip(p - 1 / n, 0, None).sum())
            assert d == pytest.approx(above, abs=1e-12)
            assert -1e-12 <= d <= 1 - 1 / n + 1e-12


class TestSkewnessPhi:
    def test_uniform_demand_is_one(self):
        n = 16
        cells = np.ones((n, n)) - np.eye(n)
        assert skewness_phi(DemandMatrix(n=n, cells=cells)) == pytest.approx(1.0, abs=1e-9)

    def test_single_destination_rows(self):
        n = 64
        cells = np.zeros((n, n))
        for i in range(n):
            cells[i, (i + 1) % n] = 1.0
        phi = skewness_phi(DemandMatrix(n=n, cells=cells))
        assert phi == pytest.approx(1 / (n - 1), rel=1e-9)

    def test_empty_demand_rejected(self):
        with pytest.raises(ValueError, match="no traffic"):
            skewness_phi(DemandMatrix(n=4, cells=np.zeros((4, 4))))

    def test_byte_weighting(self):
        # one heavy uniform row and one light point-mass row
        n = 4
        cells = np.zeros((n, n))
        cells[0, 1:] = 100.0
        cells[1, 2] = 3.0
        phi = skewness_phi(DemandMatrix(n=n, cells=cells))
        expected = (300 * 1.0 + 3 * (1 / 3)) / 303
        assert phi == pytest.approx(expected, rel=1e-9)

    def test_active_subset(self):
        n = 8
        cells = np.zeros((n, n))
        cells[0, 2] = cells[2, 0] = 1.0
        phi = skewness_phi(DemandMatrix(n=n, cells=cells), active_tors=[0, 2])
        assert phi == pytest.approx(1.0)  # single valid destination each


class TestTraceIO:
    def test_round_trip(self, cfg, tmp_path):
        flows = generate(TrafficSpec("uniform", 0.1, default_mix(), seed=0,
                                     window_s=0.01), cfg)
        path = tmp_path / "trace.csv"
        write_trace(flows, path)
        assert read_trace(path) == flows

    @pytest.mark.parametrize("spec", [
        TrafficSpec("uniform", 0.1, default_mix(), window_s=0.01, seed=0),
        TrafficSpec("skewed", 0.3, default_mix(), window_s=0.01, seed=5),
        TrafficSpec("uniform", 0.0, default_mix()),
    ], ids=["uniform", "skewed", "empty"])
    def test_bytes_match_the_csv_writer(self, cfg, tmp_path, spec):
        flows = generate(spec, cfg)
        write_trace(flows, tmp_path / "got.csv")
        oracle_write_trace(flows, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert read_trace(tmp_path / "got.csv") == flows

    def test_awkward_floats_match_the_csv_writer(self, tmp_path):
        arrivals = [5e-324, 1e-05, 0.1 + 0.2, 1e16, 0.0, 123456789.125]
        flows = FlowTable(range(6), range(1, 7), [2 ** 40 + i for i in range(6)], arrivals,
                          [1] * 6)
        write_trace(flows, tmp_path / "got.csv")
        oracle_write_trace(flows, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert read_trace(tmp_path / "got.csv") == flows

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(path)

    @pytest.mark.parametrize("row, match", [
        ("0.5,3,3,100,small", "coincide"),
        ("0.5,3,4,0,small", "positive"),
        ("0.5,3,4,-7,small", "positive"),
        ("0.5,3,4,1.5,small", "invalid literal"),
        ("0.5,3.0,4,100,small", "invalid literal"),
        ("0.5,3,4,100,huge", "huge"),
        ("0.5,3,4,100", "fields"),
        ("nan,-3,2,100,small", "ToR ids must be >= 0"),
        ("nan,3,2,100,small", "arrival must be finite"),
        ("inf,3,2,100,small", "arrival must be finite"),
        ("-1.0,3,2,100,small", "arrival must be finite and >= 0"),
    ], ids=["self-loop", "zero-size", "negative-size", "fractional-size",
            "fractional-src", "unknown-class", "short-row", "negative-src", "nan-arrival",
            "inf-arrival", "negative-arrival"])
    def test_bad_row_rejected(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRACE_HEADER) + "\n0.0,0,1,5,small\n" + row + "\n")
        with pytest.raises(ValueError, match=match):
            read_trace(path)
