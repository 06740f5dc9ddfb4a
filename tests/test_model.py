import math

import pytest
from hypothesis import given, strategies as st

import numpy as np

from ocsnet.model import (
    FLOW_CLASSES, DemandMatrix, Flow, FlowClass, FlowTable, NetworkConfig, class_codes,
    class_of, make_flow, validate,
)


def base_config(**kw):
    args = dict(n=256, k_s=5, k_r=16, k_c=16,
                r=10e9, delta=100e-6, R_r=10e-6, R_c=15e-3)
    args.update(kw)
    return NetworkConfig(**args)


class TestValidate:
    def test_fills_medium_threshold_slot_full(self):
        cfg = validate(base_config())
        assert cfg.medium_threshold_bits == pytest.approx(1e6, rel=1e-12)

    def test_medium_threshold_at_40gbps(self):
        cfg = validate(base_config(r=40e9))
        assert cfg.medium_threshold_bits == pytest.approx(4e6, rel=1e-12)

    def test_fills_large_threshold_at_phi_zero(self):
        cfg = validate(base_config())
        assert cfg.large_threshold_bits == pytest.approx(1.25e8, rel=1e-9)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="k >= 1"):
            validate(base_config(k_s=0, k_r=0, k_c=0))

    def test_too_few_tors_rejected(self):
        with pytest.raises(ValueError, match="n"):
            validate(base_config(n=1))

    def test_negative_switch_count_rejected(self):
        with pytest.raises(ValueError, match="k_r"):
            validate(base_config(k_r=-1))

    def test_rotor_reconfig_may_not_exceed_cache_reconfig(self):
        with pytest.raises(ValueError, match="R_r"):
            validate(base_config(R_r=0.02, R_c=0.015))

    def test_comparable_reconfig_times_warn(self):
        with pytest.warns(UserWarning, match="R_r"):
            validate(base_config(R_r=0.002, R_c=0.015, large_threshold_bits=1e9))

    def test_all_flows_medium_advisory(self):
        # slot capacity exceeds what a reconfigured link could ever win back
        with pytest.raises(ValueError, match="all flows would be medium"):
            validate(base_config(medium_threshold_bits=1e9))

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="below"):
            validate(base_config(medium_threshold_bits=2e8,
                                 large_threshold_bits=1e8))

    def test_idempotent(self):
        cfg = validate(base_config())
        assert validate(cfg) == cfg

    @pytest.mark.parametrize("field", ["r", "delta", "R_r", "R_c", "medium_threshold_bits"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            validate(base_config(**{field: value}))

    def test_nan_large_threshold_rejected(self):
        with pytest.raises(ValueError, match="^large_threshold_bits must be a number"):
            validate(base_config(large_threshold_bits=math.nan))

    def test_infinite_large_threshold_allowed(self):
        assert validate(base_config(large_threshold_bits=math.inf)).large_threshold_bits \
            == math.inf


class TestClassOf:
    def test_below_medium_is_small(self):
        cfg = validate(base_config())
        assert class_of(0.5e6, cfg) is FlowClass.SMALL

    def test_boundary_at_medium_is_medium(self):
        cfg = validate(base_config())
        assert class_of(1e6, cfg) is FlowClass.MEDIUM

    def test_boundary_at_large_is_large(self):
        cfg = validate(base_config(large_threshold_bits=1e9))
        assert class_of(1e9, cfg) is FlowClass.LARGE  # 125 MB at the 125 MB cut

    def test_one_bit_below_a_threshold_is_the_lower_class(self):
        cfg = validate(base_config(large_threshold_bits=1e9))
        assert class_of(1e6 - 1, cfg) is FlowClass.SMALL
        assert class_of(1e9 - 1, cfg) is FlowClass.MEDIUM

    def test_codes_of_many_sizes_are_the_classes_of_each(self):
        cfg = validate(base_config(large_threshold_bits=1e9))
        sizes = [1, 1e6 - 1, 1e6, 1e9 - 1, 1e9, 3e9]
        assert [FLOW_CLASSES[c] for c in class_codes(np.array(sizes), cfg)] == [
            class_of(size, cfg) for size in sizes]

    def test_nonpositive_size_rejected(self):
        cfg = validate(base_config())
        with pytest.raises(ValueError):
            class_of(0, cfg)

    @given(st.floats(min_value=1.0, max_value=1e12),
           st.floats(min_value=1.0, max_value=1e12))
    def test_monotone_in_size(self, a, b):
        cfg = validate(base_config())
        lo, hi = sorted((a, b))
        order = [FlowClass.SMALL, FlowClass.MEDIUM, FlowClass.LARGE]
        assert order.index(class_of(lo, cfg)) <= order.index(class_of(hi, cfg))

    @given(st.floats(min_value=1.0, max_value=1e15))
    def test_total_function(self, size):
        cfg = validate(base_config())
        assert class_of(size, cfg) in FlowClass


class TestFlow:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Flow(3, 3, 100, 0.0, FlowClass.SMALL)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, 1, 0, 0.0, FlowClass.SMALL)

    def test_make_flow_classifies(self):
        cfg = validate(base_config())
        assert make_flow(0, 1, 2e6, 0.0, cfg).flow_class is FlowClass.MEDIUM


class TestFlowTable:
    FLOWS = [Flow(0, 1, 100, 0.5, FlowClass.SMALL), Flow(2, 0, 7, 0.25, FlowClass.LARGE),
             Flow(1, 3, 2.5, 0.0, FlowClass.MEDIUM)]

    def test_of_keeps_rows_and_a_fractional_size_exact(self):
        table = FlowTable.of(self.FLOWS)
        assert len(table) == 3
        assert list(table) == self.FLOWS
        assert table.size_bits.tolist() == [100.0, 7.0, 2.5]
        assert [table[i] for i in range(-3, 0)] == self.FLOWS
        assert table.src.dtype == table.dst.dtype == np.int32
        assert table.flow_class.tolist() == [0, 2, 1]

    def test_columns_are_read_only(self):
        table = FlowTable.of(self.FLOWS)
        with pytest.raises(ValueError, match="read-only"):
            table.dst[0] = table.src[0]
        with pytest.raises(ValueError, match="read-only"):
            table[:2].size_bits[1] = 0

    def test_of_a_table_is_the_table(self):
        table = FlowTable.of(self.FLOWS)
        assert FlowTable.of(table) is table

    def test_of_nothing_is_an_empty_table(self):
        table = FlowTable.of([])
        assert len(table) == 0 and list(table) == []
        assert table.size_bits.dtype == np.int64

    def test_slice_is_a_table(self):
        table = FlowTable.of(self.FLOWS)
        assert table[1:] == FlowTable.of(self.FLOWS[1:])
        assert list(table[::-1]) == self.FLOWS[::-1]
        assert len(table[5:]) == 0

    def test_equality_compares_columns_and_dtypes(self):
        ints = [Flow(0, 1, 100, 0.5, FlowClass.SMALL), Flow(2, 0, 7, 0.25, FlowClass.LARGE)]
        table = FlowTable.of(ints)
        assert table == FlowTable.of(list(ints))
        assert table != FlowTable.of(ints[:1])
        assert table != FlowTable.of([ints[0], Flow(2, 0, 7, 0.5, FlowClass.LARGE)])
        as_floats = FlowTable(table.src, table.dst, table.size_bits.astype(float),
                              table.arrival_s, table.flow_class)
        assert list(as_floats) == ints and as_floats != table
        assert table != ints

    @pytest.mark.parametrize("columns, match", [
        (([0, 1], [1, 1], [5, 5], [0.0, 0.0], [0, 0]), "coincide"),
        (([0, 1], [1, 0], [5, 0], [0.0, 0.0], [0, 0]), "positive"),
        (([0, 1], [1, 0], [5, -2.5], [0.0, 0.0], [0, 0]), "positive"),
        (([0, 1], [1, 0], [5, 5], [0.0], [0, 0]), "equal length"),
        (([0, 1], [1, 0], [5, 5], [0.0, 0.0], [0, 3]), "class codes"),
        (([[0, 1]], [[1, 0]], [[5, 5]], [[0.0, 0.0]], [[0, 0]]), "1-D"),
    ])
    def test_checks_flow_invariants(self, columns, match):
        with pytest.raises(ValueError, match=match):
            FlowTable(*columns)


class TestDemandMatrix:
    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            DemandMatrix(n=2, cells=np.eye(2))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DemandMatrix(n=2, cells=np.array([[0.0, -1.0], [0.0, 0.0]]))
