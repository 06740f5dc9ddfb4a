"""Analytic models and a flow-level simulator for hybrid optical fabrics."""

from .model import (
    DemandMatrix,
    Flow,
    FlowClass,
    FlowTable,
    NetworkConfig,
    class_of,
    make_flow,
    validate,
)
from .distributions import FlowSizeDistribution, default_mix
from .topology import (
    ExpanderGraph,
    build_expander,
    expected_path_length,
    mean_expected_path_length,
)
from .traffic import (
    ClassRates,
    TrafficSpec,
    class_rates,
    demand_matrix,
    generate,
    skewness_phi,
    variation_distance,
)
from .analytics import (
    AnalyticsReport,
    cache_capacity_z,
    dct_all_to_all_rotor,
    dct_cache,
    dct_expander,
    dct_hybrid_uniform,
    dct_rotor,
    large_flow_threshold,
    optimal_split,
    report,
    spill_fraction,
    throughput_star,
)
from .simulator import SimResult, run, run_batch

__version__ = "0.1.0"

__all__ = [
    "AnalyticsReport", "ClassRates", "DemandMatrix", "ExpanderGraph", "Flow",
    "FlowClass", "FlowSizeDistribution", "FlowTable", "NetworkConfig", "SimResult",
    "TrafficSpec", "build_expander", "cache_capacity_z", "class_of", "class_rates",
    "dct_all_to_all_rotor", "dct_cache", "dct_expander", "dct_hybrid_uniform",
    "dct_rotor", "default_mix", "demand_matrix", "expected_path_length",
    "generate", "large_flow_threshold", "make_flow",
    "mean_expected_path_length", "optimal_split", "report", "run",
    "run_batch", "skewness_phi", "spill_fraction", "throughput_star",
    "validate", "variation_distance",
]
