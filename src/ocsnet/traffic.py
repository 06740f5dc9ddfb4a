"""Traffic generation, per-class byte rates, and skewness estimation.

Two generation models: every ToR active at load x (uniform), or a
random fraction x of ToRs active at per-ToR load L (skewed). Poisson
flow arrivals are calibrated by byte rate: the per-ToR flow rate is the
target bits/s divided by the mean flow size, so the compound process
carries the intended expected byte rate.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .distributions import FlowSizeDistribution
from .model import (
    FLOW_CLASSES, DemandMatrix, FlowClass, FlowTable, NetworkConfig, class_codes,
)

TRACE_HEADER = ["arrival_s", "src", "dst", "size_bits", "class"]
_CODE_OF_VALUE = {c.value: code for code, c in enumerate(FLOW_CLASSES)}
_TRACE_ROWS = 1024   # rows per write: ~0.25 MB of row text, and no slower than one join


@dataclass(frozen=True)
class TrafficSpec:
    model: str                              # "uniform" | "skewed"
    load_x: float
    distribution: FlowSizeDistribution
    per_tor_rate_L: float = 1.0             # skewed model only
    window_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("uniform", "skewed"):
            raise ValueError(f"unknown traffic model {self.model!r}")
        if not 0.0 <= self.load_x <= 1.0:
            raise ValueError(f"load_x must lie in [0, 1], got {self.load_x}")
        if not 0.0 < self.per_tor_rate_L <= 1.0:
            raise ValueError(f"per_tor_rate_L must lie in (0, 1], got {self.per_tor_rate_L}")
        if not 0.0 < self.window_s < math.inf:
            raise ValueError(f"window_s must be positive and finite, got {self.window_s}")


@dataclass(frozen=True)
class ClassRates:
    """Expected bits/second per ToR carried by each flow class."""

    bits_per_s_small: float
    bits_per_s_medium: float
    bits_per_s_large: float

    @property
    def total(self):
        return self.bits_per_s_small + self.bits_per_s_medium + self.bits_per_s_large


def class_rates(distribution: FlowSizeDistribution, x, config: NetworkConfig) -> ClassRates:
    """Per-ToR byte rates split by class, computed analytically.

    At x=1 the three components sum to k*r.
    """
    base = x * config.k * config.r
    return ClassRates(
        bits_per_s_small=base * distribution.class_byte_fraction(FlowClass.SMALL, config),
        bits_per_s_medium=base * distribution.class_byte_fraction(FlowClass.MEDIUM, config),
        bits_per_s_large=base * distribution.class_byte_fraction(FlowClass.LARGE, config),
    )


def generate(spec: TrafficSpec, config: NetworkConfig) -> FlowTable:
    """Generate one window of flows, sorted by arrival time; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n = config.n
    dist = spec.distribution
    mean_size = dist.mean_size()

    if spec.model == "uniform":
        sources = np.arange(n, dtype=np.int32)
        rate = spec.load_x * config.k * config.r
    else:
        n_active = math.ceil(spec.load_x * n)
        if n_active < 2:
            raise ValueError(
                f"skewed model with x={spec.load_x} activates {n_active} ToRs; "
                "need at least 2 for valid destinations"
            )
        sources = np.sort(rng.choice(n, size=n_active, replace=False)).astype(np.int32)
        rate = spec.per_tor_rate_L * config.k * config.r

    lam = rate / mean_size * spec.window_s
    counts = rng.poisson(lam, size=len(sources))
    total = int(counts.sum())
    src = np.repeat(sources, counts)
    arrivals = rng.uniform(0.0, spec.window_s, size=total)
    # sort by arrival first and reorder each later column as it is drawn, so
    # one column at a time is held out of order; argsort draws nothing
    order = np.argsort(arrivals, kind="stable")
    arrivals, src = arrivals[order], src[order]
    sizes = dist.sample(rng, total)[order]

    # destination uniform over the active ToRs, excluding the source
    offs = rng.integers(1, len(sources), size=total)[order]
    offs += np.searchsorted(sources, src)
    offs %= len(sources)
    dst = sources[offs]
    del order, offs   # before the class codes and the table's checks
    return FlowTable(src, dst, sizes, arrivals, class_codes(sizes, config))


def demand_matrix(flows: FlowTable, n, class_filter=None) -> DemandMatrix:
    """Accumulate flow sizes into an n x n matrix, optionally for one class.

    ``np.add.at`` adds repeated pairs in flow order, so each cell gets the
    same float sum as one ``+=`` per flow.
    """
    flows._require(np.maximum(flows.src, flows.dst) < n, f"ToR ids must be < n = {n}")
    src, dst, sizes = flows.src, flows.dst, flows.size_bits
    if class_filter is not None:
        picked = flows.flow_class == FLOW_CLASSES.index(FlowClass(class_filter))
        src, dst, sizes = src[picked], dst[picked], sizes[picked]
    cells = np.zeros((n, n))
    np.add.at(cells, (src, dst), sizes.astype(float))
    return DemandMatrix(n=n, cells=cells)


def variation_distance(p) -> float:
    """Half the L1 distance of a discrete distribution from uniform."""
    p = np.asarray(p, dtype=float)
    if (p < 0).any():
        raise ValueError("distribution has negative mass")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"distribution must sum to 1, got {p.sum()}")
    return float(0.5 * np.abs(p - 1.0 / len(p)).sum())


def skewness_phi(demand: DemandMatrix, active_tors=None) -> float:
    """Byte-weighted mean over active sources of 1 - variation distance.

    Each source row is normalized over its destination set (all other
    ToRs by default, or ``active_tors`` minus the source under the
    skewed model). Ranges from ~1/n (single-destination rows) to 1
    (perfectly uniform rows).
    """
    cells = demand.cells
    dest_all = np.arange(demand.n) if active_tors is None else np.asarray(sorted(active_tors))
    weights = []
    phis = []
    sources = dest_all if active_tors is not None else np.arange(demand.n)
    for i in sources:
        dests = dest_all[dest_all != i]
        row = cells[i, dests]
        total = row.sum()
        if total <= 0:
            continue
        phis.append(1.0 - variation_distance(row / total))
        weights.append(total)
    if not weights:
        raise ValueError("demand matrix has no traffic on the selected rows")
    return float(np.average(phis, weights=weights))


def write_trace(flows: FlowTable, path):
    """Export flows as CSV ``arrival_s,src,dst,size_bits,class``.

    The rows are the bytes ``csv.writer`` writes: ``\\r\\n`` line ends and
    no field that needs quoting. They are formatted ``_TRACE_ROWS`` at a
    time, so the text and Python values held at once stay bounded.
    """
    values = [c.value for c in FLOW_CLASSES]
    columns = (flows.arrival_s, flows.src, flows.dst, flows.size_bits, flows.flow_class)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for lo in range(0, len(flows), _TRACE_ROWS):
            arrival, src, dst, size, code = (c[lo:lo + _TRACE_ROWS].tolist() for c in columns)
            fh.write("".join(map("{!r},{},{},{},{}\r\n".format, arrival, src, dst, size,
                                 map(values.__getitem__, code))))


def read_trace(path) -> FlowTable:
    """Load a ``write_trace`` CSV; a malformed row raises ValueError.

    Sizes are int64 when every one is an integer literal, as in every trace
    ``generate`` makes, and float64 otherwise, as ``write_trace`` writes
    the sizes of a float table.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != TRACE_HEADER:
            raise ValueError(f"{path}: expected header {','.join(TRACE_HEADER)}")
        rows = [row for row in reader if row]   # a blank line reads as []; skip it
    if any(len(row) != len(TRACE_HEADER) for row in rows):
        raise ValueError(f"{path}: every row needs {len(TRACE_HEADER)} fields")
    arrival, src, dst, size, cls = zip(*rows) if rows else [()] * len(TRACE_HEADER)
    try:
        codes = [_CODE_OF_VALUE[c] for c in cls]
    except KeyError as exc:
        raise ValueError(f"{path}: unknown flow class {exc.args[0]!r}") from None
    try:
        try:
            size = np.array([int(v) for v in size], np.int64)
        except ValueError:
            size = np.array([float(v) for v in size])
        return FlowTable([int(v) for v in src], [int(v) for v in dst], size,
                         [float(v) for v in arrival], codes)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
