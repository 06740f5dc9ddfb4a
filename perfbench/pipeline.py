"""One benchmark operation on the ocsnet library, its checks and its statistics.

An operation is one grid point of what ``ocsnet simulate`` does:
``traffic.generate`` -> ``traffic.write_trace`` -> ``simulator.run_batch``
(or ``simulator.run`` for a streaming workload) -> closed-form comparison
-> checks. Only the library's public API is called, so a change inside a
module needs no change here.

Spans are recorded from this file, around the calls into each module, and
only when a ``Tracer`` is passed in; event counts come from wrapping the
public ``Simulator.schedule``.
"""
from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ocsnet import analytics, config_io, simulator, topology, traffic

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"
PLANES = ("rotor", "cache", "expander")
FLOW_CLASSES = ("small", "medium", "large")
EVENT_KINDS = ("arrival", "rotor_slot", "cache_done", "expander")
MODES = ("batch", "stream")
CHECK_KINDS = ("none", "rotor-oracle", "hybrid-bound")

END_TO_END = {
    "wall_s": "s",
    "flows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_frac": "frac",
}
# span name -> per-layer metric
SPAN_METRICS = {
    "config_io.load": "config_io.load_s",
    "topology.build_expander": "topology.build_expander_s",
    "topology.expected_path_length": "topology.epl_s",
    "traffic.generate": "traffic.generate_s",
    "traffic.write_trace": "traffic.write_trace_s",
    "traffic.skewness": "traffic.skewness_s",
    "simulator.run_batch": "simulator.run_s",
    "simulator.run": "simulator.run_s",
    "analytics.closed_form": "analytics.closed_form_s",
}
PER_LAYER = {
    "setup.import_s": "s",
    "config_io.load_s": "s",
    "topology.build_expander_s": "s",
    "topology.epl_s": "s",
    "traffic.generate_s": "s",
    "traffic.write_trace_s": "s",
    "traffic.skewness_s": "s",
    "traffic.flows": "count",
    **{f"traffic.flows.{c}": "count" for c in FLOW_CLASSES},
    "simulator.run_s": "s",
    "simulator.events": "count",
    **{f"simulator.events.{k}": "count" for k in EVENT_KINDS},
    "simulator.s_per_event": "s",
    "simulator.audit_s": "s",
    "simulator.dct_s": "s",
    "simulator.spills": "count",
    **{f"simulator.records.{p}": "count" for p in PLANES},
    **{f"simulator.bits.{p}": "bit" for p in PLANES},
    **{f"simulator.plane_bits.{p}": "bit" for p in PLANES},
    "simulator.rotor.relayed_frac": "frac",
    "simulator.expander.mean_hops": "hops",
    "simulator.cache.wait_p50_s": "s",
    "simulator.cache.wait_p99_s": "s",
    "simulator.records_sha256_48": "hash",
    "simulator.fingerprint_match": "flag",
    "analytics.closed_form_s": "s",
    "analytics.sim_over_model": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span index and operation id."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._open[-1] if self._open else None,
                           "op": self.op})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def seconds(self, op):
        """Total span seconds by name for one operation id."""
        out = Counter()
        for s in self.spans:
            if s["op"] == op:
                out[s["name"]] += s["end"] - s["start"]
        return out


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


@contextmanager
def count_events(counts: Counter):
    """Count every event scheduled through ``Simulator.schedule``, by kind."""
    original = simulator.Simulator.schedule

    @functools.wraps(original)
    def schedule(self, t, kind, payload):
        counts[kind] += 1
        return original(self, t, kind, payload)

    simulator.Simulator.schedule = schedule
    try:
        yield counts
    finally:
        simulator.Simulator.schedule = original


@dataclass(frozen=True)
class Setup:
    """A loaded workload: what a user pays for before the first flow exists."""

    mode: str
    check: str
    config: object
    spec: object
    graph: object
    epl: float | None


def workload_path(name) -> Path:
    path = WORKLOAD_DIR / f"{name}.conf"
    if not path.is_file():
        raise ValueError(f"unknown workload {name!r}: no file {path}")
    return path


def default_seed(name) -> int:
    return int(config_io.parse_config_text(workload_path(name).read_text())["traffic.seed"])


def set_up(name, seed, tracer=None) -> Setup:
    """Load and validate the workload config and build the expander it needs."""
    with _span(tracer, "config_io.load"):
        mapping = config_io.load_config(workload_path(name))
        config = config_io.network_config(mapping)
        spec = config_io.traffic_spec(mapping, seed=seed)
    mode = mapping.get("bench.mode")
    check = mapping.get("bench.check")
    if mode not in MODES or check not in CHECK_KINDS:
        raise ValueError(f"{name}: bench.mode must be one of {MODES} and bench.check "
                         f"one of {CHECK_KINDS}, got {mode!r} and {check!r}")
    graph = epl = None
    if config.k_s:
        # the same fixed topology ``ocsnet simulate`` builds: expander seed 0
        with _span(tracer, "topology.build_expander"):
            graph = topology.build_expander(config.n, config.k_s, 0)
        with _span(tracer, "topology.expected_path_length"):
            epl = topology.expected_path_length(graph)
    return Setup(mode, check, config, spec, graph, epl)


@dataclass
class Operation:
    flows: list
    result: object
    analytic_s: float
    wall_s: float
    run_s: float
    problems: list


def simulate(setup: Setup, flows, seed, audit=True, tracer=None):
    """Run the simulator the workload names; returns (result, host seconds)."""
    fn = simulator.run if setup.mode == "stream" else simulator.run_batch
    with _span(tracer, f"simulator.{fn.__name__}"):
        t0 = time.perf_counter()
        result = fn(setup.config, flows, seed=seed, expander=setup.graph, audit=audit)
        return result, time.perf_counter() - t0


def closed_form(setup: Setup, flows, tracer=None) -> float:
    """Model DCT for the configured switch mix, in seconds of the window.

    The model choice is the one ``ocsnet simulate`` makes for its
    ``dct_analytic_s`` column.
    """
    cfg, spec = setup.config, setup.spec
    if cfg.k_r and not cfg.k_s and not cfg.k_c:
        with _span(tracer, "traffic.skewness"):
            phi = traffic.skewness_phi(traffic.demand_matrix(flows, cfg.n))
        with _span(tracer, "analytics.closed_form"):
            per_s = analytics.dct_rotor(spec.load_x, phi, cfg)
    elif cfg.k_s and not cfg.k_r and not cfg.k_c:
        with _span(tracer, "analytics.closed_form"):
            per_s = analytics.dct_expander(spec.load_x, setup.epl)
    else:
        with _span(tracer, "traffic.skewness"):
            try:
                phi_m = traffic.skewness_phi(
                    traffic.demand_matrix(flows, cfg.n, class_filter="medium"))
            except ValueError:  # no medium flows
                phi_m = 1.0
        with _span(tracer, "analytics.closed_form"):
            per_s = analytics.dct_hybrid_uniform(
                spec.load_x, spec.distribution, phi_m, cfg, epl=setup.epl,
                split=(cfg.k_r, cfg.k_c))
    return per_s * spec.window_s


def check(kind, n_flows, result, analytic_s) -> list[str]:
    """Every way the operation's result can be wrong; empty when it is right.

    Comparisons are written so that a NaN fails them.
    """
    problems = []
    if not result.completed:
        problems.append("simulation did not complete")
    if len(result.records) != n_flows:
        problems.append(f"{len(result.records)} records for {n_flows} flows")
    gap = abs(result.delivered_bits - result.injected_bits)
    if not gap <= 1e-9 * result.injected_bits:
        problems.append(f"delivered {result.delivered_bits!r} bits of "
                        f"{result.injected_bits!r} injected")
    sim = result.dct_s
    if kind == "rotor-oracle":
        # acceptance criterion 5
        rel = (sim - analytic_s) / analytic_s
        if not (abs(rel) <= 0.15 and sim >= 0.99 * analytic_s):
            problems.append(f"rotor oracle: sim {sim!r} s vs analytic {analytic_s!r} s "
                            f"(rel {rel:+.4f}; want |rel| <= 0.15, sim >= 0.99 analytic)")
    elif kind == "hybrid-bound":
        # acceptance criterion 9
        if not sim <= 1.1 * analytic_s:
            problems.append(f"hybrid bound: sim {sim!r} s > 1.1 x bound {analytic_s!r} s")
    return problems


def run_op(setup: Setup, seed, trace_path, tracer=None) -> Operation:
    """One timed operation, from traffic generation through the checks."""
    t0 = time.perf_counter()
    with _span(tracer, "operation"):
        with _span(tracer, "traffic.generate"):
            flows = traffic.generate(setup.spec, setup.config)
        with _span(tracer, "traffic.write_trace"):
            traffic.write_trace(flows, trace_path)
        result, run_s = simulate(setup, flows, seed, tracer=tracer)
        analytic_s = closed_form(setup, flows, tracer)
        with _span(tracer, "checks"):
            problems = check(setup.check, len(flows), result, analytic_s)
    return Operation(flows, result, analytic_s, time.perf_counter() - t0, run_s, problems)


def _record_arrays(result):
    recs = result.records
    n = len(recs)
    plane_code = {p: i for i, p in enumerate(PLANES)}
    return (np.fromiter((r.flow_id for r in recs), np.int64, n),
            np.fromiter((r.arrival_s for r in recs), np.float64, n),
            np.fromiter((r.completion_s for r in recs), np.float64, n),
            np.fromiter((plane_code[r.plane] for r in recs), np.int8, n),
            np.fromiter((r.hops for r in recs), np.int64, n))


def fingerprint(result) -> str:
    """sha256 over every record, bit for bit, plus the DCT and spill count."""
    h = hashlib.sha256()
    for column in _record_arrays(result):
        h.update(column.tobytes())
    h.update(f"dct={result.dct_s!r};spills={result.spill_count}".encode())
    return h.hexdigest()


def simulated_stats(setup: Setup, op: Operation) -> dict:
    """Simulated statistics of one operation; identical for identical results."""
    flows, result = op.flows, op.result
    fid, arrival, completion, plane, hops = _record_arrays(result)
    sizes = np.fromiter((f.size_bits for f in flows), np.float64, len(flows))[fid]
    classes = Counter(f.flow_class.value for f in flows)
    out = {"traffic.flows": len(flows)}
    out.update({f"traffic.flows.{c}": classes[c] for c in FLOW_CLASSES})
    out["simulator.dct_s"] = result.dct_s
    out["simulator.spills"] = result.spill_count
    for code, p in enumerate(PLANES):
        on = plane == code
        out[f"simulator.records.{p}"] = int(on.sum())
        out[f"simulator.bits.{p}"] = float(sizes[on].sum())
        out[f"simulator.plane_bits.{p}"] = float(result.plane_bits.get(p, 0.0))
    rotor = plane == PLANES.index("rotor")
    rotor_bits = sizes[rotor].sum()
    # share of rotor bits in flows whose (src, dst) pair used two-hop relaying
    out["simulator.rotor.relayed_frac"] = (
        float(sizes[rotor & (hops == 2)].sum() / rotor_bits) if rotor_bits else 0.0)
    expander = plane == PLANES.index("expander")
    out["simulator.expander.mean_hops"] = float(hops[expander].mean()) if expander.any() else 0.0
    cache = plane == PLANES.index("cache")
    cfg = setup.config
    # time a large flow queued for a port: completion less reconfiguration and transmission
    wait = completion[cache] - arrival[cache] - cfg.R_c - sizes[cache] / cfg.r
    p50, p99 = np.percentile(wait, [50, 99]) if wait.size else (0.0, 0.0)
    out["simulator.cache.wait_p50_s"] = float(p50)
    out["simulator.cache.wait_p99_s"] = float(p99)
    out["analytics.sim_over_model"] = (
        result.dct_s / op.analytic_s if op.analytic_s > 0 else 0.0)
    return out
