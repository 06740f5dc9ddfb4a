#!/usr/bin/env python3
"""ocsnet benchmark: host time of the flow-level simulator on fixed workloads.

    python3 perfbench/run.py --workload hybrid-batch --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each

Run it from the root of a checkout; it imports ``ocsnet`` from ``src/``
there and from nowhere else. An operation (see ``pipeline.py``) is
repeated with the inputs made from ``--seed`` until the next one would
run past ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics from a separate traced operation, with the tracing
overhead, and writes the spans under ``perfbench/_out/``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "_out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
# the workloads BENCHMARK.json lists; the others run only when named
WORKLOADS = ("hybrid-batch", "mix-stream")
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("rotor-relay", "expander-batch", "smoke", "all"))
    p.add_argument("--seed", type=int, default=None,
                   help="traffic and simulator seed (default: the workload file's traffic.seed)")
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measure for about this long (default 55)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this run's fingerprint in fingerprints.json")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ocsnet" / "__init__.py").is_file():
        print(f"error: no ocsnet sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pipeline
    import_s = time.perf_counter() - t0
    if not Path(pipeline.simulator.__file__).resolve().is_relative_to(SRC):
        print(f"error: ocsnet imported from {pipeline.simulator.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    seed = pipeline.default_seed(args.workload) if args.seed is None else args.seed
    if args.setup_probe:
        pipeline.set_up(args.workload, seed)
        print("ready", flush=True)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{seed}.csv"
    measure = measure_traced if args.trace else measure_untraced
    metrics, units, ops, problems, digest = measure(
        pipeline, args.workload, seed, args.seconds, trace_path)
    recorded = _load_fingerprints().get(args.workload, {}).get(str(seed))
    if args.trace:
        metrics["setup.import_s"] = import_s
        metrics["simulator.records_sha256_48"] = int(digest[:12], 16)
        metrics["simulator.fingerprint_match"] = (
            -1 if recorded is None else int(recorded == digest))
    if args.record:
        _store_fingerprint(args.workload, seed, digest)

    failed = sum(1 for p in problems if p)
    print(f"{args.workload} seed {seed}: {ops} operation(s), {failed} failed")
    for i, plist in enumerate(problems):
        for problem in plist:
            print(f"  FAILED operation {i}: {problem}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r:>24} {units[name]}")
    if recorded is None:
        verdict = "no fingerprint recorded for this seed"
    elif recorded == digest:
        verdict = "matches the recorded fingerprint"
    else:
        verdict = f"DIFFERS from the recorded fingerprint {recorded}"
    print(f"  simulated-result fingerprint {digest}: {verdict}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _check_determinism(pipeline, op, digests):
    """Append the operation's fingerprint; a problem if it differs from the first."""
    digests.append(pipeline.fingerprint(op.result))
    if digests[-1] != digests[0]:
        return [f"not deterministic: fingerprint {digests[-1]} != {digests[0]} of operation 0"]
    return []


def repeat(seconds, step):
    """Call ``step`` until the next call would likely run past ``seconds``; at least once."""
    start, durations = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def measure_untraced(pipeline, name, seed, seconds, trace_path):
    setup_s = statistics.median(probe_setup(name, seed) for _ in range(SETUP_PROBES))
    setup = pipeline.set_up(name, seed)
    walls, rates, problems, digests = [], [], [], []

    def step():
        gc.collect()  # the previous operation's garbage is not this one's cost
        op = pipeline.run_op(setup, seed, trace_path)
        extra = _check_determinism(pipeline, op, digests)
        walls.append(op.wall_s)
        rates.append(len(op.flows) / op.wall_s)
        problems.append(op.problems + extra)

    repeat(seconds, step)
    failed = sum(1 for p in problems if p)
    metrics = {
        "wall_s": statistics.median(walls),
        "flows_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "passed_frac": 1 - failed / len(walls),
    }
    return metrics, pipeline.END_TO_END, len(walls), problems, digests[0]


def measure_traced(pipeline, name, seed, seconds, trace_path):
    """Repeat (untraced, audit-off, traced) operations; times are medians over repeats."""
    tracer = pipeline.Tracer()
    tracer.op = "setup"
    setup = pipeline.set_up(name, seed, tracer)
    setup_layers = {pipeline.SPAN_METRICS[s["name"]]: s["end"] - s["start"]
                    for s in tracer.spans}
    samples, problems, digests, last = [], [], [], {}

    def step():
        last.clear()  # nothing of the previous operation stays alive while this one runs
        gc.collect()
        plain = pipeline.run_op(setup, seed, trace_path)
        _, audit_off_s = pipeline.simulate(setup, plain.flows, seed, audit=False)
        plain_wall, plain_run_s, plain_problems = plain.wall_s, plain.run_s, plain.problems
        del plain
        gc.collect()
        tracer.op = len(samples)
        counts = Counter()
        with pipeline.count_events(counts):
            op = pipeline.run_op(setup, seed, trace_path, tracer)
        extra = _check_determinism(pipeline, op, digests)
        problems.append(plain_problems + op.problems + extra)
        sample = {pipeline.SPAN_METRICS[k]: v for k, v in tracer.seconds(tracer.op).items()
                  if k in pipeline.SPAN_METRICS}
        sample["simulator.audit_s"] = plain_run_s - audit_off_s
        sample["trace.overhead_s"] = op.wall_s - plain_wall
        samples.append(sample)
        last.update(op=op, counts=counts)

    repeat(seconds, step)
    _write_spans(tracer, name, seed)

    metrics = dict(setup_layers)
    for key in samples[0]:
        metrics[key] = statistics.median(s[key] for s in samples)
    counts = last["counts"]
    metrics["simulator.events"] = sum(counts.values())
    for kind in pipeline.EVENT_KINDS:
        metrics[f"simulator.events.{kind}"] = counts[kind]
    metrics["simulator.s_per_event"] = metrics["simulator.run_s"] / max(
        metrics["simulator.events"], 1)
    metrics.update(pipeline.simulated_stats(setup, last["op"]))
    # layers a workload does not use (an expander-free network, say) read 0
    return ({k: metrics.get(k, 0) for k in pipeline.PER_LAYER}, pipeline.PER_LAYER,
            len(samples), problems, digests[0])


def probe_setup(name, seed) -> float:
    """Seconds from starting a fresh interpreter until the workload is set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: exit {proc.returncode}, output {line!r}")
    return elapsed


def _write_spans(tracer, name, seed):
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps(tracer.spans, indent=0))


def _load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}


def _store_fingerprint(name, seed, digest):
    table = _load_fingerprints()
    table.setdefault(name, {})[str(seed)] = digest
    table = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0])))
             for w, s in sorted(table.items())}
    FINGERPRINTS.write_text(json.dumps(table, indent=2) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    status, rows = 0, []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.record:
            cmd.append("--record")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, result))
    if args.trace == 0:
        print("\nworkload          " + "".join(f"{m:>22}" for m in
                                               ("wall_s", "flows_per_s", "peak_rss_mb",
                                                "setup_s", "failed_frac")))
        for name, result in rows:
            m = result["metrics"]
            cells = [f"{m[k]['value']:.4f} {m[k]['unit']}"
                     for k in ("wall_s", "flows_per_s", "peak_rss_mb", "setup_s")]
            cells.append(f"{result['failed'] / result['attempted']:.4f} frac")
            print(f"{name:18s}" + "".join(f"{c:>22}" for c in cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
