"""Batch command-line front end.

Verbs: ``analyze`` (closed-form sweeps), ``simulate`` (traffic generation
plus flow-level simulation with an analytic comparison column), and the
single-value helpers ``split``, ``threshold``, ``epl``. All outputs are
deterministic CSV with fixed headers.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
import os

import click
import numpy as np

from . import analytics, config_io, simulator, topology, traffic
from .model import FlowClass, validate

ANALYZE_HEADER = [
    "x", "phi", "phi_m", "dct_expander_s", "dct_rotor_s", "dct_hybrid_s",
    "k_r_star", "k_c_star", "L_star_expander", "L_star_rotor", "L_star_hybrid",
    "large_threshold_bits", "z",
]
SIMULATE_HEADER = ["x", "seed", "dct_sim_s", "dct_analytic_s", "rel_err", "spill_count"]

SWEEP_VARS = ("load_x", "phi", "k_c")


def parse_sweep(text):
    """``var=start:stop:step`` -> (var, inclusive grid)."""
    try:
        var, rng = text.split("=", 1)
        start, stop, step = (float(v) for v in rng.split(":"))
    except ValueError:
        raise click.BadParameter(
            f"expected var=start:stop:step, got {text!r}") from None
    if var not in SWEEP_VARS:
        raise click.BadParameter(f"sweep variable must be one of {SWEEP_VARS}")
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise click.BadParameter("need finite values, step > 0 and stop >= start")
    grid = [round(float(v), 12) for v in np.arange(start, stop + step / 2, step)]
    if var == "k_c" and not all(v.is_integer() for v in grid):
        raise click.BadParameter(f"k_c takes whole switch counts, got {grid}")
    return var, grid


@contextlib.contextmanager
def _errors_as_one_line():
    """A ValueError inside becomes one ``Error:`` line and exit status 1."""
    try:
        yield
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None


def _load(config_path, profile):
    """The merged config mapping, its validated network and its traffic spec."""
    with _errors_as_one_line():
        mapping = config_io.load_config(config_path, profile=profile)
        return mapping, config_io.network_config(mapping), config_io.traffic_spec(mapping)


def _fmt(v):
    if isinstance(v, float):
        return "inf" if math.isinf(v) else repr(round(v, 12))
    return v


_config_opts = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="Dotted-key configuration file."),
    click.option("--profile", default="paper-numeric",
                 type=click.Choice(sorted(config_io.PROFILES)),
                 help="Preset parameter profile."),
]


def config_options(fn):
    for opt in reversed(_config_opts):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Analytic and simulated completion times for hybrid optical fabrics."""


@main.command()
@config_options
@click.option("--sweep", default="load_x=0.1:0.9:0.1", show_default=True)
@click.option("--seeds", type=click.IntRange(min=1), default=3, show_default=True,
              help="Expander samples averaged for the path-length estimate.")
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
def analyze(config_path, profile, sweep, seeds, out_dir):
    """Evaluate the closed forms over a parameter sweep; writes analyze.csv."""
    mapping, config, spec = _load(config_path, profile)
    dist = spec.distribution
    var, grid = parse_sweep(sweep)
    epl_of = {}  # degree k -> its expanders' mean path length; k moves along k_c
    with _errors_as_one_line():  # a disconnected sample or a non-numeric phi
        epl_static = (topology.mean_expected_path_length(config.n, config.k_s, range(seeds))
                      if config.k_s else None)
        phi = float(mapping.get("traffic.phi", 1.0))
        phi_m = float(mapping.get("traffic.phi_m", phi))

    rows = []
    for value in grid:
        x, p, pm, cfg = spec.load_x, phi, phi_m, config
        try:
            if var == "load_x":
                x = value
            elif var == "phi":
                p = pm = value
            else:  # k_c
                cfg = validate(dataclasses.replace(config, k_c=int(value)))
            if cfg.k not in epl_of:
                epl_of[cfg.k] = topology.mean_expected_path_length(cfg.n, cfg.k, range(seeds))
            rep = analytics.report(x, p, pm, dist, cfg, epl_of[cfg.k], epl_static)
        except ValueError as exc:
            raise click.ClickException(f"grid point {var}={value}: {exc}")
        if math.isnan(rep.dct_hybrid_s):
            _warn_missing_switches(f"{var}={value}", dist, cfg,
                                   (rep.k_r_star, rep.k_c_star), "dct_hybrid_s is")
        rows.append([_fmt(getattr(rep, col)) for col in ANALYZE_HEADER])

    path = _write_csv(out_dir, "analyze.csv", ANALYZE_HEADER, rows)
    click.echo(f"wrote {len(rows)} rows to {path}")


@main.command()
@config_options
@click.option("--sweep", default="load_x=0.2:0.6:0.2", show_default=True)
@click.option("--seeds", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@click.option("--horizon", "horizon_s", type=float, default=None,
              help="Abort marker time for non-draining runs, in seconds.")
def simulate(config_path, profile, sweep, seeds, out_dir, horizon_s):
    """Generate traffic, simulate each grid point x seed, compare to the model."""
    _, config, base = _load(config_path, profile)
    var, grid = parse_sweep(sweep)
    if var != "load_x":
        raise click.ClickException("simulate sweeps the load only (load_x)")
    if horizon_s is not None and not horizon_s >= 0:
        raise click.BadParameter(f"must be >= 0, got {horizon_s}", param_hint="'--horizon'")
    if config.k_s == config.k_r == 0:
        for cls in (FlowClass.SMALL, FlowClass.MEDIUM):
            if base.distribution.class_byte_fraction(cls, config) > 0:
                raise click.ClickException(
                    f"no plane available for {cls.value} flows (k_s = k_r = 0)")
    epl_graph = topology.build_expander(config.n, config.k_s, 0) if config.k_s else None
    with _errors_as_one_line():  # a disconnected sample
        epl = topology.expected_path_length(epl_graph) if epl_graph is not None else None
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for x in grid:
        for seed in range(base.seed, base.seed + seeds):
            try:
                spec = dataclasses.replace(base, load_x=x, seed=seed)
                flows = traffic.generate(spec, config)
            except ValueError as exc:
                raise click.ClickException(f"grid point load_x={x}: {exc}")
            tag = f"x{x:g}_seed{seed}"
            traffic.write_trace(flows, os.path.join(out_dir, f"trace_{tag}.csv"))
            result = simulator.run_batch(config, flows, seed=seed,
                                         expander=epl_graph, horizon_s=horizon_s)
            _write_csv(out_dir, f"flows_{tag}.csv", simulator.RESULT_HEADER,
                       ([rec.flow_id, _fmt(rec.arrival_s), _fmt(rec.completion_s),
                         rec.plane, rec.hops] for rec in result.records))
            ana = _analytic_dct(config, spec.distribution, flows, x, epl) * spec.window_s
            rel = (result.dct_s - ana) / ana if ana > 0 else math.nan
            rows.append([_fmt(x), seed, _fmt(result.dct_s), _fmt(ana),
                         _fmt(rel) if result.completed else "did-not-complete",
                         result.spill_count])
            del flows, result   # the next point's run needs none of this one's per-flow state

    path = _write_csv(out_dir, "simulate.csv", SIMULATE_HEADER, rows)
    click.echo(f"wrote {len(rows)} rows to {path}")


def _analytic_dct(config, dist, flows, x, epl):
    """Model prediction matching the configured switch mix, per second of
    demand; ``epl`` is the expander's mean path length (None without one)."""
    if not flows:
        return 0.0
    if config.k_r > 0 and config.k_s == 0 and config.k_c == 0:
        demand = traffic.demand_matrix(flows, config.n)
        return analytics.dct_rotor(x, traffic.skewness_phi(demand), config)
    if config.k_s > 0 and config.k_r == 0 and config.k_c == 0:
        return analytics.dct_expander(x, epl)
    # the simulator serves each class on the switches actually configured; a
    # class whose switch type is absent goes to another plane, for which the
    # closed form has no term
    split = (config.k_r, config.k_c)
    if _warn_missing_switches(f"x={x:g}", dist, config, split,
                              "dct_analytic_s and rel_err are"):
        return math.nan
    try:
        demand_m = traffic.demand_matrix(flows, config.n, class_filter="medium")
        phi_m = traffic.skewness_phi(demand_m)
    except ValueError:
        phi_m = 1.0
    return analytics.dct_hybrid_uniform(x, dist, phi_m, config, epl=epl, split=split)


def _warn_missing_switches(where, dist, config, split, nan_columns):
    """Name on stderr each switch type that ``split`` lacks for a flow class
    with bytes (``analytics.missing_switches``); true if there is one."""
    missing = analytics.missing_switches(dist, config, split)
    for name, cls in missing:
        click.echo(f"{where}: {name} switches required to serve {cls.value} flows, "
                   f"got 0; {nan_columns} nan", err=True)
    return bool(missing)


@main.command()
@config_options
@click.option("-x", "--load-x", type=click.FloatRange(0, 1), default=0.5, show_default=True)
@click.option("--phi-m", type=click.FloatRange(0, 1), default=1.0, show_default=True)
def split(config_path, profile, load_x, phi_m):
    """Optimal rotor/demand-aware division of the dynamic switches."""
    _, config, spec = _load(config_path, profile)
    with _errors_as_one_line():
        k_r, k_c = analytics.optimal_split(spec.distribution, load_x, phi_m, config)
    click.echo(f"x={load_x} phi_m={phi_m} dynamic={config.k - config.k_s} "
               f"-> k_r_star={k_r} k_c_star={k_c}")


@main.command()
@config_options
@click.option("--phi", type=click.FloatRange(0, 1), default=0.0, show_default=True)
def threshold(config_path, profile, phi):
    """Large-flow size threshold at the given skewness."""
    _, config, _ = _load(config_path, profile)
    with _errors_as_one_line():
        bits = analytics.large_flow_threshold(phi, config)
    click.echo(f"phi={phi} medium_bits={config.medium_threshold_bits:g} "
               f"-> large_threshold={bits:g} bits = {bits / 8e6:g} MB")


@main.command()
@click.option("-n", "--tors", "n", type=click.IntRange(min=2), default=256, show_default=True)
@click.option("-k", "--degree", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--seeds", type=click.IntRange(min=1), default=10, show_default=True)
def epl(n, degree, seeds):
    """Mean shortest-path length of random regular expanders."""
    with _errors_as_one_line():  # a disconnected sample
        value = topology.mean_expected_path_length(n, degree, range(seeds))
    click.echo(f"n={n} degree={degree} seeds={seeds} -> epl={value:.4f}")


def _write_csv(out_dir, name, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


if __name__ == "__main__":
    main()
