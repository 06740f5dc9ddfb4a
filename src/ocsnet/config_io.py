"""Flat dotted-key configuration files, human units, and preset profiles.

Grammar: one ``section.key = value`` per line; ``#`` starts a comment;
values are integers, floats, or (optionally quoted) strings. The last
underscore-separated token of a key may name a unit (``_us``, ``_ms``,
``_gbps``, ``_mbit``, ``_mb``, ...) and is converted to the internal
base units (seconds, bits, bits/s) when the config is materialized.

Two presets ship: ``paper-numeric`` (10 Gbps links, the rate all the
worked threshold numbers assume) and ``paper-table1`` (40 Gbps links).
"""
from __future__ import annotations

import re

from .distributions import FlowSizeDistribution, default_mix
from .model import NetworkConfig, validate
from .traffic import TrafficSpec

# multiplier to the base unit (seconds / bits / bits-per-second)
UNIT_FACTORS = {
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "bits": 1.0, "kbit": 1e3, "mbit": 1e6, "gbit": 1e9,
    "b": 8.0, "kb": 8e3, "mb": 8e6, "gb": 8e9,        # bytes
    "bps": 1.0, "mbps": 1e6, "gbps": 1e9,
}

_LINE = re.compile(r"^\s*([A-Za-z0-9_.]+)\s*=\s*(.+?)\s*$")


def convert(value, unit):
    """Scale a number in the named human unit to base units."""
    try:
        return float(value) * UNIT_FACTORS[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None


def base_value(key, value):
    """Apply the unit implied by the key's suffix, if any."""
    if isinstance(value, str):
        return value
    suffix = key.rsplit("_", 1)[-1] if "_" in key else None
    if suffix in UNIT_FACTORS:
        return convert(value, suffix)
    return value


def parse_config_text(text) -> dict:
    """Parse the flat grammar into a {dotted-key: raw value} mapping."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _LINE.match(stripped)
        if not m:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = m.groups()
        out[key] = _parse_value(raw)
    return out


def _parse_value(raw):
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


PROFILES = {
    "paper-numeric": {
        "network.n": 256,
        "network.k_s": 5,
        "network.k_r": 16,
        "network.k_c": 16,
        "link.rate_gbps": 10,
        "timing.slot_us": 100,
        "timing.rotor_reconfig_us": 10,
        "timing.cache_reconfig_ms": 15,
        "thresholds.phi": 0.0,
        "traffic.model": "uniform",
        "traffic.load_x": 0.5,
        "traffic.window_s": 1,
        "traffic.seed": 0,
        "traffic.distribution.kind": "default-mix",
    },
}
PROFILES["paper-table1"] = {**PROFILES["paper-numeric"], "link.rate_gbps": 40}


def load_config(path=None, profile="paper-numeric", overrides=None) -> dict:
    """Profile defaults, then file entries, then explicit overrides."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    merged = dict(PROFILES[profile])
    if path is not None:
        with open(path) as fh:
            merged.update(parse_config_text(fh.read()))
    if overrides:
        merged.update(overrides)
    return merged


def _whole(key, value):
    """``value`` as an int; anything but a whole number raises ValueError
    naming ``key``, where ``int`` would truncate it."""
    try:
        if float(value).is_integer():
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} must be a whole number, got {value!r}")


def network_config(mapping) -> NetworkConfig:
    """Materialize and validate a NetworkConfig from a parsed mapping."""
    get = lambda k, d=None: base_value(k, mapping[k]) if k in mapping else d
    count = lambda name: _whole(f"network.{name}", mapping[f"network.{name}"])
    cfg = NetworkConfig(
        n=count("n"),
        k_s=count("k_s"),
        k_r=count("k_r"),
        k_c=count("k_c"),
        r=get("link.rate_gbps"),
        delta=get("timing.slot_us"),
        R_r=get("timing.rotor_reconfig_us"),
        R_c=get("timing.cache_reconfig_ms"),
        medium_threshold_bits=get("thresholds.medium_mbit"),
        large_threshold_bits=get("thresholds.large_mb"),
        threshold_phi=float(mapping.get("thresholds.phi", 0.0)),
    )
    return validate(cfg)


def distribution(mapping) -> FlowSizeDistribution:
    """The flow-size distribution ``traffic.distribution.kind`` names, from its
    keys; a missing key or an unreadable file raises ValueError naming it."""
    kind = mapping.get("traffic.distribution.kind", "default-mix")

    def g(name):
        key = f"traffic.distribution.{name}"
        if key not in mapping:
            raise ValueError(f"traffic.distribution.kind = {kind} needs {key}")
        return base_value(key, mapping[key])

    if kind == "default-mix":
        return default_mix()
    if kind == "point":
        return FlowSizeDistribution.point(g("size_mbit"))
    if kind == "two-point":
        return FlowSizeDistribution.two_point(g("size_a_mbit"), g("size_b_mbit"),
                                              float(g("prob_a")))
    if kind == "two-point-bytes":
        return FlowSizeDistribution.two_point_by_bytes(g("size_a_mbit"), g("size_b_mbit"),
                                                       float(g("byte_frac_a")))
    if kind == "log-uniform":
        return FlowSizeDistribution.log_uniform(g("lower_bits"), g("upper_bits"))
    if kind == "pareto":
        return FlowSizeDistribution.pareto(float(g("shape")), g("lower_bits"))
    if kind == "file":
        path = g("file")
        try:
            return FlowSizeDistribution.from_csv(path)
        except OSError as exc:
            raise ValueError(f"traffic.distribution.file {path!r}: {exc.strerror}") from None
    raise ValueError(f"unknown distribution kind {kind!r}")


def traffic_spec(mapping, seed=None) -> TrafficSpec:
    return TrafficSpec(
        model=mapping.get("traffic.model", "uniform"),
        load_x=float(mapping.get("traffic.load_x", 0.5)),
        distribution=distribution(mapping),
        per_tor_rate_L=float(mapping.get("traffic.per_tor_rate_l", 1.0)),
        window_s=float(mapping.get("traffic.window_s", 1.0)),
        seed=_whole("traffic.seed", mapping.get("traffic.seed", 0) if seed is None else seed),
    )
