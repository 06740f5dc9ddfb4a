"""Closed-form completion times, switch-split optimization, and throughput solvers.

All demand completion times (DCTs) are for a demand matrix accumulated
over a one-second window; per-ToR byte quantities and the component
formulas therefore come out directly in seconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import FlowSizeDistribution
from .model import FlowClass, NetworkConfig

_BISECT_TOL = 1e-8  # the hybrid L* bisection stops at this bracket width


@dataclass(frozen=True)
class AnalyticsReport:
    """One grid point of the analytic model: DCTs, split, thresholds, throughput."""

    x: float
    phi: float
    phi_m: float
    dct_expander_s: float
    dct_rotor_s: float
    dct_hybrid_s: float
    alpha: float
    beta: float
    gamma: float
    k_r_star: int
    k_c_star: int
    large_threshold_bits: float
    z: float
    x_star: float
    L_star_expander: float
    L_star_rotor: float
    L_star_hybrid: float


# -- uniform-traffic completion times ---------------------------------


def dct_expander(x, epl) -> float:
    """Capacity-limited expander completion time: load times mean path length."""
    _check_unit("x", x)
    if epl < 1:
        raise ValueError(f"expected path length must be >= 1, got {epl}")
    return x * epl


def dct_rotor(x, phi, config: NetworkConfig) -> float:
    """Rotor completion time: load, two-hop bandwidth tax, and slot overhead."""
    _check_unit("x", x)
    _check_unit("phi", phi)
    return x * (2.0 - phi) * (config.R_r + config.delta) / config.delta


def dct_all_to_all_rotor(total_bits_per_tor, k, config: NetworkConfig) -> float:
    """Completion time of a perfectly uniform all-to-all demand on k rotor switches."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if total_bits_per_tor < 0:
        raise ValueError("demand must be nonnegative")
    slot_bits = config.medium_threshold_bits
    return (total_bits_per_tor / slot_bits) * (config.R_r + config.delta) / k


def large_flow_threshold(phi, config: NetworkConfig) -> float:
    """Smallest flow size served faster by a reconfigured direct link than by rotors.

    Undefined (error) when the rotor is faster at every size, i.e. when
    (2-phi) * r * (R_r+delta) <= |m|.
    """
    _check_unit("phi", phi)
    m = config.medium_threshold_bits
    denom = (2.0 - phi) * config.r * (config.R_r + config.delta) - m
    if denom <= 0:
        raise ValueError(
            "rotor transmission is always faster at this skewness; "
            "no finite large-flow threshold exists"
        )
    return config.R_c * m * config.r / denom


def dct_cache(large_bits, k_c, distribution: FlowSizeDistribution,
              config: NetworkConfig) -> float:
    """Demand-aware (link cache) completion time, expectation form.

    The reciprocal-size expectation is taken over the large class only.
    """
    if large_bits < 0:
        raise ValueError("demand must be nonnegative")
    if large_bits == 0:
        return 0.0
    if k_c < 1:
        raise ValueError("k_c switches required to serve large flows, got 0")
    recip = distribution.mean_reciprocal_large(config)
    return (large_bits / k_c) * (config.R_c * recip + 1.0 / config.r)


def rotor_component_dct(medium_bits, phi_m, k_r, config: NetworkConfig) -> float:
    """Rotor-component completion time for one ToR's medium bytes on k_r switches."""
    if medium_bits == 0:
        return 0.0
    if k_r < 1:
        raise ValueError("k_r switches required to serve medium flows, got 0")
    slot_bits = config.medium_threshold_bits
    return (medium_bits / slot_bits) * (2.0 - phi_m) * (config.R_r + config.delta) / k_r


def expander_component_dct(small_bits, k_s, epl, config: NetworkConfig) -> float:
    """Expander-component completion time for one ToR's small bytes on k_s switches."""
    if small_bits == 0:
        return 0.0
    if k_s < 1:
        raise ValueError("k_s switches required to serve small flows, got 0")
    return small_bits * epl / (k_s * config.r)


# -- switch split and hybrid ------------------------------------------


def optimal_split(distribution: FlowSizeDistribution, x, phi_m,
                  config: NetworkConfig) -> tuple[int, int]:
    """Divide the k - k_s dynamic switches between rotor and demand-aware.

    The real-valued split equalizes the two component completion times;
    the integer rounding minimizes the larger of the two, ties broken
    toward more rotor switches. A distribution without large (medium)
    bytes gets every dynamic switch as a rotor (demand-aware) switch.
    """
    _check_unit("x", x)
    _check_unit("phi_m", phi_m)
    total = config.k - config.k_s
    b_m = distribution.class_byte_fraction(FlowClass.MEDIUM, config)
    b_l = distribution.class_byte_fraction(FlowClass.LARGE, config)
    if b_l <= 0 or b_m <= 0:
        return (total, 0) if b_l <= 0 else (0, total)
    if total < 2:
        raise ValueError(f"need at least 2 dynamic switches to split, have {total}")

    base = max(x, 1e-12) * config.k * config.r  # the split ratio is x-independent
    # each component's completion time on a single switch;
    # cache_term / k_c == rotor_term / k_r at the real-valued optimum
    cache_term = dct_cache(base * b_l, 1, distribution, config)
    rotor_term = rotor_component_dct(base * b_m, phi_m, 1, config)
    k_c_real = total * cache_term / (cache_term + rotor_term)

    candidates = {math.floor(k_c_real), math.ceil(k_c_real)}
    best = None
    for k_c in sorted(candidates):
        k_c = min(max(k_c, 1), total - 1)
        k_r = total - k_c
        worst = max(rotor_term / k_r, cache_term / k_c)
        # strict improvement required, so ties keep the larger k_r
        if best is None or worst < best[0] - 1e-15 * max(worst, best[0]):
            best = (worst, k_r, k_c)
    return best[1], best[2]


def dct_hybrid_uniform(x, distribution: FlowSizeDistribution, phi_m,
                       config: NetworkConfig, epl=None, split=None) -> float:
    """Hybrid completion time: the slowest of the three per-class components.

    ``split`` overrides the optimal (k_r, k_c) division; ``epl`` is only
    needed when the distribution has small-flow mass and k_s > 0.
    """
    _check_unit("x", x)
    if x == 0:
        return 0.0
    base = x * config.k * config.r
    b_s = distribution.class_byte_fraction(FlowClass.SMALL, config)
    b_m = distribution.class_byte_fraction(FlowClass.MEDIUM, config)
    b_l = distribution.class_byte_fraction(FlowClass.LARGE, config)

    k_r, k_c = optimal_split(distribution, x, phi_m, config) if split is None else split

    parts = []
    if b_s > 0:
        if epl is None and config.k_s > 0:
            raise ValueError("epl required: distribution has small-flow mass")
        parts.append(expander_component_dct(base * b_s, config.k_s, epl, config))
    if b_m > 0:
        parts.append(rotor_component_dct(base * b_m, phi_m, k_r, config))
    if b_l > 0:
        parts.append(dct_cache(base * b_l, k_c, distribution, config))
    return max(parts) if parts else 0.0


def missing_switches(distribution: FlowSizeDistribution, config: NetworkConfig,
                     split) -> list[tuple[str, FlowClass]]:
    """The ``(switch count, flow class)`` pairs, of k_s for small, k_r for
    medium and k_c for large flows, whose count is zero under ``split`` =
    (k_r, k_c) although the class carries bytes; ``dct_hybrid_uniform``
    has no value then."""
    k_r, k_c = split
    return [(name, cls) for name, cls, k in (("k_s", FlowClass.SMALL, config.k_s),
                                             ("k_r", FlowClass.MEDIUM, k_r),
                                             ("k_c", FlowClass.LARGE, k_c))
            if k < 1 and distribution.class_byte_fraction(cls, config) > 0]


def hybrid_alpha(x, distribution: FlowSizeDistribution, k_c_star,
                 config: NetworkConfig) -> float:
    """Slope coefficient of the hybrid bound: per-unit cache completion time."""
    large_bits = x * config.k * config.r \
        * distribution.class_byte_fraction(FlowClass.LARGE, config)
    return dct_cache(large_bits, k_c_star, distribution, config) / max(x, 1e-300)


# -- skewed traffic ----------------------------------------------------


def cache_capacity_z(k_c, distribution: FlowSizeDistribution,
                     config: NetworkConfig) -> float:
    """Fraction of a full-rate ToR's large bytes the cache can serve per second."""
    if k_c == 0:
        return 0.0
    large_rate = config.k * config.r \
        * distribution.class_byte_fraction(FlowClass.LARGE, config)
    if large_rate <= 0:
        raise ValueError("distribution has no mass in the large class")
    return k_c / dct_cache(large_rate, 1, distribution, config)


def spill_fraction(L, z) -> float:
    """Fraction of large bytes exceeding cache capacity, rerouted to rotors."""
    if L <= 0:
        raise ValueError(f"throughput L must be positive, got {L}")
    if z < 0:
        raise ValueError(f"cache capacity z must be nonnegative, got {z}")
    return max((L - z) / L, 0.0)


def throughput_star(system, x, phi, distribution=None, config=None, epl=None,
                    split=None) -> float:
    """Largest sustainable per-ToR throughput L* in (0, 1] at active fraction x.

    Expander and rotor have closed forms; the hybrid L* is found by
    bisection on the (monotone) completion-time condition.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    _check_unit("phi", phi)
    if system == "expander":
        if epl is None:
            raise ValueError("expander throughput needs epl")
        return min(1.0 / (x * epl), 1.0)
    if system == "rotor":
        if config is None:
            raise ValueError("rotor throughput needs a config")
        period = (config.R_r + config.delta) / config.delta
        return min(1.0 / (x * (2.0 - phi * x) * period), 1.0)
    if system != "hybrid":
        raise ValueError(f"unknown system {system!r}")

    if distribution is None or config is None:
        raise ValueError("hybrid throughput needs a distribution and a config")
    if split is None:
        split = optimal_split(distribution, 1.0, phi, config)
    k_r_star, k_c_star = split
    if k_r_star < 1:
        raise ValueError("hybrid throughput solver needs k_r_star >= 1")
    b_m = distribution.class_byte_fraction(FlowClass.MEDIUM, config)
    b_l = distribution.class_byte_fraction(FlowClass.LARGE, config)
    u1_m = config.k * config.r * b_m
    u1_l = config.k * config.r * b_l
    z = cache_capacity_z(k_c_star, distribution, config) if b_l > 0 else math.inf

    coeff = x * (2.0 - phi * x) * (config.R_r + config.delta) \
        / (config.medium_threshold_bits * k_r_star)

    def dct(L):
        spilled = max(L - z, 0.0) * u1_l  # L * x*(L) * U(1,l)
        return coeff * (L * u1_m + spilled)

    if dct(1.0) <= 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if dct(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


# -- assembled report --------------------------------------------------


def report(x, phi, phi_m, distribution: FlowSizeDistribution,
           config: NetworkConfig, epl, epl_static=None) -> AnalyticsReport:
    """Evaluate every closed form at one (x, phi, phi_m) grid point.

    ``epl`` is the mean path length of an expander built from all k
    switches; ``epl_static`` that of the degree-k_s expander on which the
    hybrid serves its small flows, needed when the distribution has
    small-flow mass. ``dct_hybrid_s`` is nan where a flow class with bytes
    has no switches to serve it (``missing_switches``).
    """
    b_l = distribution.class_byte_fraction(FlowClass.LARGE, config)
    b_m = distribution.class_byte_fraction(FlowClass.MEDIUM, config)
    total = config.k - config.k_s
    if b_m > 0 and b_l > 0 and total < 2:
        k_r_star, k_c_star = 0, total   # too few switches to split: the cache takes them
    else:
        k_r_star, k_c_star = optimal_split(distribution, max(x, 1e-9), phi_m, config)

    if x > 0:
        if missing_switches(distribution, config, (k_r_star, k_c_star)):
            dct_hyb = math.nan
        else:
            dct_hyb = dct_hybrid_uniform(x, distribution, phi_m, config,
                                         epl=epl_static, split=(k_r_star, k_c_star))
        alpha = hybrid_alpha(x, distribution, k_c_star, config) if k_c_star else 0.0
        l_exp = throughput_star("expander", x, phi, epl=epl)
        l_rot = throughput_star("rotor", x, phi, config=config)
        if b_l > 0 and b_m > 0 and k_r_star >= 1:
            l_hyb = throughput_star("hybrid", x, phi, distribution, config,
                                    split=(k_r_star, k_c_star))
        else:
            l_hyb = l_rot
    else:
        dct_hyb, alpha = 0.0, 0.0
        l_exp = l_rot = l_hyb = 1.0

    try:
        threshold = large_flow_threshold(phi, config)
    except ValueError:
        threshold = math.inf
    z = cache_capacity_z(k_c_star, distribution, config) if b_l > 0 else math.inf

    return AnalyticsReport(
        x=x, phi=phi, phi_m=phi_m,
        dct_expander_s=dct_expander(x, epl),
        dct_rotor_s=dct_rotor(x, phi, config),
        dct_hybrid_s=dct_hyb,
        alpha=alpha,
        beta=dct_rotor(1.0, phi, config),
        gamma=epl,
        k_r_star=k_r_star, k_c_star=k_c_star,
        large_threshold_bits=threshold,
        z=z, x_star=spill_fraction(1.0, z),
        L_star_expander=l_exp, L_star_rotor=l_rot, L_star_hybrid=l_hyb,
    )


def _check_unit(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
