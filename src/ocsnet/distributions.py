"""Flow-size distributions with class-conditional analytic queries.

Every kind supports the same queries: probability and byte mass on a
size interval, mean size, the reciprocal-size expectation over a class
(used by the link-cache completion-time formula), and seeded sampling.
The reciprocal expectation is evaluated under the byte-weighted law,
which collapses to ``P(class) / E[size; class]``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import FlowClass, NetworkConfig

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class FlowSizeDistribution:
    """Discrete or parametric distribution over positive flow sizes (bits).

    kind is one of ``discrete``, ``log-uniform`` or ``pareto``. The
    discrete kind, which empirical histograms and two-point mixtures share,
    carries explicit (sizes, probs) arrays; continuous kinds carry their
    parameters and support bounds.
    """

    kind: str
    sizes: tuple = ()          # discrete kind
    probs: tuple = ()
    lower: float = 0.0         # continuous support bounds
    upper: float = math.inf
    shape: float = 0.0         # pareto tail index

    # -- constructors -------------------------------------------------

    @classmethod
    def discrete(cls, sizes, probs):
        sizes = tuple(float(s) for s in sizes)
        probs = tuple(float(p) for p in probs)
        if len(sizes) != len(probs) or not sizes:
            raise ValueError("sizes and probs must be nonempty and of equal length")
        if not all(0 < s < math.inf for s in sizes):
            raise ValueError(f"all sizes must be positive and finite, got {sizes}")
        if not all(0 <= p <= 1 for p in probs):
            raise ValueError(f"probabilities must lie in [0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {sum(probs)}")
        order = np.argsort(sizes)
        sizes = tuple(sizes[i] for i in order)
        probs = tuple(probs[i] for i in order)
        return cls(kind="discrete", sizes=sizes, probs=probs,
                   lower=sizes[0], upper=sizes[-1])

    @classmethod
    def point(cls, size_bits):
        return cls.discrete([size_bits], [1.0])

    @classmethod
    def two_point(cls, size_a, size_b, prob_a):
        return cls.discrete([size_a, size_b], [prob_a, 1.0 - prob_a])

    @classmethod
    def two_point_by_bytes(cls, size_a, size_b, byte_frac_a):
        """Two-point mixture specified by the byte share of ``size_a``."""
        if not 0.0 <= byte_frac_a <= 1.0:
            raise ValueError("byte fraction must lie in [0, 1]")
        if not (size_a > 0 and size_b > 0):   # they divide below
            raise ValueError(f"all sizes must be positive and finite, got {size_a, size_b}")
        # byte share b = p*s_a / (p*s_a + (1-p)*s_b), solved for p
        w_a = byte_frac_a / size_a
        w_b = (1.0 - byte_frac_a) / size_b
        return cls.two_point(size_a, size_b, w_a / (w_a + w_b))

    @classmethod
    def log_uniform(cls, lower, upper):
        if not 0 < lower < upper < math.inf:
            raise ValueError(f"log-uniform needs 0 < lower < upper < inf, got {lower, upper}")
        return cls(kind="log-uniform", lower=float(lower), upper=float(upper))

    @classmethod
    def pareto(cls, shape, lower):
        if not (0 < shape < math.inf and 0 < lower < math.inf):
            raise ValueError(f"pareto needs finite shape, lower > 0, got {shape, lower}")
        return cls(kind="pareto", shape=float(shape), lower=float(lower))

    @classmethod
    def from_csv(cls, path):
        """Load an empirical histogram: header ``size_bits,probability``."""
        sizes, probs = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    {"size_bits", "probability"} - set(reader.fieldnames):
                raise ValueError(f"{path}: expected header size_bits,probability")
            for row in reader:
                sizes.append(float(row["size_bits"]))
                probs.append(float(row["probability"]))
        return cls.discrete(sizes, probs)

    # -- analytic queries ---------------------------------------------

    def prob_between(self, lo, hi):
        """P(lo <= size < hi)."""
        return self._partial(lo, hi, moment=0)

    def byte_mass_between(self, lo, hi):
        """E[size; lo <= size < hi] (unnormalized partial mean)."""
        return self._partial(lo, hi, moment=1)

    def mean_size(self):
        return self.byte_mass_between(0.0, math.inf)

    def byte_fraction_between(self, lo, hi):
        return self.byte_mass_between(lo, hi) / self.mean_size()

    def class_bounds(self, cls_, config: NetworkConfig):
        m, l = config.medium_threshold_bits, config.large_threshold_bits
        return {
            FlowClass.SMALL: (0.0, m),
            FlowClass.MEDIUM: (m, l),
            FlowClass.LARGE: (l, math.inf),
        }[FlowClass(cls_)]

    def class_byte_fraction(self, cls_, config):
        return self.byte_fraction_between(*self.class_bounds(cls_, config))

    def mean_reciprocal_large(self, config):
        lo, hi = self.class_bounds(FlowClass.LARGE, config)
        # normalize within the large class
        p = self.prob_between(lo, hi)
        if p <= 0:
            raise ValueError("distribution has no mass in the large class")
        return p / self.byte_mass_between(lo, hi)

    def _partial(self, lo, hi, moment):
        """Integral of size^moment over the density on [lo, hi)."""
        if hi <= lo:
            return 0.0
        if self.kind == "discrete":
            s = np.asarray(self.sizes)
            p = np.asarray(self.probs)
            mask = (s >= lo) & (s < hi)
            return float((p[mask] * s[mask] ** moment).sum())
        lo = max(lo, self.lower)
        if self.kind == "log-uniform":
            hi = min(hi, self.upper)
            if hi <= lo:
                return 0.0
            norm = math.log(self.upper / self.lower)
            if moment == 0:
                return math.log(hi / lo) / norm
            return (hi - lo) / norm
        if self.kind == "pareto":
            if hi <= lo:
                return 0.0
            a, xm = self.shape, self.lower
            if moment == 0:
                top = 0.0 if math.isinf(hi) else (xm / hi) ** a
                return (xm / lo) ** a - top
            if a > 1:
                top = 0.0 if math.isinf(hi) else hi ** (1 - a)
                return a * xm ** a / (a - 1) * (lo ** (1 - a) - top)
            if a == 1:
                if math.isinf(hi):
                    raise ValueError("pareto with shape 1 has infinite mean")
                return xm * math.log(hi / lo)
            raise ValueError(f"pareto with shape {a} <= 1 has infinite mean")
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    # -- sampling -----------------------------------------------------

    def sample(self, rng: np.random.Generator, count):
        """Draw ``count`` sizes; returns an int64 array (bits, >= 1)."""
        if self.kind == "discrete":
            idx = rng.choice(len(self.sizes), size=count, p=self.probs)
            return _whole_bits(np.asarray(self.sizes))[idx]
        if self.kind == "log-uniform":
            out = np.exp(rng.uniform(math.log(self.lower), math.log(self.upper), count))
        elif self.kind == "pareto":
            out = self.lower * (1.0 - rng.random(count)) ** (-1.0 / self.shape)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        return _whole_bits(out)


def _whole_bits(sizes):
    """``sizes`` rounded to whole bits, at least 1, as int64."""
    bits = np.rint(sizes).astype(np.int64)
    return np.maximum(bits, 1, out=bits)


def default_mix() -> FlowSizeDistribution:
    """Documented stand-in mice/elephant mixture used as the shipped default.

    5% of bytes in 100 Kbit mice, 45% in 4 Mbit medium flows, 50% in
    1 Gbit elephants (at the default thresholds of the 10 Gbps profile).
    """
    sizes = (1e5, 4e6, 1e9)
    byte_fracs = (0.05, 0.45, 0.50)
    weights = [b / s for b, s in zip(byte_fracs, sizes)]
    total = sum(weights)
    return FlowSizeDistribution.discrete(sizes, [w / total for w in weights])
