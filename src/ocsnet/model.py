"""Core domain types: network parameters, flows, demand matrices.

All sizes are kept internally in bits (byte-denominated inputs are
converted at the boundary, 1 byte = 8 bits) and all times in seconds.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np


class FlowClass(str, Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


FLOW_CLASSES = tuple(FlowClass)   # flow class codes index this


@dataclass(frozen=True)
class NetworkConfig:
    """Leaf/spine network parameters plus the flow-class size thresholds.

    ``medium_threshold_bits`` and ``large_threshold_bits`` may be left
    unset (None); :func:`validate` fills them with the derived defaults
    (slot-full of bits, and the rotor-vs-cache break-even size at
    ``threshold_phi``).
    """

    n: int                    # number of ToRs
    k_s: int                  # static spine switches
    k_r: int                  # rotor spine switches
    k_c: int                  # demand-aware spine switches
    r: float                  # link rate, bits/s
    delta: float              # rotor slot time, s
    R_r: float                # rotor reconfiguration time, s
    R_c: float                # demand-aware reconfiguration time, s
    medium_threshold_bits: float | None = None
    large_threshold_bits: float | None = None
    threshold_phi: float = 0.0  # skewness used when deriving the large threshold

    @property
    def k(self):
        return self.k_s + self.k_r + self.k_c


def validate(config: NetworkConfig) -> NetworkConfig:
    """Fill derived thresholds and check every invariant.

    Returns a new config with ``medium_threshold_bits`` defaulted to
    delta*r and ``large_threshold_bits`` defaulted to the rotor/cache
    break-even size at ``threshold_phi``. Raises ValueError naming the
    offending field otherwise.
    """
    c = config
    if c.n < 2:
        raise ValueError(f"n must be >= 2, got {c.n}")
    if not 0 <= c.threshold_phi <= 1:   # also rejects nan
        raise ValueError(f"threshold_phi must lie in [0, 1], got {c.threshold_phi}")
    finite = ("r", "delta", "R_r", "R_c", "medium_threshold_bits")
    for name in finite + ("large_threshold_bits",):
        value = getattr(c, name)
        # an unset threshold is derived below; +inf leaves the large class empty
        if value is not None and (math.isnan(value) or (name in finite and math.isinf(value))):
            raise ValueError(f"{name} must be {'finite' if name in finite else 'a number'}, "
                             f"got {value}")
    for name in ("k_s", "k_r", "k_c"):
        if getattr(c, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(c, name)}")
    if c.k < 1:
        raise ValueError("k >= 1 required: k_s + k_r + k_c must be at least 1")
    if c.r <= 0:
        raise ValueError(f"r must be > 0, got {c.r}")
    if c.delta <= 0:
        raise ValueError(f"delta must be > 0, got {c.delta}")
    if c.R_r < 0 or c.R_c < 0:
        raise ValueError("reconfiguration times must be >= 0")
    if c.R_r > c.R_c:
        raise ValueError(f"R_r ({c.R_r}) must not exceed R_c ({c.R_c})")
    if c.R_c > 0 and c.R_r > 0.1 * c.R_c:
        warnings.warn(
            f"R_r ({c.R_r}) is not small compared to R_c ({c.R_c}); "
            "the rotor/cache trade-off assumes R_r << R_c",
            stacklevel=2,
        )

    medium = c.medium_threshold_bits
    if medium is None:
        medium = c.delta * c.r
    if medium <= 0:
        raise ValueError(f"medium_threshold_bits must be > 0, got {medium}")

    large = c.large_threshold_bits
    if large is None:
        # break-even flow size above which a reconfigured direct link beats the rotor
        from .analytics import large_flow_threshold

        probe = replace(c, medium_threshold_bits=medium, large_threshold_bits=math.inf)
        try:
            large = large_flow_threshold(c.threshold_phi, probe)
        except ValueError as exc:
            raise ValueError(
                "cannot derive large_threshold_bits: rotor transmission always wins, "
                "all flows would be medium"
            ) from exc
    if not medium < large:
        raise ValueError(
            f"medium_threshold_bits ({medium}) must be below large_threshold_bits ({large})"
        )
    return replace(c, medium_threshold_bits=medium, large_threshold_bits=large)


def class_codes(size_bits, config: NetworkConfig):
    """Class codes (into ``FLOW_CLASSES``) of the sizes ``size_bits``, by the
    half-open intervals [|m|, |l|): a size exactly at a threshold is in the
    upper class."""
    return np.searchsorted((config.medium_threshold_bits, config.large_threshold_bits),
                           size_bits, side="right")


class Flow(NamedTuple):
    """One row of a ``FlowTable``."""

    src: int
    dst: int
    size_bits: int
    arrival_s: float
    flow_class: FlowClass


_ROWS_PER_READ = 1024


class Table:
    """Read-only columns of equal length, read as ``_row``s: an int index
    gives a row, a slice the same table type. A subclass names its columns
    in ``_row``'s field order, with their dtypes, in ``_dtypes`` (None keeps
    what ``np.asarray`` makes), and its code column in ``_code = (column,
    the values its codes index)``. An array passed in with its column's
    dtype is used, not copied.
    """

    def __init__(self, *columns):
        for (name, dtype), column in zip(self._dtypes.items(), columns, strict=True):
            column = np.asarray(column, dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        columns = self._columns()
        if any(c.ndim != 1 or c.size != columns[0].size for c in columns):
            raise ValueError("columns must be 1-D and of equal length, got shapes "
                             + ", ".join(str(c.shape) for c in columns))
        name, values = self._code
        codes = getattr(self, name)
        if ((codes < 0) | (codes >= len(values))).any():
            raise ValueError(f"{name} codes must lie in [0, {len(values)})")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def _columns(self):
        return tuple(getattr(self, name) for name in self._dtypes)

    def __len__(self):
        return len(self._columns()[0])

    def __iter__(self):
        """Build the rows a chunk at a time, as they are read, so that a pass
        over a large table holds one chunk of Python values, not a list per
        column."""
        for start in range(0, len(self), _ROWS_PER_READ):
            yield from self._rows(slice(start, start + _ROWS_PER_READ))

    def _rows(self, index):
        name, values = self._code
        chunk = {c: getattr(self, c)[index].tolist() for c in self._dtypes}
        chunk[name] = map(values.__getitem__, chunk[name])
        return map(self._row, *chunk.values())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(c[index] for c in self._columns()))
        i = range(len(self))[index]
        return next(self._rows(slice(i, i + 1)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(self._columns(), other._columns()))


class FlowTable(Table):
    """Flows as columns: row i is flow i as a ``Flow``, and ``flow_class``
    holds codes into ``FLOW_CLASSES``. ToR ids are >= 0, a flow's source
    and destination differ, sizes are finite and positive, and arrivals
    finite and >= 0.

    ``size_bits`` is int64 as ``traffic.generate`` makes it; other sizes
    keep whatever ``np.asarray`` makes of them, so a fractional size stays
    exact.
    """

    _row = Flow
    _dtypes = {"src": np.int32, "dst": np.int32, "size_bits": None,
               "arrival_s": np.float64, "flow_class": np.int8}
    _code = ("flow_class", FLOW_CLASSES)

    def __init__(self, *columns):
        super().__init__(*columns)
        self._require(np.minimum(self.src, self.dst) >= 0, "ToR ids must be >= 0")
        self._require(self.src != self.dst, "source and destination coincide")
        self._require((self.size_bits > 0) & (self.size_bits < np.inf),
                      "size must be positive and finite")
        self._require((self.arrival_s >= 0) & (self.arrival_s < np.inf),
                      "arrival must be finite and >= 0")

    def _require(self, ok, what):
        """Raise ValueError naming the first flow for which ``ok`` is false."""
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"flow {i}: {what}, got {self[i]}")


@dataclass(frozen=True)
class DemandMatrix:
    """n x n accumulated bits over a fixed window; diagonal is zero."""

    n: int
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.shape != (self.n, self.n):
            raise ValueError(f"cells must be {self.n}x{self.n}, got {cells.shape}")
        if (cells < 0).any():
            raise ValueError("demand matrix entries must be nonnegative")
        if np.diagonal(cells).any():
            raise ValueError("demand matrix diagonal must be zero")
        object.__setattr__(self, "cells", cells)
