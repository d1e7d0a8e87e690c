"""Shared domain types: points, samples, norms and discrete measures.

Everything in this module is immutable after construction and every
operation is pure.

Validation happens once, at the boundary: public constructors check and
copy input from outside the package, while values that wknn computes from
input it has already checked are built with ``_trusted`` and frozen in
place, with no second check and no copy.

This module also owns the text format of every table wknn emits (sample
CSVs, experiment outputs and the CLI's stdout tables): ``_fmt`` writes
floats with 17 significant digits and None as an empty field, and
``_write_lines`` writes UTF-8 with LF line endings and a final LF.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "InvalidInputError",
    "NumericalError",
    "Norm",
    "DEFAULT_NORM",
    "Point",
    "as_point",
    "Sample",
    "LabeledSample",
    "DiscreteMeasure",
    "validate_measure",
    "uniform_empirical",
    "distance",
    "pairwise_distances",
    "read_sample_csv",
    "write_sample_csv",
]

# Tolerance on the total mass of a discrete probability measure.
MASS_TOL = 1e-12


class InvalidInputError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a computation cannot be certified to the required accuracy."""


def _freeze(obj, **fields):
    """Set fields on a frozen dataclass; arrays become read-only in place, uncopied."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def _trusted(cls, **fields):
    """A ``cls`` instance from fields wknn computed from checked input; no re-check."""
    return _freeze(object.__new__(cls), **fields)


def _check_real(value, name: str, low: float = -math.inf, *, above: bool = False) -> float:
    """``value`` as a float: a finite Python or numpy real >= low (> low when ``above``).
    Strings (numeric ones too), None, NaN and infinities raise InvalidInputError."""
    # float and int first: the Real ABC check costs twenty times a float().
    if isinstance(value, (float, int, Real)):
        real = float(value)
        if math.isfinite(real) and (real > low if above else real >= low):
            return real
    rule = "number" if low == -math.inf else f"{'>' if above else '>='} {low:g}"
    raise InvalidInputError(f"{name} must be a finite real {rule}, got {value!r}")


def _check_q(q) -> float:
    """Transport order q as a float; it must be a finite real >= 1."""
    return _check_real(q, "q", 1.0)


def _check_int(value, name: str, low: int = 1, high=None) -> int:
    """``value`` as an int; it must equal a whole number in [low, high].

    Integral floats (2.0) and numpy integers pass; 1.5, NaN, infinities and
    strings raise InvalidInputError naming the argument.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < low or (high is not None and whole > high):
        rule = (f"satisfy {low} <= {name} <= {high}" if high is not None
                else "be a positive integer" if low == 1 else f"be an integer >= {low}")
        raise InvalidInputError(f"{name} must {rule}, got {value!r}")
    return whole


def _check_dims(d_a: int, d_b: int) -> None:
    """InvalidInputError unless the two dimensions agree."""
    if d_a != d_b:
        raise InvalidInputError(f"dimension mismatch: {d_a} vs {d_b}")


def _as_sample(points) -> Sample:
    """``points`` itself when it is a Sample, else a checked copy of it."""
    return points if isinstance(points, Sample) else Sample(points)


class Norm(Enum):
    """Norm on R^d used for all distances. L2 is the default."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @property
    def p(self) -> float:
        """Minkowski exponent understood by spatial indexes."""
        return {Norm.L1: 1.0, Norm.L2: 2.0, Norm.LINF: np.inf}[self]

    @classmethod
    def parse(cls, text: Union[str, "Norm"]) -> "Norm":
        """The one norm rule: a Norm, or its name in any case ("l1", "L2", "linf")."""
        if isinstance(text, Norm):
            return text
        key = text.strip().lower() if isinstance(text, str) else None
        for member in cls:
            if member.value == key:
                return member
        names = ", ".join(member.value for member in cls)
        raise InvalidInputError(f"unknown norm {text!r}; expected one of {names}")


DEFAULT_NORM = Norm.L2

# A point is a 1-D float64 vector of coordinates.
Point = np.ndarray


def _finite_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array; InvalidInputError unless numpy can
    convert it (no strings, no ragged lists) and every entry is finite."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be an array of real numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} must be finite")
    return arr


def as_point(coords) -> Point:
    """Coerce ``coords`` to a finite 1-D float64 vector of dimension >= 1."""
    arr = _finite_array(coords, "point coordinates")
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("a point must be a nonempty 1-D coordinate vector")
    return arr


@dataclass(frozen=True, eq=False)
class Sample:
    """Ordered collection of points sharing one dimension.

    1-D input is interpreted as n points in R^1.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.points, "sample coordinates")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise InvalidInputError("a sample must be a nonempty (n, d) array of coordinates")
        _freeze(self, points=arr.copy())

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.size

    def point(self, i: int) -> Point:
        return self.points[i]


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """Training sample: input points plus one output row per point."""

    inputs: Sample
    outputs: np.ndarray

    def __post_init__(self):
        _freeze(self, inputs=_as_sample(self.inputs))
        out = _finite_array(self.outputs, "outputs")
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        if out.ndim != 2 or out.shape[1] == 0:
            raise InvalidInputError("outputs must be an (m, e) array with e >= 1")
        if out.shape[0] != self.inputs.size:
            raise InvalidInputError(
                f"outputs rows ({out.shape[0]}) must match inputs size ({self.inputs.size})"
            )
        _freeze(self, outputs=out.copy())

    @property
    def size(self) -> int:
        return self.inputs.size

    @property
    def out_dim(self) -> int:
        return self.outputs.shape[1]


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure: points with masses summing to 1."""

    points: Sample
    masses: np.ndarray

    def __post_init__(self):
        _freeze(self, points=_as_sample(self.points))
        masses = _finite_array(self.masses, "masses").ravel()
        if masses.size == 0:
            raise InvalidInputError("a measure needs a nonempty support")
        if masses.size != self.points.size:
            raise InvalidInputError(
                f"got {masses.size} masses for {self.points.size} support points"
            )
        if np.any(masses < 0.0):
            raise InvalidInputError("masses must be nonnegative")
        total = float(np.sum(masses))
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidInputError(f"masses must sum to 1 within {MASS_TOL:g}, got {total!r}")
        _freeze(self, masses=masses.copy())

    @property
    def size(self) -> int:
        return self.points.size


def validate_measure(points, masses) -> DiscreteMeasure:
    """Validate (points, masses) and return the discrete measure.

    Rejects negative masses, a total mass off 1 by more than 1e-12, and
    an empty support.
    """
    return DiscreteMeasure(points, masses)


def uniform_empirical(sample: Sample) -> DiscreteMeasure:
    """Empirical measure of a sample: mass 1/n on every point."""
    sample = _as_sample(sample)
    return DiscreteMeasure(sample, np.full(sample.size, 1.0 / sample.size))


def _reduce_norm(diff: np.ndarray, norm: Norm) -> np.ndarray:
    """Apply the norm along the last axis of a difference array.

    This single reduction is the canonical distance computation for the
    whole package: brute-force search, the accelerated index and the
    transport solver all go through it so their values agree bitwise.
    """
    norm = Norm.parse(norm)
    if norm is Norm.L1:
        return np.abs(diff).sum(axis=-1)
    if norm is Norm.L2:
        return np.sqrt((diff * diff).sum(axis=-1))
    return np.abs(diff).max(axis=-1)


def distance(a, b, norm: Norm = DEFAULT_NORM) -> float:
    """Norm distance between two points of equal dimension."""
    pa = as_point(a)
    pb = as_point(b)
    _check_dims(pa.shape[0], pb.shape[0])
    return float(_reduce_norm(pa - pb, norm))


def pairwise_distances(a, b, norm: Norm = DEFAULT_NORM) -> np.ndarray:
    """Dense (n, m) matrix of norm distances between two point sets."""
    pa = _as_sample(a).points
    pb = _as_sample(b).points
    _check_dims(pa.shape[1], pb.shape[1])
    return _reduce_norm(pa[:, None, :] - pb[None, :, :], norm)


# --- text format and CSV interchange --------------------------------------
#
# Sample CSV: header "x1,...,xd[,y1,...,ye]", one point per row.


def _fmt(value) -> str:
    """One CSV field: floats to 17 significant digits, None empty, else ``str``."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_lines(dest, lines) -> None:
    """Write text lines, each ended by LF, to a path (as UTF-8) or an open text stream."""
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8", newline="\n")


def _write_table(dest, columns, rows) -> None:
    """The one CSV writer: a header of ``columns``, then one ``_fmt``-ed line per row."""
    _write_lines(dest, [",".join(columns), *(",".join(map(_fmt, row)) for row in rows)])


def _expected_header(d: int, e: int) -> list[str]:
    cols = [f"x{i + 1}" for i in range(d)]
    cols += [f"y{i + 1}" for i in range(e)]
    return cols


def _split_header(header: list[str]) -> tuple[int, int]:
    d = 0
    while d < len(header) and header[d] == f"x{d + 1}":
        d += 1
    e = 0
    while d + e < len(header) and header[d + e] == f"y{e + 1}":
        e += 1
    if d == 0 or d + e != len(header):
        raise InvalidInputError(
            f"bad CSV header {header!r}; expected x1,...,xd[,y1,...,ye]"
        )
    return d, e


def read_sample_csv(path) -> Union[Sample, LabeledSample]:
    """Read a sample CSV; returns LabeledSample when y columns are present."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    rows = [r for r in rows if r]
    if not rows:
        raise InvalidInputError(f"{path}: empty CSV")
    d, e = _split_header([c.strip() for c in rows[0]])
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != d + e:
            raise InvalidInputError(f"{path}:{lineno}: expected {d + e} fields, got {len(row)}")
        try:
            data.append([float(c) for c in row])
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    if not data:
        raise InvalidInputError(f"{path}: no data rows")
    arr = np.asarray(data, dtype=np.float64)
    if e == 0:
        return Sample(arr)
    return LabeledSample(Sample(arr[:, :d]), arr[:, d:])


def write_sample_csv(path, data: Union[Sample, LabeledSample]) -> None:
    """Write a sample (or labeled sample) in the CSV interchange format."""
    if isinstance(data, LabeledSample):
        d, e = data.inputs.dim, data.out_dim
        matrix = np.hstack([data.inputs.points, data.outputs])
    else:
        d, e = data.dim, 0
        matrix = data.points
    _write_table(path, _expected_header(d, e), matrix)
