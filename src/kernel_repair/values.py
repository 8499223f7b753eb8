"""Compact value spaces, tuple metrics, and epsilon-diameter cell partitions.

Three concrete spaces are supported:

* :class:`FiniteMetric` -- a finite set of labeled points with an exact
  distance matrix;
* :class:`BoundedInterval` -- the real interval ``[0, D]`` under absolute
  difference;
* :class:`CompactifiedRay` -- ``[0, +inf]`` made compact through the
  order-preserving chart ``t -> t/(1+t)`` (infinity maps to 1).

A :class:`CellPartition` splits a space into finitely many cells, each of
diameter strictly below a requested epsilon.  Cell ids double as colors for
the combinatorial extraction machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import ContractError, DomainError
from .rational import as_fraction, frac_str

#: Marker for the point at infinity of the compactified ray.
INFINITY = math.inf


def _coerce_number(v) -> Fraction:
    try:
        return as_fraction(v)
    except (TypeError, DomainError) as exc:
        raise DomainError(f"not a numeric value: {v!r}") from exc


@dataclass(frozen=True)
class FiniteMetric:
    """Finite metric space: unique labels plus a symmetric exact distance matrix.

    The matrix must have zero diagonal, strictly positive off-diagonal
    entries, and satisfy the triangle inequality for every label triple.
    Pseudo-metric inputs (zero distance between distinct labels) are rejected.
    """

    labels: tuple[str, ...]
    distances: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        rows = tuple(tuple(as_fraction(d) for d in row) for row in self.distances)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "distances", rows)
        n = len(labels)
        if n == 0:
            raise ContractError("a finite metric space needs at least one label")
        if len(set(labels)) != n:
            raise ContractError("labels must be unique")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ContractError("distance matrix shape does not match labels")
        for i in range(n):
            if rows[i][i] != 0:
                raise ContractError(f"nonzero self-distance for label {labels[i]!r}")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ContractError("distance matrix is not symmetric")
                if i != j and rows[i][j] <= 0:
                    raise ContractError(
                        f"distance between distinct labels {labels[i]!r} and "
                        f"{labels[j]!r} must be strictly positive"
                    )
        for i in range(n):
            for j in range(n):
                for via in range(n):
                    if rows[i][j] > rows[i][via] + rows[via][j]:
                        raise ContractError(
                            "triangle inequality fails for labels "
                            f"({labels[i]!r}, {labels[via]!r}, {labels[j]!r})"
                        )

    def contains(self, value) -> bool:
        return isinstance(value, str) and value in self.labels

    def index_of(self, value) -> int:
        if not self.contains(value):
            raise DomainError(f"label {value!r} is not in this space")
        return self.labels.index(value)

    def dist(self, a, b) -> Fraction:
        return self.distances[self.index_of(a)][self.index_of(b)]

    def zero_value(self):
        """The label written "0", if present (used by product constraints)."""
        return "0" if "0" in self.labels else None


@dataclass(frozen=True)
class BoundedInterval:
    """The interval [0, D] with the absolute-difference metric."""

    diameter: Fraction

    def __post_init__(self):
        d = as_fraction(self.diameter)
        if d <= 0:
            raise ContractError("interval diameter must be positive")
        object.__setattr__(self, "diameter", d)

    def contains(self, value) -> bool:
        try:
            v = _coerce_number(value)
        except DomainError:
            return False
        return 0 <= v <= self.diameter

    def dist(self, a, b) -> Fraction:
        fa, fb = _coerce_number(a), _coerce_number(b)
        if not (0 <= fa <= self.diameter and 0 <= fb <= self.diameter):
            raise DomainError("values outside [0, D]")
        return abs(fa - fb)

    def zero_value(self):
        return Fraction(0)


@dataclass(frozen=True)
class CompactifiedRay:
    """Nonnegative reals plus a point at infinity.

    Distances are measured after the chart ``phi(t) = t/(1+t)``,
    ``phi(inf) = 1``, which makes the space compact with diameter 1.
    """

    def contains(self, value) -> bool:
        # a Fraction is never infinite; comparing it with a float is slow
        if type(value) is Fraction:
            return value.numerator >= 0
        if value == INFINITY:
            return True
        try:
            return _coerce_number(value) >= 0
        except DomainError:
            return False

    def chart(self, value) -> Fraction:
        """Map a value into [0, 1]; exact for rational inputs."""
        if type(value) is not Fraction:
            if value == INFINITY:
                return Fraction(1)
            value = _coerce_number(value)
        n, d = value.numerator, value.denominator
        if n < 0:
            raise DomainError("ray values must be nonnegative")
        # (n/d) / (1 + n/d), in lowest terms since gcd(n, n + d) = gcd(n, d)
        return Fraction(n, n + d)

    def chart_inverse(self, s: Fraction):
        s = as_fraction(s)
        n, d = s.numerator, s.denominator
        if not 0 <= n <= d:
            raise DomainError("chart coordinate must lie in [0, 1]")
        if n == d:
            return INFINITY
        # (n/d) / (1 - n/d)
        return Fraction(n, d - n)

    def dist(self, a, b) -> Fraction:
        return abs(self.chart(a) - self.chart(b))

    def zero_value(self):
        return Fraction(0)


ValueSpace = Union[FiniteMetric, BoundedInterval, CompactifiedRay]


@dataclass(frozen=True, eq=False)
class CellPartition:
    """Partition of a value space into cells of diameter strictly below epsilon.

    ``kind`` is "labels" (``cells`` holds the label groups) or "bins"
    (``bins`` half-open bins of width ``width`` in the space's chart
    coordinate; the last bin absorbs the right endpoint).  Bins are not
    built: a bin's bounds follow from its index.  Cell ids are 0-based
    integers.  ``cell_of`` keeps the cell of each value it has placed, for
    the life of the partition.
    """

    space: ValueSpace
    epsilon: Fraction
    kind: str
    cells: tuple = ()
    width: Fraction | None = None
    bins: int = 0
    _cell_ids: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def cell_count(self) -> int:
        return len(self.cells) if self.kind == "labels" else self.bins

    def _chart(self, value) -> Fraction:
        if isinstance(self.space, CompactifiedRay):
            return self.space.chart(value)
        v = _coerce_number(value)
        if not self.space.contains(v):
            raise DomainError(f"value {value!r} outside the space")
        return v

    def cell_of(self, value) -> int:
        idx = self._cell_ids.get(value)
        if idx is None:
            idx = self._cell_ids[value] = self._find_cell(value)
        return idx

    def _find_cell(self, value) -> int:
        if self.kind == "labels":
            for idx, cell in enumerate(self.cells):
                if value in cell:
                    return idx
            raise DomainError(f"label {value!r} is not in this space")
        idx = int(self._chart(value) // self.width)
        return min(idx, self.bins - 1)


def _chart_span(space: ValueSpace) -> Fraction:
    """Length of the chart coordinate's range: the diameter, or 1 on the ray."""
    return space.diameter if isinstance(space, BoundedInterval) else Fraction(1)


def epsilon_partition(space: ValueSpace, epsilon) -> CellPartition:
    """Deterministic partition of ``space`` into cells of diameter < epsilon.

    Interval-like spaces use half-open bins of width epsilon/2 in the chart
    coordinate, so the strict diameter bound holds with exact arithmetic.
    Finite metrics use singleton cells when epsilon is at most the smallest
    positive distance, and greedy ball covering (radius epsilon/2) otherwise.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ContractError("epsilon must be positive")
    if isinstance(space, FiniteMetric):
        remaining = list(space.labels)
        cells = []
        while remaining:
            center = remaining[0]
            cell = tuple(l for l in remaining if space.dist(center, l) < eps / 2)
            taken = set(cell)
            remaining = [l for l in remaining if l not in taken]
            cells.append(cell)
        return CellPartition(space=space, epsilon=eps, kind="labels", cells=tuple(cells))

    width = eps / 2
    return CellPartition(
        space=space,
        epsilon=eps,
        kind="bins",
        width=width,
        bins=math.ceil(_chart_span(space) / width),
    )


def value_to_text(space: ValueSpace, value) -> str:
    """Canonical one-token text form of a value of the space."""
    if isinstance(space, FiniteMetric):
        if not space.contains(value):
            raise DomainError(f"label {value!r} is not in this space")
        return str(value)
    if type(value) is not Fraction and value == INFINITY:
        return "inf"
    return frac_str(_coerce_number(value))


def value_from_text(space: ValueSpace, text: str):
    """Parse the text form produced by :func:`value_to_text`."""
    if isinstance(space, FiniteMetric):
        if not space.contains(text):
            raise DomainError(f"label {text!r} is not in this space")
        return text
    if text == "inf":
        if not isinstance(space, CompactifiedRay):
            raise DomainError("only the compactified ray admits infinity")
        return INFINITY
    v = as_fraction(text)
    if not space.contains(v):
        raise DomainError(f"value {text} outside the space")
    return v
