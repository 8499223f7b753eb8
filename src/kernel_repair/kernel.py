"""Step-function kernels on the unit cube with explicit null-set overrides.

A kernel is a function on ``[0,1)^k`` that is constant on a uniform grid of
``m0^k`` half-open boxes, except on an ordered list of override pieces.  Each
piece is cut out by a conjunction of coordinate equalities (``x_i = c`` or
``x_i = x_j``), so it sits inside an affine subset of dimension below ``k``
and has Lebesgue measure zero.  Evaluation is exact: coordinates are
rationals and box membership is decided with integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ContractError, DomainError
from .rational import as_fraction
from .values import ValueSpace


def block_of(x, m: int) -> int:
    """Index s of the half-open cell [s/m, (s+1)/m) containing x."""
    x = as_fraction(x)
    return (x.numerator * m) // x.denominator


def repeat_pattern(coords) -> tuple[int, ...]:
    """Which coordinates repeat.

    Entry i is the position of the first coordinate equal to coordinate i,
    so two tuples have the same pattern when they repeat in the same places.
    """
    coords = tuple(coords)
    return tuple(map(coords.index, coords))


def sample_in_cell(x, m: int, rng) -> Fraction:
    """Uniform random point in the width-1/m cell containing x.

    The draw consumes exactly one ``rng.random()`` call, so a fixed seed
    yields an identical sequence of exact rational points.
    """
    s = block_of(x, m)
    return (s + Fraction(rng.random())) / m


@dataclass(frozen=True)
class CoordIs:
    """Override condition: coordinate ``coord`` equals the constant."""

    coord: int
    const: Fraction

    def __post_init__(self):
        c = as_fraction(self.const)
        if not 0 <= c < 1:
            raise ContractError("override constants must lie in [0, 1)")
        object.__setattr__(self, "const", c)

    def holds(self, point) -> bool:
        return point[self.coord - 1] == self.const


@dataclass(frozen=True)
class CoordsEqual:
    """Override condition: coordinates ``first`` and ``second`` coincide."""

    first: int
    second: int

    def __post_init__(self):
        if self.first == self.second:
            raise ContractError("coordinate pair condition needs two distinct slots")

    def holds(self, point) -> bool:
        return point[self.first - 1] == point[self.second - 1]


OverrideAtom = Union[CoordIs, CoordsEqual]


@dataclass(frozen=True)
class ExceptionPiece:
    """A null set (conjunction of coordinate equalities) with its own value."""

    conditions: tuple[OverrideAtom, ...]
    value: object

    def __post_init__(self):
        if not self.conditions:
            raise ContractError("an exception piece needs at least one condition")
        object.__setattr__(self, "conditions", tuple(self.conditions))

    def matches(self, point) -> bool:
        return all(c.holds(point) for c in self.conditions)


@dataclass(frozen=True, eq=False)
class StepKernel:
    """Base grid of block values at resolution ``resolution``, plus overrides.

    ``base`` maps every block index vector in {0..m0-1}^k to a value of the
    space.  ``exceptions`` are checked in order; the first matching piece
    wins, which makes overlapping pieces deterministic.  When
    ``symmetric_base`` is set the base must be invariant under all coordinate
    permutations (checked exhaustively at construction).
    """

    arity: int
    resolution: int
    space: ValueSpace
    base: dict
    exceptions: tuple[ExceptionPiece, ...] = ()
    symmetric_base: bool = False

    def __post_init__(self):
        if self.arity < 1:
            raise ContractError("arity must be at least 1")
        if self.resolution < 1:
            raise ContractError("base resolution must be at least 1")
        object.__setattr__(self, "exceptions", tuple(self.exceptions))
        expected = set(itertools.product(range(self.resolution), repeat=self.arity))
        got = set(self.base)
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise ContractError(
                f"base must cover exactly the {self.resolution}^{self.arity} blocks"
                f" (missing {missing}, unexpected {extra})"
            )
        for blocks, value in self.base.items():
            if not self.space.contains(value):
                raise ContractError(f"base value {value!r} at {blocks} is outside the space")
        for piece in self.exceptions:
            for cond in piece.conditions:
                coords = (
                    (cond.coord,) if isinstance(cond, CoordIs) else (cond.first, cond.second)
                )
                for c in coords:
                    if not 1 <= c <= self.arity:
                        raise ContractError(f"override coordinate {c} outside 1..{self.arity}")
            if not self.space.contains(piece.value):
                raise ContractError(f"override value {piece.value!r} is outside the space")
        if self.symmetric_base:
            self._check_symmetric_base()
        # repeat pattern -> value of its first matching piece, see generic_value
        object.__setattr__(self, "_pattern_overrides", {})

    def _check_symmetric_base(self):
        # adjacent transpositions generate every permutation, so invariance
        # under each of them at every block is full permutation symmetry
        for blocks in itertools.product(range(self.resolution), repeat=self.arity):
            v = self.base[blocks]
            for i in range(self.arity - 1):
                swapped = blocks[:i] + (blocks[i + 1], blocks[i]) + blocks[i + 2:]
                if self.base[swapped] != v:
                    raise ContractError(
                        f"base is not permutation symmetric at block {blocks}"
                    )

    def _check_point(self, point) -> tuple[Fraction, ...]:
        pt = tuple(as_fraction(x) for x in point)
        if len(pt) != self.arity:
            raise ContractError(f"expected {self.arity} coordinates, got {len(pt)}")
        for x in pt:
            if not 0 <= x < 1:
                raise DomainError(f"coordinate {x} outside [0, 1)")
        return pt

    def value_at(self, point):
        """Pointwise value: first matching exception piece, else the base."""
        pt = self._check_point(point)
        for piece in self.exceptions:
            if piece.matches(pt):
                return piece.value
        return self.base[tuple(block_of(x, self.resolution) for x in pt)]

    def generic_value(self, blocks: tuple[int, ...], pattern: tuple[int, ...]):
        """``value_at`` at every point with these base blocks and repeat pattern.

        It holds at the points whose coordinates avoid every ``CoordIs``
        constant; ``blocks`` are their base block indices and ``pattern``
        their ``repeat_pattern``.  Proof: no coordinate equals a constant, so no
        ``CoordIs`` condition holds and no piece containing one matches.
        ``CoordsEqual(i, j)`` holds exactly where coordinates i and j are
        equal, that is where ``pattern[i-1] == pattern[j-1]``.  So a piece
        matches at every such point or at none: exactly when it is made only
        of ``CoordsEqual`` conditions that the pattern satisfies.
        ``value_at`` returns the first matching piece's value, else
        ``base[blocks]``, and this method returns the same.  The matching
        piece depends on the pattern alone and is cached per pattern.

        Trusted: the arguments are not checked.
        """
        overrides = self._pattern_overrides
        if pattern not in overrides:
            overrides[pattern] = next(
                (
                    (piece.value,)
                    for piece in self.exceptions
                    if all(
                        isinstance(c, CoordsEqual)
                        and pattern[c.first - 1] == pattern[c.second - 1]
                        for c in piece.conditions
                    )
                ),
                None,
            )
        override = overrides[pattern]
        return self.base[blocks] if override is None else override[0]

    def exception_constants(self) -> frozenset:
        """All constants pinned by single-coordinate override conditions."""
        return frozenset(
            cond.const
            for piece in self.exceptions
            for cond in piece.conditions
            if isinstance(cond, CoordIs)
        )

    def with_exceptions(self, extra) -> "StepKernel":
        """Copy of this kernel with additional override pieces appended."""
        return StepKernel(
            arity=self.arity,
            resolution=self.resolution,
            space=self.space,
            base=dict(self.base),
            exceptions=self.exceptions + tuple(extra),
            symmetric_base=self.symmetric_base,
        )

    @classmethod
    def from_flat(cls, arity, resolution, space, flat_values, exceptions=(), symmetric_base=False):
        """Build from a row-major flat list of ``resolution**arity`` values."""
        flat = list(flat_values)
        # resolution**arity exceeds len(flat) once arity passes its bit length;
        # say so without computing a power that may have millions of digits
        if resolution >= 2 and arity > len(flat).bit_length():
            raise ContractError(
                f"expected {resolution}^{arity} base values, got {len(flat)}"
            )
        if len(flat) != resolution**arity:
            raise ContractError(
                f"expected {resolution**arity} base values, got {len(flat)}"
            )
        base = {}
        for i, blocks in enumerate(itertools.product(range(resolution), repeat=arity)):
            base[blocks] = flat[i]
        return cls(
            arity=arity,
            resolution=resolution,
            space=space,
            base=base,
            exceptions=tuple(exceptions),
            symmetric_base=symmetric_base,
        )
