"""Closed cylindrical constraint systems over kernel evaluations.

A system quantifies ``variables`` points of [0,1) (over all distinct tuples
or over all tuples with repeats) and asserts a conjunction of atoms.  Each
atom reads the kernel at one or more slots, where a slot is a tuple of
variable indices of length equal to the kernel arity, and states a closed
predicate on those values.  Every atom also has an epsilon-relaxed reading
used when values are only known up to the space metric.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

from .errors import ContractError
from .rational import as_fraction
from .values import (
    INFINITY,
    BoundedInterval,
    CompactifiedRay,
    FiniteMetric,
    ValueSpace,
)

VarTuple = tuple[int, ...]


def _as_var_tuple(slot) -> VarTuple:
    t = tuple(int(v) for v in slot)
    if not t:
        raise ContractError("a slot needs at least one variable index")
    return t


@dataclass(frozen=True)
class EqualityAtom:
    """The kernel takes equal values at two slots.

    Relaxed reading: the two values are within 2*eps of each other, the
    slack both sides would accrue if each drifted by eps.
    """

    left: VarTuple
    right: VarTuple

    def __post_init__(self):
        object.__setattr__(self, "left", _as_var_tuple(self.left))
        object.__setattr__(self, "right", _as_var_tuple(self.right))

    def slots(self) -> tuple[VarTuple, ...]:
        return (self.left, self.right)

    def canonical(self) -> "EqualityAtom":
        lo, hi = sorted((self.left, self.right))
        return EqualityAtom(lo, hi)

    def satisfied(self, val, space: ValueSpace, eps: Fraction) -> bool:
        return space.dist(val(self.left), val(self.right)) <= 2 * eps

    def describe(self) -> str:
        return f"f{self.left} = f{self.right}"


@dataclass(frozen=True)
class ZeroProductAtom:
    """The product of the kernel values over the slots vanishes.

    Exactly: at least one slot value is the zero of the space.  Relaxed: at
    least one slot value lies within eps of it.
    """

    factors: tuple[VarTuple, ...]

    def __post_init__(self):
        if not self.factors:
            raise ContractError("a zero-product atom needs at least one factor")
        object.__setattr__(self, "factors", tuple(_as_var_tuple(s) for s in self.factors))

    def slots(self) -> tuple[VarTuple, ...]:
        return self.factors

    def canonical(self) -> "ZeroProductAtom":
        return ZeroProductAtom(tuple(sorted(self.factors)))

    def satisfied(self, val, space: ValueSpace, eps: Fraction) -> bool:
        zero = space.zero_value()
        if zero is None:
            raise ContractError("the value space has no zero element")
        return min(space.dist(val(s), zero) for s in self.factors) <= eps

    def describe(self) -> str:
        return " * ".join(f"f{s}" for s in self.factors) + " = 0"


@dataclass(frozen=True)
class AffineAtom:
    """A linear combination of kernel values is at most a bound.

    Only meaningful over numeric spaces.  Infinite ray values use extended
    arithmetic: positive terms are compared against the bound plus the
    negated negative terms, so inf <= inf + c holds.  The relaxed reading
    moves each value by eps in its favorable direction, through the chart
    for the compactified ray and additively (unclipped) on intervals.

    ``satisfied`` decides on integers: each side is summed as one
    numerator/denominator pair and the sides are compared by cross
    multiplication, which is exact and builds no ``Fraction``.  A value
    that is neither an int nor a ``Fraction`` is taken at its exact value
    (``as_fraction``).
    """

    terms: tuple[tuple[Fraction, VarTuple], ...]
    bound: Fraction

    def __post_init__(self):
        if not self.terms:
            raise ContractError("an affine atom needs at least one term")
        terms = tuple((as_fraction(c), _as_var_tuple(s)) for c, s in self.terms)
        for c, _ in terms:
            if c == 0:
                raise ContractError("affine coefficients must be nonzero")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "bound", as_fraction(self.bound))

    def slots(self) -> tuple[VarTuple, ...]:
        return tuple(s for _, s in self.terms)

    def canonical(self) -> "AffineAtom":
        return AffineAtom(tuple(sorted(self.terms, key=lambda t: (t[1], t[0]))), self.bound)

    def satisfied(self, val, space: ValueSpace, eps: Fraction) -> bool:
        if isinstance(space, FiniteMetric):
            raise ContractError("affine atoms need a numeric value space")
        # a reader from _AtomChecker brings its memo of _shift_toward
        shift = getattr(val, "shift", None) or (
            lambda v, favor_small: _shift_toward(space, v, eps, favor_small)
        )
        # lhs = ln/ld sums the positive terms, rhs = rn/rd is the bound
        # minus the negative ones; an infinite value makes its side infinite
        ln, ld = 0, 1
        rn, rd = self.bound.numerator, self.bound.denominator
        lhs_inf = rhs_inf = False
        for c, s in self.terms:
            v = val(s)
            positive = c.numerator > 0
            if eps:
                v = shift(v, positive)
            if v is INFINITY:
                if positive:
                    lhs_inf = True
                else:
                    rhs_inf = True
                continue
            if type(v) is not int and type(v) is not Fraction:
                v = as_fraction(v)
            # c * v as n/d
            n, d = c.numerator * v.numerator, c.denominator * v.denominator
            if positive:
                ln, ld = ln * d + n * ld, ld * d
            else:
                rn, rd = rn * d - n * rd, rd * d
        if lhs_inf:
            return rhs_inf
        return rhs_inf or ln * rd <= rn * ld

    def describe(self) -> str:
        parts = " + ".join(f"({c})*f{s}" for c, s in self.terms)
        return f"{parts} <= {self.bound}"


def _shift_toward(space: ValueSpace, v, eps: Fraction, favor_small: bool):
    """Move v by eps of metric slack in the requested direction."""
    if isinstance(space, CompactifiedRay):
        s = space.chart(v)
        s = max(Fraction(0), s - eps) if favor_small else min(Fraction(1), s + eps)
        return space.chart_inverse(s)
    return v - eps if favor_small else v + eps


@dataclass(frozen=True)
class FiniteValuesAtom:
    """The kernel value at one slot lies in a fixed finite set.

    Membership in a finite set is a closed condition with no useful
    relaxation at the tolerances used here, so the relaxed reading is the
    exact one.
    """

    slot: VarTuple
    allowed: frozenset

    def __post_init__(self):
        object.__setattr__(self, "slot", _as_var_tuple(self.slot))
        allowed = frozenset(self.allowed)
        if not allowed:
            raise ContractError("a finite-values atom needs a nonempty value set")
        object.__setattr__(self, "allowed", allowed)

    def slots(self) -> tuple[VarTuple, ...]:
        return (self.slot,)

    def canonical(self) -> "FiniteValuesAtom":
        return self

    def satisfied(self, val, space: ValueSpace, eps: Fraction) -> bool:
        return val(self.slot) in self.allowed

    def describe(self) -> str:
        shown = ", ".join(sorted(repr(v) for v in self.allowed))
        return f"f{self.slot} in {{{shown}}}"


@dataclass(frozen=True)
class TableAtom:
    """The joint value vector over the slots matches an allowed row.

    Relaxed: some allowed row is within eps of the observed vector in every
    position.
    """

    columns: tuple[VarTuple, ...]
    rows: frozenset

    def __post_init__(self):
        if not self.columns:
            raise ContractError("a table atom needs at least one column")
        columns = tuple(_as_var_tuple(s) for s in self.columns)
        rows = frozenset(tuple(r) for r in self.rows)
        if not rows:
            raise ContractError("a table atom needs at least one row")
        for r in rows:
            if len(r) != len(columns):
                raise ContractError("table rows must match the column count")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    def slots(self) -> tuple[VarTuple, ...]:
        return self.columns

    def canonical(self) -> "TableAtom":
        return self

    def satisfied(self, val, space: ValueSpace, eps: Fraction) -> bool:
        got = tuple(val(s) for s in self.columns)
        if eps == 0:
            return got in self.rows
        return any(
            all(space.dist(g, r) <= eps for g, r in zip(got, row)) for row in self.rows
        )

    def describe(self) -> str:
        cols = ", ".join(f"f{s}" for s in self.columns)
        return f"({cols}) in table[{len(self.rows)} rows]"


ConstraintAtom = Union[EqualityAtom, ZeroProductAtom, AffineAtom, FiniteValuesAtom, TableAtom]

MODES = ("distinct", "multiset")


@dataclass(frozen=True)
class ConstraintSystem:
    """Conjunction of atoms quantified over tuples of ``variables`` points.

    Mode "distinct" quantifies over tuples with pairwise distinct entries,
    mode "multiset" over all tuples.  ``arity`` is the kernel arity every
    slot must have.
    """

    arity: int
    variables: int
    mode: str
    atoms: tuple[ConstraintAtom, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ContractError("arity must be at least 1")
        if self.variables < 1:
            raise ContractError("a system needs at least one variable")
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}, got {self.mode!r}")
        atoms = tuple(self.atoms)
        if not atoms:
            raise ContractError("a system needs at least one atom")
        for atom in atoms:
            for slot in atom.slots():
                if len(slot) != self.arity:
                    raise ContractError(
                        f"slot {slot} has length {len(slot)}, expected arity {self.arity}"
                    )
                for v in slot:
                    if not 1 <= v <= self.variables:
                        raise ContractError(
                            f"variable {v} outside 1..{self.variables} in slot {slot}"
                        )
        object.__setattr__(self, "atoms", atoms)

    @functools.cached_property
    def _atom_plan(self) -> tuple:
        """What every ``_AtomChecker`` of this system compiles, built once.

        ``(slots, compiled, shapes)``: ``slots`` is ``all_slots()``;
        ``compiled`` holds per atom the atom, its distinct slot positions,
        the getter of its memo key and the index of its shape; ``shapes``
        counts the distinct shapes.  It depends only on the atoms, which a
        frozen system never changes; the memos stay with each checker.
        """
        slots = self.all_slots()
        where = {s: k for k, s in enumerate(slots)}
        shapes: dict = {}
        compiled = []
        for atom in self.atoms:
            shape, used = _shape(atom)
            positions = tuple(where[s] for s in used)
            index = shapes.setdefault(shape, len(shapes))
            compiled.append((atom, positions, operator.itemgetter(*positions), index))
        return slots, tuple(compiled), len(shapes)

    def all_slots(self) -> tuple[VarTuple, ...]:
        seen = []
        for atom in self.atoms:
            for s in atom.slots():
                if s not in seen:
                    seen.append(s)
        return tuple(seen)

    def validate_for_space(self, space: ValueSpace):
        """Reject atom/space pairings with no defined meaning."""
        for atom in self.atoms:
            if isinstance(atom, AffineAtom) and isinstance(space, FiniteMetric):
                raise ContractError("affine atoms need a numeric value space")
            if isinstance(atom, ZeroProductAtom) and space.zero_value() is None:
                raise ContractError("zero-product atoms need a space with a zero element")

    def assignments(self, points: Iterable) -> Iterator[tuple]:
        pts = list(points)
        if self.mode == "distinct":
            yield from itertools.permutations(pts, self.variables)
        else:
            yield from itertools.product(pts, repeat=self.variables)


@dataclass(frozen=True)
class Violation:
    """One failed atom at one tuple assignment."""

    assignment: tuple
    atom: ConstraintAtom
    detail: str


class _SlotValues(dict):
    """An atom's ``val``: the values at its slots, read by calling.

    ``shift(v, favor_small)`` is the checker's memo of ``_shift_toward``
    for its space and eps, which ``AffineAtom.satisfied`` uses.
    """

    __slots__ = ("shift",)
    __call__ = dict.__getitem__


class _AtomChecker:
    """Verdicts of a system's atoms for one space and eps, memoised on values.

    Every atom reads values only through ``val(slot)`` and decides only from
    ``==``, ``space.dist``, arithmetic and ``in``, so with the space and eps
    fixed its verdict is a function of the values at its slots.  Values are
    interned to small ints, and verdicts are kept keyed on the ids at an
    atom's distinct slots, so ``satisfied`` runs once per value pattern.

    Atoms that are one predicate on renamed slots share one memo.  An
    atom's shape is the atom with its distinct slots renamed ``(0,)``,
    ``(1,)``, ... in order of first use, an affine atom's terms sorted by
    coefficient first (``_shape``); two atoms with equal shapes differ only
    in which slots they read, in the same order up to the order of a sum's
    terms, and ``satisfied`` reads a slot only to get its value, so they
    take the same verdict on the same values at corresponding slots.
    Shapes compare every other field (coefficients, bound, allowed values,
    rows), so atoms that differ in any of them keep separate memos.
    ``metric_system()``'s six triangle renamings fall into one shape and its
    three symmetry equalities into another.  Affine atoms also share one
    memo of ``_shift_toward`` per (value, direction).  Every verdict comes
    from ``failing``, through a checker that lives for one call; the memo of
    a shape holds at most (distinct values) ** (slots of the shape) entries.
    The slots, positions, key getters and shapes come from the system's
    ``_atom_plan``, compiled once per system; the memos, the interned
    values and the shift memo belong to the checker.
    """

    def __init__(self, system: ConstraintSystem, space: ValueSpace, eps: Fraction):
        self.space = space
        self.eps = eps
        self.slots, compiled, shapes = system._atom_plan
        memos = [{} for _ in range(shapes)]
        # per atom: its distinct slot positions, the getter of its memo key,
        # the memo of its shape
        self._compiled = [
            (atom, positions, key_of, memos[shape]) for atom, positions, key_of, shape in compiled
        ]
        self._ids: dict = {}
        self._values: list = []
        # value -> shifted value, for favor_small False and True
        self._shifted: tuple[dict, dict] = ({}, {})

    def _shift(self, value, favor_small: bool):
        memo = self._shifted[favor_small]
        shifted = memo.get(value)
        if shifted is None:
            shifted = memo[value] = _shift_toward(self.space, value, self.eps, favor_small)
        return shifted

    def intern(self, value) -> int:
        vid = self._ids.get(value)
        if vid is None:
            vid = self._ids[value] = len(self._values)
            self._values.append(value)
        return vid

    def failing(self, ids) -> Iterator[int]:
        """Indices of the failing atoms, in order, for one tuple of points.

        ``ids[k]`` is the interned id of the value at ``self.slots[k]``.
        """
        values = self._values
        for n, (atom, positions, key_of, memo) in enumerate(self._compiled):
            key = key_of(ids)
            verdict = memo.get(key)
            if verdict is None:
                at = _SlotValues({self.slots[k]: values[ids[k]] for k in positions})
                at.shift = self._shift
                verdict = memo[key] = atom.satisfied(at, self.space, self.eps)
            if not verdict:
                yield n


def _tuple_getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``operator.itemgetter(*positions)``, but a 1-tuple for one position."""
    if len(positions) == 1:
        (j,) = positions
        return lambda seq: (seq[j],)
    return operator.itemgetter(*positions)


def _failing_keys(checker: _AtomChecker, picks, read) -> Callable[[Iterable], Iterator[tuple]]:
    """A function from keys to ``(key, failing atom indices)`` for each key
    where an atom fails, in key order.

    ``picks[k](key)`` names the value at ``checker.slots[k]``; ``read(name)``
    runs once per name, in order of first use.  A key's id vector (the
    interned ids at its slots) decides it, so each distinct vector is
    decided once.  Both memos, name -> id and id vector -> failing atoms,
    last as long as the returned function.
    """
    named: dict = {}
    decided: dict[tuple[int, ...], tuple[int, ...]] = {}

    def name_id(name) -> int:
        vid = named.get(name)
        if vid is None:
            vid = named[name] = checker.intern(read(name))
        return vid

    def failing_keys(keys: Iterable) -> Iterator[tuple]:
        # a passing key yields nothing, so a sweep runs in this one frame
        for key in keys:
            try:
                ids = tuple([named[pick(key)] for pick in picks])
            except KeyError:
                ids = tuple([name_id(pick(key)) for pick in picks])
            failed = decided.get(ids)
            if failed is None:
                failed = decided[ids] = tuple(checker.failing(ids))
            if failed:
                yield key, failed

    return failing_keys


def violations(
    system: ConstraintSystem,
    evaluate: Callable[[tuple], object],
    space: ValueSpace,
    points: Iterable,
    eps: Fraction = Fraction(0),
) -> list[Violation]:
    """All (assignment, atom) pairs on which the system fails.

    ``evaluate`` maps a point tuple of length ``arity`` to a value.  It
    must be pure: the sweep calls it lazily, at most once per point tuple,
    reading each assignment's slots in the order of ``system.all_slots()``,
    and decides each distinct vector of slot values once
    (``_failing_keys``).  Violations come in assignment order, atoms in
    system order.
    """
    eps = as_fraction(eps)
    pts = tuple(points)
    checker = _AtomChecker(system, space, eps)
    picks = tuple(_tuple_getter(tuple(v - 1 for v in slot)) for slot in checker.slots)
    sweep = _failing_keys(checker, picks, lambda key: evaluate(tuple([pts[i] for i in key])))
    details: dict[int, str] = {}
    found: list[Violation] = []
    for idx, failed in sweep(system.assignments(range(len(pts)))):
        assignment = tuple([pts[i] for i in idx])
        for n in failed:
            atom = system.atoms[n]
            if n not in details:
                details[n] = atom.describe()
            found.append(Violation(assignment, atom, details[n]))
    return found


def instantiate_over(atoms: Iterable[ConstraintAtom], schema_vars: int, variables: int):
    """Copies of the atoms under every injective renaming into 1..variables.

    Canonical duplicates are dropped, so symmetric patterns collapse to one
    atom per orbit.  Order is deterministic: renamings in lexicographic
    order, atoms in input order.
    """
    if schema_vars > variables:
        raise ContractError("schema uses more variables than the target system")
    out: list[ConstraintAtom] = []
    seen = set()
    for image in itertools.permutations(range(1, variables + 1), schema_vars):
        rename = {i + 1: image[i] for i in range(schema_vars)}
        for atom in atoms:
            renamed = _rename_atom(atom, rename).canonical()
            if renamed not in seen:
                seen.add(renamed)
                out.append(renamed)
    return tuple(out)


def _rename_atom(atom: ConstraintAtom, rename: dict[int, int]) -> ConstraintAtom:
    return _replace_slots(atom, lambda slot: tuple(rename[v] for v in slot))


def _replace_slots(atom: ConstraintAtom, r: Callable[[VarTuple], VarTuple], make=replace):
    """The atom with every slot s replaced by ``r(s)``, built by ``make(atom, **fields)``."""
    if isinstance(atom, EqualityAtom):
        return make(atom, left=r(atom.left), right=r(atom.right))
    if isinstance(atom, ZeroProductAtom):
        return make(atom, factors=tuple(r(s) for s in atom.factors))
    if isinstance(atom, AffineAtom):
        return make(atom, terms=tuple((c, r(s)) for c, s in atom.terms))
    if isinstance(atom, FiniteValuesAtom):
        return make(atom, slot=r(atom.slot))
    if isinstance(atom, TableAtom):
        return make(atom, columns=tuple(r(s) for s in atom.columns))
    raise ContractError(f"unknown atom type {type(atom).__name__}")


def _unchecked_replace(atom: ConstraintAtom, **fields) -> ConstraintAtom:
    """``dataclasses.replace`` without ``__post_init__``, for fields already valid."""
    new = object.__new__(type(atom))
    new.__dict__.update(vars(atom), **fields)
    return new


def _shape(atom: ConstraintAtom) -> tuple[ConstraintAtom, tuple[VarTuple, ...]]:
    """The atom with its slots renamed ``(0,)``, ``(1,)``, ... in order of first
    use (an affine atom's terms sorted stably by coefficient first, since a
    sum is independent of their order), and its distinct slots in that order."""
    if isinstance(atom, AffineAtom):
        atom = _unchecked_replace(atom, terms=tuple(sorted(atom.terms, key=operator.itemgetter(0))))
    order: dict[VarTuple, int] = {}
    for s in atom.slots():
        order.setdefault(s, len(order))
    return _replace_slots(atom, lambda s: (order[s],), _unchecked_replace), tuple(order)


def symmetry_atoms(arity: int, variables: int) -> tuple[ConstraintAtom, ...]:
    """Equalities forcing invariance under argument permutations.

    One equality per unordered pair {slot, permuted slot} over each choice
    of ``arity`` distinct variables.
    """
    if arity > variables:
        raise ContractError("schema uses more variables than the target system")
    base = tuple(range(1, arity + 1))
    atoms = [
        EqualityAtom(base, perm)
        for perm in itertools.permutations(base)
        if perm != base
    ]
    return instantiate_over(atoms, arity, variables)


def triangle_free_system(mode: str = "distinct") -> ConstraintSystem:
    """No triangle may have all three edges nonzero, and edges are symmetric.

    Binary kernel over three points; multiset mode also outlaws degenerate
    triangles through repeated points.  The zero-product factors are written
    with sorted slots, which the bundled symmetry atoms justify.
    """
    atoms = symmetry_atoms(2, 3) + (ZeroProductAtom(((1, 2), (1, 3), (2, 3))),)
    return ConstraintSystem(arity=2, variables=3, mode=mode, atoms=atoms)


def metric_system() -> ConstraintSystem:
    """Symmetry plus the triangle inequality over all triples with repeats."""
    triangle = AffineAtom(
        ((Fraction(1), (1, 3)), (Fraction(-1), (1, 2)), (Fraction(-1), (2, 3))),
        Fraction(0),
    )
    atoms = symmetry_atoms(2, 3) + instantiate_over((triangle,), 3, 3)
    return ConstraintSystem(arity=2, variables=3, mode="multiset", atoms=atoms)


def _set_partitions(items: tuple[int, ...]):
    """All partitions of the items into nonempty groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


#: How many value combinations ``proven_infeasible`` scans per tuple
#: pattern; a pattern with more is skipped rather than decided.
_PROBE_BUDGET = 200_000


def proven_infeasible(
    system: ConstraintSystem,
    space: ValueSpace,
    num_points: int,
    symmetrize: bool = False,
) -> bool:
    """True when some forced tuple pattern admits no satisfying values.

    Sound one-way test.  In multiset mode every identification pattern of
    the variables (with at most ``num_points`` groups) is realized by some
    tuple, and identified variables collapse slots onto a common unknown;
    in distinct mode only the all-distinct pattern applies.  With
    ``symmetrize`` slots are further identified up to argument order, which
    matches a repair that is forced to produce a symmetric function.  If
    under any pattern no assignment of values to the collapsed slots
    satisfies every atom, no function whatsoever can satisfy the quantified
    system, and the repair reports it infeasible.

    Candidate values per unknown come from finite-values atoms, or from the
    label set of a finite metric; patterns with an unbounded unknown, or
    with more than ``_PROBE_BUDGET`` combinations to scan, are skipped
    rather than decided.  One ``_AtomChecker`` per call decides every
    combination, reusing its verdicts across combinations and patterns.
    """
    if num_points < 1:
        return False
    if system.mode == "distinct":
        if num_points < system.variables:
            return False
        patterns = [[[v] for v in range(1, system.variables + 1)]]
    else:
        patterns = [
            p
            for p in _set_partitions(tuple(range(1, system.variables + 1)))
            if len(p) <= num_points
        ]
    checker = _AtomChecker(system, space, Fraction(0))
    for pattern in patterns:
        rep = {}
        for group in pattern:
            r = min(group)
            for v in group:
                rep[v] = r

        def key_of(slot: VarTuple) -> VarTuple:
            mapped = tuple(rep[v] for v in slot)
            return tuple(sorted(mapped)) if symmetrize else mapped

        menus: dict[VarTuple, list] = {}
        for atom in system.atoms:
            if isinstance(atom, FiniteValuesAtom):
                k = key_of(atom.slot)
                allowed = sorted(atom.allowed, key=repr)
                if k in menus:
                    menus[k] = [v for v in menus[k] if v in allowed]
                else:
                    menus[k] = allowed
        keys = sorted({key_of(s) for s in checker.slots})
        if isinstance(space, FiniteMetric):
            for k in keys:
                menus.setdefault(k, list(space.labels))
        if any(k not in menus for k in keys):
            continue
        if math.prod(len(menus[k]) for k in keys) > _PROBE_BUDGET:
            continue
        # the id at each slot is the one chosen for its collapsed key
        ids_at = _tuple_getter(tuple(keys.index(key_of(s)) for s in checker.slots))
        menu_ids = [[checker.intern(v) for v in menus[k]] for k in keys]
        if not any(
            next(checker.failing(ids_at(combo)), None) is None
            for combo in itertools.product(*menu_ids)
        ):
            return True
    return False
