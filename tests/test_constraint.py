"""Cylindrical constraint systems: atoms, relaxation, infeasibility probe."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    reference_affine_satisfied,
    reference_failing_keys,
    reference_proven_infeasible,
    reference_violations,
)
from kernel_repair.constraint import (
    AffineAtom,
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    TableAtom,
    ZeroProductAtom,
    _AtomChecker,
    _failing_keys,
    instantiate_over,
    metric_system,
    proven_infeasible,
    symmetry_atoms,
    triangle_free_system,
    violations,
)
from kernel_repair.demos import antisymmetry_system, diagonal_contrast_system
from kernel_repair.errors import ContractError
from kernel_repair.values import (
    INFINITY,
    BoundedInterval,
    CompactifiedRay,
    FiniteMetric,
)

F = Fraction

UNIT = BoundedInterval(F(1))
RAY = CompactifiedRay()


def fixed(mapping):
    """Slot evaluator backed by a dict."""
    return lambda slot: mapping[slot]


# --- equality ---


def test_equality_exact_and_relaxed():
    atom = EqualityAtom((1, 2), (2, 1))
    val = fixed({(1, 2): F(1, 2), (2, 1): F(1, 2)})
    assert atom.satisfied(val, UNIT, F(0))
    apart = fixed({(1, 2): F(0), (2, 1): F(1)})
    assert not atom.satisfied(apart, UNIT, F(0))
    # distance 1 exceeds 2*eps at eps=0.4: the asymmetric pair stays rejected
    assert not atom.satisfied(apart, UNIT, F(2, 5))
    assert atom.satisfied(apart, UNIT, F(1, 2))


def test_equality_canonical_orders_slots():
    assert EqualityAtom((2, 1), (1, 2)).canonical() == EqualityAtom((1, 2), (2, 1))


# --- zero product ---


def test_zero_product_exact():
    atom = ZeroProductAtom(((1, 2), (2, 3), (1, 3)))
    all_zero = fixed({(1, 2): F(0), (2, 3): F(0), (1, 3): F(0)})
    assert atom.satisfied(all_zero, UNIT, F(0))
    one_zero = fixed({(1, 2): F(1), (2, 3): F(0), (1, 3): F(1)})
    assert atom.satisfied(one_zero, UNIT, F(0))
    triangle = fixed({(1, 2): F(1), (2, 3): F(1), (1, 3): F(1)})
    assert not atom.satisfied(triangle, UNIT, F(0))


def test_zero_product_relaxed_uses_distance_to_zero():
    atom = ZeroProductAtom(((1, 2),))
    val = fixed({(1, 2): F(1, 20)})
    assert not atom.satisfied(val, UNIT, F(0))
    assert atom.satisfied(val, UNIT, F(1, 10))


def test_zero_product_needs_a_zero():
    atom = ZeroProductAtom(((1, 2),))
    no_zero = FiniteMetric(labels=("a", "b"), distances=((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(ContractError):
        atom.satisfied(fixed({(1, 2): "a"}), no_zero, F(0))


# --- affine ---


TRIANGLE = AffineAtom(((F(1), (1, 3)), (F(-1), (1, 2)), (F(-1), (2, 3))), F(0))


def test_affine_triangle_exact():
    ok = fixed({(1, 3): F(1, 2), (1, 2): F(3, 10), (2, 3): F(1, 5)})
    assert TRIANGLE.satisfied(ok, UNIT, F(0))
    bad = fixed({(1, 3): F(1), (1, 2): F(3, 10), (2, 3): F(1, 5)})
    assert not TRIANGLE.satisfied(bad, UNIT, F(0))


def test_affine_triangle_relaxed():
    # 0.65 against 0.3 + 0.3: each slot drifts by eps = 0.02 in its favor
    val = fixed({(1, 3): F(13, 20), (1, 2): F(3, 10), (2, 3): F(3, 10)})
    assert not TRIANGLE.satisfied(val, UNIT, F(0))
    assert TRIANGLE.satisfied(val, UNIT, F(1, 50))


def test_affine_extended_arithmetic_on_the_ray():
    inf_rhs = fixed({(1, 3): F(5), (1, 2): INFINITY, (2, 3): F(0)})
    assert TRIANGLE.satisfied(inf_rhs, RAY, F(0))
    inf_both = fixed({(1, 3): INFINITY, (1, 2): INFINITY, (2, 3): F(0)})
    assert TRIANGLE.satisfied(inf_both, RAY, F(0))
    inf_lhs = fixed({(1, 3): INFINITY, (1, 2): F(1), (2, 3): F(1)})
    assert not TRIANGLE.satisfied(inf_lhs, RAY, F(0))


def test_affine_relaxation_on_the_ray_moves_through_the_chart():
    # f(1,3) = inf vs f(1,2) = 9, chart(9) = 0.9.  Tiny eps leaves a huge
    # finite gap (99 vs ~10); eps 0.05 shifts both charts to 0.95, meeting
    # at 19; eps 0.1 pushes the bound side to chart 1 = infinity
    atom = AffineAtom(((F(1), (1, 3)), (F(-1), (1, 2))), F(0))
    val = fixed({(1, 3): INFINITY, (1, 2): F(9)})
    assert not atom.satisfied(val, RAY, F(0))
    assert not atom.satisfied(val, RAY, F(1, 100))
    assert atom.satisfied(val, RAY, F(1, 20))
    assert atom.satisfied(val, RAY, F(1, 10))


def test_affine_rejects_finite_metric_space():
    space = FiniteMetric(labels=("a", "b"), distances=((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(ContractError):
        TRIANGLE.satisfied(fixed({}), space, F(0))


def test_affine_rejects_zero_coefficient():
    with pytest.raises(ContractError):
        AffineAtom(((F(0), (1, 2)),), F(0))


@st.composite
def affine_case(draw):
    """An affine atom of 1-6 terms and values at its slots, on an interval or the ray."""
    space = draw(st.sampled_from((UNIT, BoundedInterval(F(5, 2)), RAY)))
    slots = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    numerator = st.integers(-9, 9).filter(bool)
    coeff = st.builds(F, numerator, st.sampled_from((1, 2, 3, 7, 12)))
    terms = draw(st.lists(st.tuples(coeff, st.sampled_from(slots)), min_size=1, max_size=6))
    bound = draw(st.builds(F, st.integers(-20, 20), st.sampled_from((1, 2, 5, 9))))
    top = 4 if space is RAY else space.diameter
    value = st.one_of(
        st.fractions(min_value=0, max_value=top, max_denominator=30),
        st.integers(0, math.floor(top)),
    )
    if space is RAY:
        value = st.one_of(value, st.just(INFINITY), st.integers(5, 1000))
    vals = {s: draw(value) for _, s in terms}
    eps = draw(st.sampled_from((F(0), F(1, 50), F(1, 10), F(1, 3))))
    return AffineAtom(tuple(terms), bound), vals, space, eps


@settings(max_examples=400)
@given(affine_case())
@example((TRIANGLE, {(1, 3): INFINITY, (1, 2): INFINITY, (2, 3): 0}, RAY, F(0)))
@example((TRIANGLE, {(1, 3): INFINITY, (1, 2): 1, (2, 3): 0}, RAY, F(1, 3)))
@example((TRIANGLE, {(1, 3): 1, (1, 2): INFINITY, (2, 3): 0}, RAY, F(1, 50)))
@example((AffineAtom(((F(-3, 7), (1, 1)),), F(-2)), {(1, 1): 4}, UNIT, F(1, 10)))
def test_affine_integer_sums_match_the_fraction_reference(case):
    atom, vals, space, eps = case
    want = reference_affine_satisfied(atom, fixed(vals), space, eps)
    assert atom.satisfied(fixed(vals), space, eps) == want
    # the same atom read through a checker, with its memo of the shift
    system = ConstraintSystem(arity=2, variables=3, mode="multiset", atoms=(atom,))
    checker = _AtomChecker(system, space, eps)
    ids = {s: checker.intern(v) for s, v in vals.items()}
    failing = list(checker.failing([ids[slot] for slot in checker.slots]))
    assert failing == ([] if want else [0])


# --- finite values and tables ---


def test_finite_values_is_exact_even_relaxed():
    atom = FiniteValuesAtom((1, 2), frozenset({F(0), F(1)}))
    assert atom.satisfied(fixed({(1, 2): F(1)}), UNIT, F(0))
    near_miss = fixed({(1, 2): F(1, 20)})
    assert not near_miss((1, 2)) in atom.allowed
    assert not atom.satisfied(near_miss, UNIT, F(0))
    assert not atom.satisfied(near_miss, UNIT, F(1, 10))


def test_table_atom_exact_and_relaxed():
    atom = TableAtom(((1, 2), (2, 1)), frozenset({(F(0), F(1)), (F(1), F(0))}))
    assert atom.satisfied(fixed({(1, 2): F(0), (2, 1): F(1)}), UNIT, F(0))
    assert not atom.satisfied(fixed({(1, 2): F(0), (2, 1): F(0)}), UNIT, F(0))
    near = fixed({(1, 2): F(1, 20), (2, 1): F(19, 20)})
    assert not atom.satisfied(near, UNIT, F(0))
    assert atom.satisfied(near, UNIT, F(1, 10))


# --- relaxation properties ---


@st.composite
def atom_and_values(draw):
    grid = st.fractions(min_value=0, max_value=1).map(
        lambda q: q.limit_denominator(16)
    )
    kind = draw(st.sampled_from(("eq", "zero", "affine", "table")))
    slots = ((1, 2), (2, 1), (1, 1))
    vals = {s: draw(grid) for s in slots}
    if kind == "eq":
        atom = EqualityAtom((1, 2), (2, 1))
    elif kind == "zero":
        atom = ZeroProductAtom(slots)
    elif kind == "affine":
        atom = AffineAtom(((F(1), (1, 2)), (F(-1), (2, 1))), draw(grid))
    else:
        atom = TableAtom(((1, 2), (1, 1)), frozenset({(F(0), F(1)), (F(1), F(1))}))
    return atom, fixed(vals)


@given(atom_and_values(), st.fractions(min_value=0, max_value=F(1, 2)), st.fractions(min_value=0, max_value=F(1, 2)))
def test_relaxation_is_monotone_in_eps(pair, eps1, eps2):
    atom, val = pair
    lo, hi = sorted((eps1, eps2))
    if atom.satisfied(val, UNIT, lo):
        assert atom.satisfied(val, UNIT, hi)


@given(atom_and_values())
def test_relaxation_at_zero_is_exact(pair):
    atom, val = pair
    exact = atom.satisfied(val, UNIT, F(0))
    relaxed_at_zero = atom.satisfied(val, UNIT, F(0))
    assert exact == relaxed_at_zero


# --- systems ---


def test_system_shape_validation():
    with pytest.raises(ContractError):
        ConstraintSystem(arity=2, variables=2, mode="distinct", atoms=())
    with pytest.raises(ContractError):
        ConstraintSystem(
            arity=2, variables=2, mode="woop", atoms=(EqualityAtom((1, 2), (2, 1)),)
        )
    with pytest.raises(ContractError):
        ConstraintSystem(
            arity=2, variables=2, mode="distinct", atoms=(EqualityAtom((1, 3), (2, 1)),)
        )
    with pytest.raises(ContractError):
        ConstraintSystem(
            arity=3, variables=3, mode="distinct", atoms=(EqualityAtom((1, 2), (2, 1)),)
        )


def test_assignment_enumeration_counts():
    system = triangle_free_system(mode="distinct")
    assert len(list(system.assignments(["a", "b", "c"]))) == 6
    multi = triangle_free_system(mode="multiset")
    assert len(list(multi.assignments(["a", "b", "c"]))) == 27
    assert ("a", "a", "a") in list(multi.assignments(["a", "b", "c"]))


def test_symmetry_atoms_pair_count():
    # one equality per unordered pair of distinct slot orderings:
    # C(2!, 2) per variable pair, C(3!, 2) = 15 for three variables
    assert len(symmetry_atoms(2, 2)) == 1
    assert len(symmetry_atoms(2, 3)) == 3
    assert len(symmetry_atoms(3, 3)) == 15


def test_metric_system_has_six_triangle_atoms():
    system = metric_system()
    affine = [a for a in system.atoms if isinstance(a, AffineAtom)]
    assert len(affine) == 6
    assert len({a for a in affine}) == 6


def test_instantiate_over_drops_canonical_duplicates():
    atoms = instantiate_over((EqualityAtom((1, 2), (2, 1)),), 2, 3)
    assert len(atoms) == 3
    with pytest.raises(ContractError):
        instantiate_over((EqualityAtom((1, 2), (2, 1)),), 3, 2)


def test_violations_on_triangle_free():
    system = triangle_free_system(mode="distinct")
    pts = (F(1, 10), F(1, 2), F(9, 10))
    assert not violations(system, lambda t: F(0), UNIT, pts)
    found = violations(system, lambda t: F(1), UNIT, pts)
    assert found and all(isinstance(v.atom, ZeroProductAtom) for v in found)


def test_violations_on_metric_distances():
    system = metric_system()
    pts = (F(1, 10), F(1, 2), F(9, 10))
    table = {}
    for a in pts:
        for b in pts:
            table[(a, b)] = F(0) if a == b else F(3, 10)
    assert not violations(system, lambda t: table[t], UNIT, pts)
    # stretch one symmetric pair to 1.0: 1.0 > 0.3 + 0.3
    table[(pts[0], pts[2])] = table[(pts[2], pts[0])] = F(1)
    found = violations(system, lambda t: table[t], UNIT, pts)
    assert found
    assert {type(v.atom) for v in found} == {AffineAtom}


# --- memoised sweep against the plain one ---

LABELS = FiniteMetric(
    labels=("0", "a", "b"),
    distances=((F(0), F(1), F(2)), (F(1), F(0), F(1)), (F(2), F(1), F(0))),
)

#: (space, value menu): values a table may take on each space
SPACE_MENUS = (
    (UNIT, (F(0), F(1, 4), F(1, 2), F(1))),
    (RAY, (F(0), F(1, 3), F(2), INFINITY)),
    (LABELS, ("0", "a", "b")),
)


@st.composite
def sweep_case(draw, least_variables=1):
    space, menu = draw(st.sampled_from(SPACE_MENUS))
    arity = draw(st.integers(1, 2))
    variables = draw(st.integers(least_variables, 3))
    mode = draw(st.sampled_from(("distinct", "multiset")))
    slot = st.tuples(*[st.integers(1, variables)] * arity)
    value = st.sampled_from(menu)
    kinds = ("eq", "zero", "values", "table")
    if not isinstance(space, FiniteMetric):
        kinds += ("affine",)
    atoms = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "eq":
            atoms.append(EqualityAtom(draw(slot), draw(slot)))
        elif kind == "zero":
            factors = draw(st.lists(slot, min_size=1, max_size=3))
            atoms.append(ZeroProductAtom(tuple(factors)))
        elif kind == "values":
            allowed = draw(st.lists(value, min_size=1))
            atoms.append(FiniteValuesAtom(draw(slot), frozenset(allowed)))
        elif kind == "table":
            columns = tuple(draw(st.lists(slot, min_size=1, max_size=2)))
            row = st.tuples(*[value] * len(columns))
            rows = draw(st.lists(row, min_size=1, max_size=4))
            atoms.append(TableAtom(columns, frozenset(rows)))
        else:
            coeff = st.sampled_from((F(1), F(-1), F(2), F(-1, 2)))
            terms = draw(st.lists(st.tuples(coeff, slot), min_size=1, max_size=3))
            bound = draw(st.sampled_from((F(0), F(1, 2), F(-1))))
            atoms.append(AffineAtom(tuple(terms), bound))
    system = ConstraintSystem(arity=arity, variables=variables, mode=mode, atoms=tuple(atoms))
    grid = st.sampled_from([F(j, 8) for j in range(8)])
    points = draw(st.lists(grid, min_size=1, max_size=4, unique=True))
    table = {t: draw(value) for t in itertools.product(points, repeat=arity)}
    eps = draw(st.sampled_from((F(0), F(1, 10), F(1, 3))))
    return system, table, space, points, eps


@given(sweep_case())
def test_memoised_sweep_matches_the_plain_sweep(case):
    system, table, space, points, eps = case
    evaluate = table.__getitem__
    got = violations(system, evaluate, space, points, eps)
    want = reference_violations(system, evaluate, space, points, eps)
    as_rows = lambda vs: [(v.assignment, v.atom, v.detail) for v in vs]
    assert as_rows(got) == as_rows(want)


def test_sweep_evaluates_each_tuple_once_and_each_pattern_once(monkeypatch):
    system = metric_system()
    pts = tuple(F(2 * i + 1, 12) for i in range(6))
    menu = (F(1, 5), F(2, 5), F(3, 5))
    table = {
        (a, b): menu[(i + j) % 3]
        for (i, a), (j, b) in itertools.product(enumerate(pts), repeat=2)
    }
    calls = {"evaluate": 0, "satisfied": 0}

    def evaluate(t):
        calls["evaluate"] += 1
        return table[t]

    for cls in {type(atom) for atom in system.atoms}:
        original = cls.satisfied

        def counted(self, val, space, eps, original=original):
            calls["satisfied"] += 1
            return original(self, val, space, eps)

        monkeypatch.setattr(cls, "satisfied", counted)
    found = violations(system, evaluate, RAY, pts, F(1, 50))
    assert found  # the table is no metric, so the sweep does real work
    assert calls["evaluate"] <= 6**2
    # 3 equalities over 2 slots and 6 triangles over 3 slots, 3 values each;
    # the plain sweep checks all 9 atoms at all 6^3 assignments (1944)
    assert calls["satisfied"] <= 3 * 3**2 + 6 * 3**3


@st.composite
def renamed_sweep_case(draw):
    """A sweep_case whose atoms also read one slot twice, plus every renamed copy.

    The copies come from ``instantiate_over`` under all permutations of the
    variables, so many atoms are one predicate on renamed slots and their
    shapes collide; the atoms that read one slot twice must keep shapes of
    their own.
    """
    system, table, space, points, eps = draw(sweep_case())
    slot = st.tuples(*[st.integers(1, system.variables)] * system.arity)
    s, t = draw(slot), draw(slot)
    menu = sorted(set(table.values()), key=repr)
    row = st.tuples(*[st.sampled_from(menu)] * 3)
    atoms = system.atoms + (
        ZeroProductAtom((s, t, s)),
        TableAtom((s, t, s), frozenset(draw(st.lists(row, min_size=1, max_size=4)))),
    )
    if not isinstance(space, FiniteMetric):
        bound = draw(st.sampled_from((F(0), F(1, 2))))
        atoms += (AffineAtom(((F(1), s), (F(-1), t), (F(1, 2), s)), bound),)
    atoms += instantiate_over(atoms, system.variables, system.variables)
    system = ConstraintSystem(
        arity=system.arity, variables=system.variables, mode=system.mode, atoms=atoms
    )
    return system, table, space, points, eps


@settings(deadline=None)
@given(renamed_sweep_case())
def test_sweep_with_shared_shapes_matches_the_plain_sweep(case):
    system, table, space, points, eps = case
    evaluate = table.__getitem__
    got = violations(system, evaluate, space, points, eps)
    want = reference_violations(system, evaluate, space, points, eps)
    as_rows = lambda vs: [(v.assignment, v.atom, v.detail) for v in vs]
    assert as_rows(got) == as_rows(want)


@settings(deadline=None)
@given(renamed_sweep_case())
def test_sweep_evaluates_tuples_in_the_order_the_plain_sweep_first_reads_them(case):
    system, table, space, points, eps = case
    got, want = [], []

    def recorder(calls):
        return lambda t: calls.append(t) or table[t]

    violations(system, recorder(got), space, points, eps)
    reference_violations(system, recorder(want), space, points, eps)
    # the plain sweep reads every slot of every assignment anew
    assert got == list(dict.fromkeys(want))


def count_satisfied(monkeypatch, atoms) -> dict:
    """Count ``satisfied`` calls on the classes of the given atoms."""
    calls = {"satisfied": 0}
    for cls in {type(atom) for atom in atoms}:
        original = cls.satisfied

        def counted(self, val, space, eps, original=original):
            calls["satisfied"] += 1
            return original(self, val, space, eps)

        monkeypatch.setattr(cls, "satisfied", counted)
    return calls


def test_sweep_shares_verdicts_between_renamed_atoms(monkeypatch):
    system = metric_system()
    pts = tuple(F(2 * i + 1, 12) for i in range(6))
    menu = (F(1, 5), F(2, 5), F(3, 5))
    table = {
        (a, b): menu[(i + j) % 3]
        for (i, a), (j, b) in itertools.product(enumerate(pts), repeat=2)
    }
    calls = count_satisfied(monkeypatch, system.atoms)
    found = violations(system, table.__getitem__, RAY, pts, F(1, 50))
    assert found
    # the 3 symmetry equalities are one shape over 2 slots and the 6
    # triangles one shape over 3 slots, 3 values each
    assert calls["satisfied"] <= 3**2 + 3**3


def test_affine_atoms_whose_terms_differ_in_order_share_a_shape():
    # the triangles' terms come sorted by slot, so the slot of their one
    # positive term moves among them; sorted by coefficient they are one shape
    assert metric_system()._atom_plan[2] == 2


@st.composite
def failing_keys_case(draw):
    """A sweep_case's system with random keys, picks of names and values.

    A key is a tuple of small ints; each slot's pick reads a few of its
    positions as the name of the slot's value, so names repeat within and
    across keys.
    """
    system, _, space, _, eps = draw(sweep_case())
    menu = dict(SPACE_MENUS)[space]
    width = draw(st.integers(1, 3))
    positions = st.lists(st.integers(0, width - 1), min_size=1, max_size=2)
    picks = tuple(
        (lambda key, at=tuple(draw(positions)): tuple(key[j] for j in at))
        for _ in system.all_slots()
    )
    names = itertools.chain.from_iterable(
        itertools.product(range(3), repeat=n) for n in (1, 2)
    )
    table = {name: draw(st.sampled_from(menu)) for name in names}
    key = st.tuples(*[st.integers(0, 2)] * width)
    calls = [draw(st.lists(key, min_size=1, max_size=12)), draw(st.lists(key, max_size=12))]
    return system, space, eps, picks, table, calls


@settings(deadline=None)
@given(failing_keys_case())
def test_failing_keys_match_the_plain_decision(case):
    system, space, eps, picks, table, calls = case
    reads = []
    decide = _failing_keys(
        _AtomChecker(system, space, eps), picks, lambda name: reads.append(name) or table[name]
    )
    for keys in calls:
        # the memos of the first call carry into the second
        want = reference_failing_keys(system, space, eps, picks, table.__getitem__, keys)
        assert list(decide(keys)) == want
    used = [pick(key) for keys in calls for key in keys for pick in picks]
    assert reads == list(dict.fromkeys(used))


@pytest.mark.parametrize(
    "failing, holding",
    [
        # differ only in the bound
        (AffineAtom(((F(1), (1,)),), F(0)), AffineAtom(((F(1), (2,)),), F(1))),
        # differ only in a coefficient
        (AffineAtom(((F(1), (1,)),), F(0)), AffineAtom(((F(-1), (2,)),), F(0))),
        # differ only in the rows
        (TableAtom(((1,),), frozenset({(F(0),)})), TableAtom(((2,),), frozenset({(F(1, 2),)}))),
        # differ only in the allowed values
        (FiniteValuesAtom((1,), frozenset({F(0)})), FiniteValuesAtom((2,), frozenset({F(1, 2)}))),
    ],
)
def test_atoms_that_differ_beyond_their_slots_keep_separate_verdicts(failing, holding):
    pts = (F(1, 4), F(3, 4))
    for atoms in ((failing, holding), (holding, failing)):
        system = ConstraintSystem(arity=1, variables=2, mode="multiset", atoms=atoms)
        found = violations(system, lambda t: F(1, 2), UNIT, pts)
        assert {v.atom for v in found} == {failing}
        assert len(found) == len(pts) ** 2


# --- infeasibility probe ---


def test_probe_proves_symmetrized_antisymmetry_infeasible():
    assert proven_infeasible(antisymmetry_system(symmetrized=True), UNIT, 2)


def test_probe_accepts_plain_antisymmetry():
    assert not proven_infeasible(antisymmetry_system(symmetrized=False), UNIT, 2)


def test_probe_proves_diagonal_contrast_infeasible():
    # the pattern collapsing both variables onto one point forces
    # f(x,x) to differ from itself by one
    assert proven_infeasible(diagonal_contrast_system(), UNIT, 2, symmetrize=True)


def test_probe_skips_systems_without_value_menus():
    # no finite-values atoms and no finite metric: nothing to enumerate,
    # so the probe must stay silent rather than guess
    assert not proven_infeasible(triangle_free_system(mode="multiset"), UNIT, 3)


def test_probe_needs_enough_points_in_distinct_mode():
    assert not proven_infeasible(antisymmetry_system(symmetrized=True), UNIT, 1)


def test_probe_on_finite_metric_uses_labels_as_menu():
    space = FiniteMetric(labels=("0", "1"), distances=((F(0), F(1)), (F(1), F(0))))
    # demand two different values at the same collapsed slot
    system = ConstraintSystem(
        arity=2,
        variables=2,
        mode="multiset",
        atoms=(
            EqualityAtom((1, 2), (2, 1)),
            TableAtom(((1, 2), (2, 1)), frozenset({("0", "1"), ("1", "0")})),
        ),
    )
    assert proven_infeasible(system, space, 2, symmetrize=True)


@st.composite
def probe_case(draw):
    """A sweep_case's system over two or three variables, most slots pinned
    to one or two values."""
    system, _, space, _, _ = draw(sweep_case(least_variables=2))
    menu = st.sampled_from(dict(SPACE_MENUS)[space])
    pins = tuple(
        FiniteValuesAtom(slot, frozenset(draw(st.lists(menu, min_size=1, max_size=2))))
        for slot in system.all_slots()
        if draw(st.integers(0, 7))
    )
    system = ConstraintSystem(
        arity=system.arity, variables=system.variables, mode=system.mode, atoms=system.atoms + pins
    )
    return system, space, draw(st.integers(0, 4)), draw(st.booleans())


def probe_verdict(probe, system, space, num_points, symmetrize):
    try:
        return probe(system, space, num_points, symmetrize)
    except ContractError as exc:
        return str(exc)


@settings(deadline=None)
@given(probe_case())
# the slots come out of sorted order, so each must read its own key's value
@example(
    (
        ConstraintSystem(
            arity=2,
            variables=2,
            mode="distinct",
            atoms=(FiniteValuesAtom((2, 1), {F(0)}), FiniteValuesAtom((1, 2), {F(1)})),
        ),
        UNIT,
        2,
        False,
    )
)
def test_probe_matches_the_plain_probe(case):
    assert probe_verdict(proven_infeasible, *case) == probe_verdict(
        reference_proven_infeasible, *case
    )
