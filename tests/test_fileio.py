"""JSON interchange: exact roundtrips, strict rejection, canonical output."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from helpers import random_exceptions, random_kernel
from kernel_repair.constraint import (
    AffineAtom,
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    TableAtom,
    ZeroProductAtom,
    metric_system,
    symmetry_atoms,
    triangle_free_system,
)
from kernel_repair.demos import DEMOS, run_demo
from kernel_repair.errors import FormatError
from kernel_repair.fileio import (
    MAX_REPAIR_TABLE,
    MAX_SWEEP_ASSIGNMENTS,
    MAX_SYMMETRY_EQUALITIES,
    _symmetry_equalities,
    constraint_from_doc,
    constraint_to_doc,
    estimated_assignments,
    estimated_selections,
    estimated_table_tuples,
    kernel_from_doc,
    kernel_to_doc,
    load_constraint,
    load_json,
    load_kernel,
    save_constraint,
    save_kernel,
    space_from_doc,
    space_to_doc,
    strip_timing,
    to_json,
)
from kernel_repair.kernel import CoordIs, CoordsEqual, ExceptionPiece, StepKernel
from kernel_repair.values import BoundedInterval, CompactifiedRay, FiniteMetric, INFINITY

F = Fraction


def interval_kernel():
    rng = random.Random("fileio-kernel")
    kernel = random_kernel(rng, 2, 3, [F(0), F(1, 2), F(1)])
    return kernel.with_exceptions(random_exceptions(rng, 2, [F(0), F(1)], 3))


def label_space():
    return FiniteMetric(
        labels=("a", "b", "c"),
        distances=(
            (F(0), F(1), F(2)),
            (F(1), F(0), F(1)),
            (F(2), F(1), F(0)),
        ),
    )


# --- value space documents ---


def test_space_doc_frozen_shapes():
    assert space_to_doc(BoundedInterval(F(3, 2))) == {
        "variant": "bounded_interval",
        "diameter": "3/2",
    }
    assert space_to_doc(CompactifiedRay()) == {"variant": "compactified_ray"}
    doc = space_to_doc(label_space())
    assert doc["variant"] == "finite_metric"
    assert doc["labels"] == ["a", "b", "c"]
    assert doc["dist_matrix"][0] == ["0", "1", "2"]


@pytest.mark.parametrize(
    "space",
    [BoundedInterval(F(1)), BoundedInterval(F(7, 3)), CompactifiedRay(), label_space()],
    ids=["unit-interval", "wide-interval", "ray", "finite-metric"],
)
def test_space_doc_roundtrip(space):
    reloaded = space_from_doc(space_to_doc(space))
    assert space_to_doc(reloaded) == space_to_doc(space)
    assert type(reloaded) is type(space)


def test_space_doc_rejects_unknown_variant():
    with pytest.raises(FormatError):
        space_from_doc({"variant": "hyperbolic_plane"})


def test_space_doc_rejects_bad_metric():
    # zero distance between distinct labels is a ContractError, surfaced as FormatError
    with pytest.raises(FormatError):
        space_from_doc(
            {
                "variant": "finite_metric",
                "labels": ["a", "b"],
                "dist_matrix": [["0", "0"], ["0", "0"]],
            }
        )


# --- kernel documents ---


def test_kernel_doc_roundtrip_is_stable():
    kernel = interval_kernel()
    doc = kernel_to_doc(kernel)
    again = kernel_to_doc(kernel_from_doc(doc))
    assert again == doc


def test_kernel_doc_roundtrip_on_the_ray():
    kernel = StepKernel.from_flat(
        arity=1,
        resolution=2,
        space=CompactifiedRay(),
        flat_values=[F(2), INFINITY],
    )
    doc = kernel_to_doc(kernel)
    assert doc["base"] == ["2", "inf"]
    reloaded = kernel_from_doc(doc)
    assert reloaded.value_at((0.1,)) == F(2)
    assert reloaded.value_at((0.9,)) is INFINITY


def test_kernel_doc_roundtrip_with_labels():
    space = label_space()
    rng = random.Random("labels")
    kernel = random_kernel(rng, 2, 2, list(space.labels), space=space, symmetric=True)
    doc = kernel_to_doc(kernel)
    assert set(doc["base"]) <= {"a", "b", "c"}
    assert doc["symmetric_base"] is True
    assert kernel_to_doc(kernel_from_doc(doc)) == doc


def test_reloaded_kernel_evaluates_identically():
    kernel = interval_kernel()
    reloaded = kernel_from_doc(json.loads(to_json(kernel_to_doc(kernel))))
    rng = random.Random("eval-agreement")
    for _ in range(1000):
        point = tuple(rng.random() for _ in range(kernel.arity))
        assert reloaded.value_at(point) == kernel.value_at(point)
    # overrides survive too: hit one CoordIs piece directly
    for piece in kernel.exceptions:
        cond = piece.conditions[0]
        if isinstance(cond, CoordIs):
            point = [F(1, 5)] * kernel.arity
            point[cond.coord - 1] = cond.const
            assert reloaded.value_at(tuple(point)) == kernel.value_at(tuple(point))


def test_exception_atoms_travel_by_kind():
    kernel = StepKernel.from_flat(
        arity=2,
        resolution=1,
        space=BoundedInterval(F(1)),
        flat_values=[F(1)],
        exceptions=(
            ExceptionPiece((CoordIs(1, F(1, 3)),), F(0)),
            ExceptionPiece((CoordsEqual(1, 2),), F(1, 2)),
        ),
    )
    doc = kernel_to_doc(kernel)
    assert doc["exceptions"] == [
        {"atoms": [{"coord": 1, "const": "1/3"}], "value": "0"},
        {"atoms": [{"coord": 1, "equals": 2}], "value": "1/2"},
    ]
    reloaded = kernel_from_doc(doc)
    assert reloaded.value_at((F(1, 3), F(9, 10))) == F(0)
    assert reloaded.value_at((F(9, 10), F(9, 10))) == F(1, 2)


def good_kernel_doc():
    return kernel_to_doc(interval_kernel())


def test_kernel_doc_missing_key():
    doc = good_kernel_doc()
    del doc["base"]
    with pytest.raises(FormatError, match="base"):
        kernel_from_doc(doc)


def test_kernel_doc_non_integer_shape():
    doc = good_kernel_doc()
    doc["resolution"] = "3"
    with pytest.raises(FormatError, match="integers"):
        kernel_from_doc(doc)


def test_kernel_doc_wrong_base_length():
    doc = good_kernel_doc()
    doc["base"] = doc["base"][:-1]
    with pytest.raises(FormatError):
        kernel_from_doc(doc)


def test_kernel_doc_value_outside_space():
    doc = good_kernel_doc()
    doc["base"][0] = "2"  # diameter-1 interval has no such value
    with pytest.raises(FormatError):
        kernel_from_doc(doc)


def test_kernel_doc_bad_fraction_text():
    doc = good_kernel_doc()
    doc["base"][0] = "one half"
    with pytest.raises(FormatError):
        kernel_from_doc(doc)


def test_kernel_doc_exception_without_condition_kind():
    doc = good_kernel_doc()
    doc["exceptions"] = [{"atoms": [{"coord": 1}], "value": "0"}]
    with pytest.raises(FormatError, match="'const' or 'equals'"):
        kernel_from_doc(doc)


def test_kernel_doc_top_level_must_be_object():
    with pytest.raises(FormatError):
        kernel_from_doc(["not", "a", "kernel"])


# --- constraint documents ---


@pytest.mark.parametrize(
    "system",
    [
        triangle_free_system(),
        metric_system(),
        ConstraintSystem(
            arity=2,
            variables=2,
            mode="distinct",
            atoms=(
                EqualityAtom((1, 2), (2, 1)),
                FiniteValuesAtom((1, 2), frozenset({F(0), F(1)})),
                AffineAtom(((F(1), (1, 2)), (F(-1), (2, 1))), F(0)),
                ZeroProductAtom(((1, 2), (2, 1))),
                TableAtom(((1, 2), (2, 1)), frozenset({(F(0), F(1)), (F(1), F(0))})),
            ),
        ),
    ],
    ids=["triangle-free", "metric", "one-of-each"],
)
def test_constraint_doc_roundtrip_is_stable(system):
    space = BoundedInterval(F(1))
    doc = constraint_to_doc(system, space)
    again = constraint_to_doc(constraint_from_doc(doc, space), space)
    assert again == doc


def test_constraint_doc_records_shape():
    doc = constraint_to_doc(triangle_free_system(mode="multiset"), BoundedInterval(F(1)))
    assert doc["mode"] == "multiset"
    assert doc["arity"] == 2
    assert doc["variables"] == 3
    kinds = sorted({atom["kind"] for atom in doc["atoms"]})
    assert kinds == ["equality", "zero_product"]


def test_symmetry_shorthand_expands():
    doc = {
        "mode": "multiset",
        "arity": 2,
        "variables": 3,
        "atoms": [{"kind": "symmetry"}],
    }
    system = constraint_from_doc(doc, BoundedInterval(F(1)))
    assert len(system.atoms) == len(symmetry_atoms(2, 3))
    assert all(isinstance(atom, EqualityAtom) for atom in system.atoms)


@pytest.mark.parametrize(
    "arity, variables",
    [(6, 6), (7, 7), (4, 9), (100_000_000, 100_000_000)],
)
def test_symmetry_shorthand_refuses_a_huge_expansion(arity, variables):
    doc = {"mode": "multiset", "arity": arity, "variables": variables, "atoms": [{"kind": "symmetry"}]}
    with pytest.raises(FormatError, match="expands to more than 50000 equalities"):
        constraint_from_doc(doc, BoundedInterval(F(1)))


@pytest.mark.parametrize("arity, variables", [(5, 5), (4, 8), (3, 20)])
def test_symmetry_shorthand_loads_below_the_cap(arity, variables):
    # (arity! - 1) * variables! / (variables - arity)! is at most 50000 here;
    # one equality per unordered pair of orderings survives per variable subset
    doc = {"mode": "multiset", "arity": arity, "variables": variables, "atoms": [{"kind": "symmetry"}]}
    system = constraint_from_doc(doc, BoundedInterval(F(1)))
    pairs = math.comb(math.factorial(arity), 2)
    assert len(system.atoms) == pairs * math.comb(variables, arity)


def test_symmetry_shorthand_with_too_few_variables_is_refused_at_once():
    # 8! orderings would be built before the renaming found no variables
    doc = {"mode": "multiset", "arity": 8, "variables": 2, "atoms": [{"kind": "symmetry"}]}
    with pytest.raises(FormatError, match="more variables than the target system"):
        constraint_from_doc(doc, BoundedInterval(F(1)))


def test_estimated_assignments_counts_the_sweep():
    assert estimated_assignments("multiset", 6, 3) == 6**3
    assert estimated_assignments("distinct", 6, 3) == math.perm(6, 3)
    assert estimated_assignments("distinct", 2, 3) == 0
    assert estimated_assignments("multiset", 10, 7) == MAX_SWEEP_ASSIGNMENTS


def test_estimated_assignments_stops_past_the_cap():
    # variables is unbounded in a constraint file; 30 ** 10**12 would not fit in memory
    assert estimated_assignments("multiset", 30, 10**12) > MAX_SWEEP_ASSIGNMENTS
    assert estimated_assignments("distinct", 10**9, 10**12) == 0
    assert estimated_assignments("multiset", 1, 10**12) == 1


@pytest.mark.parametrize("points", range(0, 7))
@pytest.mark.parametrize("arity", range(1, 5))
def test_estimated_table_tuples_counts_the_table(points, arity):
    assert estimated_table_tuples("distinct", points, arity) == points**arity
    assert estimated_table_tuples("multiset", points, arity) == math.comb(
        points + arity - 1, arity
    )


def test_estimated_table_tuples_stops_past_the_cap():
    # a kernel of resolution 1 may have arity 1,000; larger counts are cut short
    assert estimated_table_tuples("distinct", 1000, 2) == MAX_REPAIR_TABLE
    assert estimated_table_tuples("distinct", 30, 10**12) > MAX_REPAIR_TABLE
    assert estimated_table_tuples("multiset", 30, 10**12) > MAX_REPAIR_TABLE
    assert estimated_table_tuples("multiset", 1, 10**12) == 1
    assert estimated_table_tuples("distinct", 0, 10**12) == 0


#: point counts, variable counts and part sizes on both sides of each cap:
#: 10^7 points over one variable, 1000^2 table tuples, and multiset tables
#: of C(1414, 2) < 10^6 < C(1415, 2) tuples
GRID_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 30, 999, 1000, 1001, 1414, 1415, 10**7, 10**7 + 1)
#: variable counts, arities and subset sizes; 8! < 50,000 < 9!
GRID_POWERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 30)


def capped_as(estimate, exact, cap):
    """The estimate equals the exact count up to the cap and passes it beyond."""
    return estimate == exact if exact <= cap else estimate > cap


@pytest.mark.parametrize("n", GRID_SIZES)
def test_the_estimators_match_exact_counts_up_to_their_caps(n):
    for k in GRID_POWERS:
        assert capped_as(estimated_assignments("multiset", n, k), n**k, MAX_SWEEP_ASSIGNMENTS)
        assert capped_as(
            estimated_assignments("distinct", n, k), math.perm(n, k), MAX_SWEEP_ASSIGNMENTS
        )
        assert capped_as(estimated_table_tuples("distinct", n, k), n**k, MAX_REPAIR_TABLE)
        assert capped_as(
            estimated_table_tuples("multiset", n, k), math.comb(n + k - 1, k), MAX_REPAIR_TABLE
        )
        # arity k over n variables
        assert capped_as(
            _symmetry_equalities(k, n),
            (math.factorial(k) - 1) * math.perm(n, k),
            MAX_SYMMETRY_EQUALITIES,
        )
    # subset sizes from both ends; C(n, t) = C(n, n - t)
    ends = {t for k in (0,) + GRID_POWERS for t in (k, n - k) if 0 <= t <= n}
    for t in sorted(ends | ({n // 2} if n < 2000 else set())):
        exact = math.comb(n, t)
        assert capped_as(estimated_selections(n, [t]), exact, MAX_REPAIR_TABLE)
        for u in sorted(ends):
            assert capped_as(
                estimated_selections(n, [t, u]), exact * math.comb(n, u), MAX_REPAIR_TABLE
            )


def test_symmetry_over_too_few_variables_counts_no_equalities():
    # 9! orderings are past the cap, but no variable subset can take them
    assert _symmetry_equalities(9, 2) == 0
    doc = {"mode": "multiset", "arity": 9, "variables": 2, "atoms": [{"kind": "symmetry"}]}
    with pytest.raises(FormatError, match="more variables than the target system"):
        constraint_from_doc(doc, BoundedInterval(F(1)))


def test_constraint_shape_inferred_from_slots():
    doc = {
        "mode": "distinct",
        "atoms": [{"kind": "equality", "left": [1, 2], "right": [2, 1]}],
    }
    system = constraint_from_doc(doc, BoundedInterval(F(1)))
    assert system.arity == 2
    assert system.variables == 2


def test_constraint_without_slots_needs_explicit_shape():
    doc = {"mode": "multiset", "atoms": [{"kind": "symmetry"}]}
    with pytest.raises(FormatError, match="infer"):
        constraint_from_doc(doc, BoundedInterval(F(1)))


def test_constraint_rejects_unknown_kind():
    doc = {
        "mode": "distinct",
        "arity": 2,
        "variables": 2,
        "atoms": [{"kind": "quadratic"}],
    }
    with pytest.raises(FormatError, match="quadratic"):
        constraint_from_doc(doc, BoundedInterval(F(1)))


def test_constraint_rejects_misaligned_linear_atom():
    doc = {
        "mode": "distinct",
        "arity": 2,
        "variables": 2,
        "atoms": [
            {
                "kind": "linear_ineq",
                "coeffs": ["1", "1"],
                "slots": [[1, 2]],
                "bound": "1",
            }
        ],
    }
    with pytest.raises(FormatError, match="align"):
        constraint_from_doc(doc, BoundedInterval(F(1)))


def test_constraint_rejects_empty_atom_list():
    doc = {"mode": "distinct", "arity": 2, "variables": 2, "atoms": []}
    with pytest.raises(FormatError):
        constraint_from_doc(doc, BoundedInterval(F(1)))


def test_constraint_rejects_value_outside_space():
    doc = {
        "mode": "distinct",
        "atoms": [{"kind": "finite", "slot": [1, 2], "allowed": ["0", "3"]}],
    }
    with pytest.raises(FormatError):
        constraint_from_doc(doc, BoundedInterval(F(1)))


def test_constraint_finite_values_use_space_text():
    space = label_space()
    system = ConstraintSystem(
        arity=1,
        variables=2,
        mode="distinct",
        atoms=(FiniteValuesAtom((1,), frozenset({"a", "c"})),),
    )
    doc = constraint_to_doc(system, space)
    assert doc["atoms"][0]["allowed"] == ["a", "c"]
    assert constraint_to_doc(constraint_from_doc(doc, space), space) == doc


# --- files on disk ---


def test_kernel_file_roundtrip(tmp_path):
    kernel = interval_kernel()
    path = tmp_path / "kernel.json"
    save_kernel(kernel, str(path))
    assert path.read_text().endswith("\n")
    reloaded = load_kernel(str(path))
    assert kernel_to_doc(reloaded) == kernel_to_doc(kernel)


def test_constraint_file_roundtrip(tmp_path):
    space = BoundedInterval(F(1))
    path = tmp_path / "system.json"
    save_constraint(metric_system(), space, str(path))
    reloaded = load_constraint(str(path), space)
    assert constraint_to_doc(reloaded, space) == constraint_to_doc(metric_system(), space)


def test_load_json_reports_position_of_syntax_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"arity": 2,,}\n')
    with pytest.raises(FormatError, match="line 1"):
        load_json(str(path), "kernel")


def test_load_json_missing_file():
    with pytest.raises(FormatError, match="cannot read"):
        load_json("/nonexistent/kernel.json", "kernel")


# --- canonical serialization ---


def test_to_json_is_canonical():
    text = to_json({"b": F is None, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": false\n}\n'


def test_to_json_sorts_keys_recursively():
    text = to_json({"z": {"b": 1, "a": 2}})
    assert text.index('"a"') < text.index('"b"')


def dumped(doc) -> str:
    """What ``to_json`` must write: ``json.dumps``' text, or its exception."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    except (TypeError, ValueError) as exc:
        return repr(exc)


def written(doc) -> str:
    try:
        return to_json(doc)
    except (TypeError, ValueError) as exc:
        return repr(exc)


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(json_docs)
@example({"": [], "\x00\u00e9\U0001f600\n\"\\": {}, "a": [None, True, -0.0, 1e300, 2**70]})
def test_to_json_writes_the_bytes_of_json_dumps(doc):
    assert to_json(doc) == dumped(doc)


@pytest.mark.parametrize("seed", ["0", "7", "abc"])
def test_to_json_writes_demo_reports_as_json_dumps(seed):
    for name in sorted(DEMOS):
        doc = run_demo(name, seed=seed).to_doc()
        assert to_json(doc) == dumped(doc)


class Text(str):
    pass


class Number(int):
    def __repr__(self):
        return "number"


def cyclic():
    doc = {"a": []}
    doc["a"].append(doc)
    return doc


@pytest.mark.parametrize("doc", [
    {1: "a", 2: "b"},
    {1: "a", "b": 2},
    {None: 1, True: 2},
    {"x": math.nan},
    [math.inf, -math.inf],
    {"x": Text("y")},
    {Text("k"): 1},
    [Number(3)],
    {"x": F(1, 2)},
    {"x": {1, 2}},
    cyclic(),
])
def test_to_json_falls_back_to_json_dumps(doc):
    assert written(doc) == dumped(doc)


def test_strip_timing_removes_nested_fields():
    doc = {
        "timing": {"seconds": 1.0},
        "result": {"status": "ok", "timing": 0.5},
        "stages": [{"name": "probe", "timing": 0.1}, {"name": "repair"}],
    }
    assert strip_timing(doc) == {
        "result": {"status": "ok"},
        "stages": [{"name": "probe"}, {"name": "repair"}],
    }
    # original left untouched
    assert "timing" in doc
