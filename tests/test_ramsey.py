"""Monochromatic core extraction: the complete search and its type passes."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_core
from kernel_repair import ramsey
from kernel_repair.errors import ContractError, ExtractionFailed
from kernel_repair.ramsey import (
    all_selections,
    extract_core,
    is_monochromatic,
    multi_type_extract,
    pass_goal,
)

PENTAGON_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def pentagon_coloring(selection):
    (pair,) = selection
    return 1 if tuple(sorted(pair)) in PENTAGON_EDGES else 2


# --- enumeration basics ---


def test_all_selections_counts():
    parts = [["a", "b", "c"], ["x", "y"]]
    sels = list(all_selections(parts, [2, 1]))
    assert len(sels) == 6
    assert sels[0] == (("a", "b"), ("x",))


def test_all_selections_zero_size_contributes_empty():
    sels = list(all_selections([["a", "b"], ["x"]], [0, 1]))
    assert sels == [((), ("x",)), ((), ("x",))] or sels == [((), ("x",))]
    # zero from the first part: exactly one empty combination
    assert all(s[0] == () for s in sels)


def test_is_monochromatic():
    parts = [[0, 1, 2]]
    assert is_monochromatic(parts, [2], lambda sel: 7)
    assert not is_monochromatic(parts, [2], lambda sel: sel[0][0])


def test_none_is_a_color_like_any_other():
    # a selection colored None must not leave the reference color unset
    coloring = lambda sel: None if sel[0][0] == 0 else 1
    assert not is_monochromatic([[0, 1, 2]], [1], coloring)
    assert extract_core([[0, 1, 2]], [1], coloring, 2) == ([1, 2],)


# --- pigeonhole and frozen instances ---


def test_singletons_always_extract_by_pigeonhole():
    """nu=1, k=1, two colors, 3 elements: some pair shares a color."""
    for bits in range(8):
        coloring = lambda sel: (bits >> sel[0][0]) & 1
        (core,) = extract_core([[0, 1, 2]], [1], coloring, 2)
        assert is_monochromatic([core], [1], coloring)


def test_exhaustive_finds_k6_core():
    # one explicit two-coloring of the 6-element pair hypergraph
    coloring = lambda sel: 1 if sum(sel[0]) % 2 else 2
    (core,) = extract_core([list(range(6))], [2], coloring, 3)
    assert len(core) == 3
    assert is_monochromatic([core], [2], coloring)


def test_pentagon_has_no_triangle_and_that_is_proven():
    with pytest.raises(ExtractionFailed) as exc:
        extract_core([list(range(5))], [2], pentagon_coloring, 3)
    assert exc.value.proven_absent


def test_greedy_on_pentagon_fails_with_proof():
    with pytest.raises(ExtractionFailed) as exc:
        extract_core([list(range(5))], [2], pentagon_coloring, 3, seed="s")
    assert exc.value.proven_absent


def test_pentagon_proof_colors_few_selections():
    # the pruned search drops an element at its first conflicting pair, so
    # the proof needs fewer calls than the 23 of scanning every triple
    calls = []

    def counted(selection):
        calls.append(selection)
        return pentagon_coloring(selection)

    with pytest.raises(ExtractionFailed) as exc:
        extract_core([list(range(5))], [2], counted, 3)
    assert exc.value.proven_absent
    assert len(calls) <= 19


def test_constant_coloring_greedy_takes_first_elements():
    parts = [list("abcdef"), list("uvwxyz")]
    cores = extract_core(parts, [1, 1], lambda sel: 0, 3)
    assert [list(c) for c in cores] == [["a", "b", "c"], ["u", "v", "w"]]


def test_exhaustive_completeness_against_brute_force():
    """All 64 pair colorings of 4 elements: the scan's verdict is exact."""
    elements = list(range(4))
    pairs = list(itertools.combinations(elements, 2))
    for bits in range(2 ** len(pairs)):
        table = {p: (bits >> i) & 1 for i, p in enumerate(pairs)}
        coloring = lambda sel: table[sel[0]]
        exists = any(
            len({table[p] for p in itertools.combinations(trio, 2)}) == 1
            for trio in itertools.combinations(elements, 3)
        )
        try:
            (core,) = extract_core([elements], [2], coloring, 3)
            assert exists
            assert is_monochromatic([core], [2], coloring)
        except ExtractionFailed as exc:
            assert exc.proven_absent
            assert not exists


# --- seeded colorings ---


def test_greedy_outputs_verify_and_mutations_fail():
    rng = random.Random("greedy-verify")
    found = 0
    for trial in range(40):
        n = rng.randrange(6, 10)
        colors = rng.randrange(2, 4)
        table = {
            pair: rng.randrange(colors)
            for pair in itertools.combinations(range(n), 2)
        }
        coloring = lambda sel: table[sel[0]]
        try:
            (core,) = extract_core([list(range(n))], [2], coloring, 3, seed=f"t{trial}")
        except ExtractionFailed:
            continue
        found += 1
        assert is_monochromatic([core], [2], coloring)
        # recolor one selection inside the core: verification must notice
        victim = tuple(core[:2])
        broken = dict(table)
        broken[victim] = (broken[victim] + 1) % colors
        assert not is_monochromatic([core], [2], lambda sel: broken[sel[0]])
    assert found >= 30  # random K>=6 colorings nearly always contain a triangle


def test_greedy_is_deterministic():
    rng = random.Random("det")
    table = {
        pair: rng.randrange(2) for pair in itertools.combinations(range(8), 2)
    }
    coloring = lambda sel: table[sel[0]]
    a = extract_core([list(range(8))], [2], coloring, 3, seed="fixed")
    b = extract_core([list(range(8))], [2], coloring, 3, seed="fixed")
    assert a == b


def coloring_case(data):
    """1-3 parts of 1-5 elements (1-4 for three parts), subset sizes 0-3, a
    drawn coloring of every selection as a dict keyed by selection, and the
    goals to try."""
    count = data.draw(st.integers(1, 3), label="parts")
    longest = 5 if count < 3 else 4
    lengths = data.draw(st.lists(st.integers(1, longest), min_size=count, max_size=count), label="lengths")
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=count, max_size=count), label="sizes")
    colors = data.draw(st.integers(1, 3), label="colors")
    parts = [[f"{i}.{j}" for j in range(n)] for i, n in enumerate(lengths)]
    selections = list(all_selections(parts, sizes))
    drawn = data.draw(
        st.lists(st.integers(0, colors - 1), min_size=len(selections), max_size=len(selections)),
        label="coloring",
    )
    return parts, sizes, dict(zip(selections, drawn)), range(max(1, *sizes), min(lengths) + 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_search_matches_the_candidate_scan(data):
    """Equal cores, or both fail and the search calls its failure a proof."""
    parts, sizes, table, goals = coloring_case(data)
    for goal in goals:
        expected = reference_core(parts, sizes, table.__getitem__, goal)
        try:
            found = extract_core(parts, sizes, table.__getitem__, goal)
        except ExtractionFailed as exc:
            assert expected is None
            assert exc.proven_absent
        else:
            assert found == expected


@pytest.mark.parametrize(
    "sizes",
    [(0, 0), (0, 2), (2, 0), (1, 0, 2), (2, 1, 1), (1, 2, 0), (0, 1, 1)],
)
def test_search_matches_the_candidate_scan_on_every_layout(sizes):
    """Zero parts before, between and after the positive ones, and two
    earlier positive parts, on seeded two-colored cases of every goal."""
    rng = random.Random(f"layout:{sizes}")
    parts = [[f"{i}.{j}" for j in range(4)] for i in range(len(sizes))]
    selections = list(all_selections(parts, sizes))
    for trial in range(20):
        # a few color flips on a constant coloring leave cores to find
        flips = set(rng.sample(range(len(selections)), min(trial % 5, len(selections))))
        table = {sel: int(i in flips) for i, sel in enumerate(selections)}
        for goal in range(max(1, *sizes), 5):
            expected = reference_core(parts, sizes, table.__getitem__, goal)
            try:
                found = extract_core(parts, sizes, table.__getitem__, goal)
            except ExtractionFailed:
                found = None
            assert found == expected


def seeded_cases(name, count):
    """Seeded random colorings of 1-3 parts, three parts most often (1-5
    elements, 1-4 for three parts), with subset sizes 0-3, 2-3 colors and
    every goal."""
    rng = random.Random(name)
    for _ in range(count):
        n = rng.choice((1, 2, 3, 3))
        longest = 5 if n < 3 else 4
        parts = [[f"{i}.{j}" for j in range(rng.randint(1, longest))] for i in range(n)]
        sizes = [rng.randint(0, 3) for _ in range(n)]
        colors = rng.randint(2, 3)
        table = {sel: rng.randrange(colors) for sel in all_selections(parts, sizes)}
        for goal in range(max(1, *sizes), min(map(len, parts)) + 1):
            yield parts, sizes, table, goal


def test_search_matches_the_candidate_scan_on_seeded_colorings():
    for parts, sizes, table, goal in seeded_cases("scan", 600):
        try:
            found = extract_core(parts, sizes, table.__getitem__, goal)
        except ExtractionFailed as exc:
            assert exc.proven_absent
            found = None
        assert found == reference_core(parts, sizes, table.__getitem__, goal)


def test_each_selection_is_colored_at_most_once_per_call():
    for parts, sizes, table, goal in seeded_cases("once", 600):
        calls = []

        def counted(selection):
            calls.append(selection)
            return table[selection]

        try:
            extract_core(parts, sizes, counted, goal)
        except ExtractionFailed:
            pass
        assert len(calls) == len(set(calls))


def test_an_unhashable_color_is_a_contract_error():
    with pytest.raises(ContractError, match="hashable"):
        extract_core([[0, 1, 2]], [1], lambda sel: [sel[0][0] % 2], 2)
    with pytest.raises(ContractError, match="hashable"):
        extract_core([[0, 1], [0, 1, 2]], [1, 2], lambda sel: {"c": 0}, 2)


def test_elements_need_not_be_hashable():
    parts = [[[0], [1], [2]], [[3], [4], [5]]]
    coloring = lambda sel: int(sel[0][0] == [1] and sel[1][0] == [4])
    assert extract_core(parts, [1, 1], coloring, 2) == reference_core(parts, [1, 1], coloring, 2)
    assert extract_core(parts, [1, 1], coloring, 2) == ([[0], [1]], [[3], [5]])


def test_colors_compare_as_dict_keys():
    # 1, 1.0 and True are one dict key, so one color
    coloring = lambda sel: (1, 1.0, True)[sel[0][0] % 3]
    assert extract_core([list(range(4))], [1], coloring, 4) == ([0, 1, 2, 3],)


# --- shrink schedule ---


def test_pass_goal_interpolates():
    assert pass_goal(10, 4, 1, 3) == 8
    assert pass_goal(10, 4, 2, 3) == 6
    assert pass_goal(10, 4, 3, 3) == 4
    assert pass_goal(5, 5, 1, 1) == 5


def test_pass_goal_monotone_and_lands_on_target():
    for start in (4, 7, 12):
        for target in range(2, start + 1):
            for steps in (1, 2, 5):
                sizes = [pass_goal(start, target, s, steps) for s in range(1, steps + 1)]
                assert sizes == sorted(sizes, reverse=True)
                assert sizes[-1] == target
                assert all(target <= x <= start for x in sizes)
                if target < start:
                    assert sizes[0] < start  # the first pass makes progress


def test_pass_goal_range_check():
    with pytest.raises(ContractError):
        pass_goal(5, 2, 0, 3)
    with pytest.raises(ContractError):
        pass_goal(5, 2, 4, 3)


# --- multi-type extraction ---


def test_multi_type_constant_coloring_takes_first_elements():
    parts = [list(range(10, 16)), list(range(20, 26))]
    vectors = [(0, 2), (1, 1), (2, 0)]
    cores = multi_type_extract(parts, vectors, lambda vec: (lambda sel: 0), 3)
    assert [list(c) for c in cores] == [[10, 11, 12], [20, 21, 22]]


def test_multi_type_color_depends_only_on_type():
    """Per-type constancy over every selection from the extracted cores."""
    rng = random.Random("types")
    parts = [[(z, i) for i in range(8)] for z in range(3)]
    vectors = [
        vec
        for vec in itertools.product(range(3), repeat=3)
        if sum(vec) == 2
    ]

    def coloring_for(vec):
        # color = type plus a small seeded disturbance on a few selections
        noisy = {
            sel: rng.randrange(2)
            for sel in itertools.islice(
                all_selections(parts, vec), 0, 3
            )
        }
        return lambda sel: (vec, noisy.get(sel, 0))

    colorings = {vec: coloring_for(vec) for vec in vectors}
    cores = multi_type_extract(parts, vectors, colorings.__getitem__, 4)
    assert all(len(c) == 4 for c in cores)
    for vec in vectors:
        shrunk = [c for c in cores]
        assert is_monochromatic(shrunk, vec, colorings[vec])


def test_multi_type_reports_failure():
    # two colors split one part in half: no 3-subset is monochromatic for
    # the singleton type once the pool is that polarized
    parts = [list(range(4))]
    coloring = lambda vec: (lambda sel: 0 if sel[0][0] < 2 else 1)
    with pytest.raises(ExtractionFailed):
        multi_type_extract(parts, [(1,)], coloring, 3)


# --- the plan cache ---


def test_only_small_plans_are_cached():
    def constant(selection):
        return 0

    info = ramsey._plan.cache_info
    # C(30, 4) = 27,405 subsets: built per call, never cached
    before = info()
    extract_core([list(range(30))], (4,), constant, 5)
    assert info() == before
    # C(12, 3) = 220 subsets: built once, then reused
    extract_core([list(range(12))], (3,), constant, 5)
    hits = info().hits
    extract_core([list(range(12))], (3,), constant, 5)
    assert info().hits == hits + 1
    assert math.comb(12, 3) <= ramsey._CACHED_PLAN_SUBSETS < math.comb(30, 4)
