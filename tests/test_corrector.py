"""The repair pipeline: sampling, extraction, verification, the probe."""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import io
import itertools
import math
import os
import random
import re
import tempfile
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    CountingRandom,
    counted_draws,
    reference_audit,
    reference_closeness,
    reference_failing_blocks,
    reference_repair,
    reference_violations,
    sampled_table,
    separated_pools,
    separating_refinement,
    suite_problem,
)
from kernel_repair import cli, constraint, corrector
from kernel_repair.constraint import (
    AffineAtom,
    _AtomChecker,
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    TableAtom,
    ZeroProductAtom,
    metric_system,
    triangle_free_system,
    violations,
)
from kernel_repair.corrector import (
    CorrectedKernel,
    RepairConfig,
    audit_ae_hypothesis,
    judge,
    repair,
    wilson_interval,
)
from kernel_repair.density import adjacent_blocks, is_density_tuple
from kernel_repair.demos import (
    almost_metric_kernel,
    antisymmetry_system,
    loopy_bipartite_kernel,
    oriented_kernel,
)
from kernel_repair.errors import ContractError
from kernel_repair.fileio import load_json, save_constraint, save_kernel, strip_timing
from kernel_repair.kernel import (
    CoordIs,
    CoordsEqual,
    ExceptionPiece,
    StepKernel,
    block_of,
    repeat_pattern,
)
from kernel_repair.ramsey import multi_type_extract
from kernel_repair.rational import as_fraction, frac_str
from kernel_repair.values import (
    BoundedInterval,
    epsilon_partition,
    value_from_text,
    value_to_text,
)

F = Fraction


def bipartite_kernel(exceptions=()):
    return StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1), F(1), F(0)],
        exceptions=exceptions,
        symmetric_base=True,
    )


# --- config and plumbing ---


def test_config_validation():
    with pytest.raises(ContractError):
        RepairConfig(epsilon=F(-1, 10))


def test_separating_refinement():
    assert separating_refinement((F(1, 5), F(7, 10)), 2) == 2
    assert separating_refinement((F(1, 10), F(3, 10)), 2) == 4
    assert separating_refinement((F(1, 10), F(1, 5)), 2) == 8
    assert separating_refinement((F(1, 10),), 2) == 2


def test_corrected_kernel_lookup():
    g = CorrectedKernel(
        points=(F(1, 4), F(3, 4)),
        arity=2,
        symmetric=True,
        values={(0, 1): F(1), (0, 0): F(0), (1, 1): F(0)},
    )
    assert g.value_at((F(3, 4), F(1, 4))) == 1  # sorted lookup
    assert g.at((1, 0)) == 1 and g.at((1, 1)) == 0
    with pytest.raises(ContractError):
        g.value_at((F(1, 4),))
    with pytest.raises(ContractError):
        g.value_at((F(1, 2), F(1, 2)))


def test_repair_input_validation():
    kernel = bipartite_kernel()
    system = triangle_free_system(mode="distinct")
    with pytest.raises(ContractError):
        repair(kernel, system, ())
    with pytest.raises(ContractError):
        repair(kernel, system, (F(1, 4), F(1, 4)))
    with pytest.raises(ContractError):
        repair(kernel, system, (F(1, 4), F(3, 2)))


def test_multiset_mode_preconditions():
    system = triangle_free_system(mode="multiset")
    with pytest.raises(ContractError):
        # epsilon must be positive in multiset mode
        repair(bipartite_kernel(), system, (F(1, 4), F(3, 4)), RepairConfig(seed="0"))
    asym = StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1), F(0), F(0)],
    )
    with pytest.raises(ContractError):
        repair(asym, system, (F(1, 4), F(3, 4)), RepairConfig(epsilon=F(1, 10), seed="0"))


# --- distinct mode ---


def test_distinct_repair_recovers_base_values():
    """The override at (0.2, 0.7) disappears; samples read the base."""
    piece = ExceptionPiece((CoordIs(1, F(1, 5)), CoordIs(2, F(7, 10))), F(0))
    kernel = bipartite_kernel((piece,))
    system = triangle_free_system(mode="distinct")
    points = (F(1, 5), F(7, 10))
    outcome = repair(kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="0"))
    assert outcome.ok
    assert outcome.corrected.value_at((F(1, 5), F(7, 10))) == 1
    assert outcome.corrected.value_at((F(7, 10), F(1, 5))) == 1
    assert kernel.value_at((F(1, 5), F(7, 10))) == 0  # the defect was real


def test_distinct_repair_with_zero_epsilon_skips_density_check():
    kernel = bipartite_kernel()
    system = triangle_free_system(mode="distinct")
    outcome = repair(kernel, system, (F(1, 5), F(7, 10)), RepairConfig(seed="0"))
    assert outcome.ok
    assert all(row["density"] is None for row in outcome.report["density_closeness"].values())


def test_distinct_honest_failure_in_one_attempt():
    """A satisfiable demand the kernel never meets fails honestly."""
    kernel = StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0)] * 4,
    )
    system = ConstraintSystem(
        arity=2,
        variables=2,
        mode="distinct",
        atoms=(FiniteValuesAtom((1, 2), frozenset({F(1)})),),
    )
    outcome = repair(
        kernel, system, (F(1, 4), F(3, 4)), RepairConfig(epsilon=F(1, 10), seed="0")
    )
    assert outcome.status == "failed"
    assert outcome.corrected is None
    assert outcome.report["probe"] == {"ran": True, "proven_infeasible": False}
    assert outcome.report["violations"]
    verdicts = outcome.report["verdicts"]
    assert [v["holds"] for v in verdicts] == [False]


def test_infeasible_system_stops_at_the_probe():
    from kernel_repair.demos import antisymmetry_system, oriented_kernel

    outcome = repair(
        oriented_kernel(),
        antisymmetry_system(symmetrized=True),
        (F(1, 5), F(7, 10)),
        RepairConfig(seed="0"),
    )
    assert outcome.status == "infeasible"
    assert outcome.report["probe"] == {"ran": True, "proven_infeasible": True}


def budget_system():
    """Two one-slot unknowns with disjoint menus of 3 and 2 values, forced
    equal: its one distinct-mode pattern has 6 combinations, none holding."""
    return ConstraintSystem(
        arity=1,
        variables=2,
        mode="distinct",
        atoms=(
            FiniteValuesAtom((1,), frozenset({F(0), F(1, 2), F(1)})),
            FiniteValuesAtom((2,), frozenset({F(1, 4), F(3, 4)})),
            EqualityAtom((1,), (2,)),
        ),
    )


@pytest.mark.parametrize("budget, proven", [(6, True), (5, False)])
def test_the_probe_skips_a_pattern_over_its_budget(monkeypatch, budget, proven):
    monkeypatch.setattr(constraint, "_PROBE_BUDGET", budget)
    system, unit = budget_system(), BoundedInterval(F(1))
    assert constraint.proven_infeasible(system, unit, 2) is proven
    kernel = StepKernel.from_flat(arity=1, resolution=1, space=unit, flat_values=[F(1, 2)])
    outcome = repair(kernel, system, (F(1, 4), F(3, 4)), RepairConfig(seed="0"))
    assert outcome.status == ("infeasible" if proven else "failed")
    assert outcome.report["probe"] == {"ran": True, "proven_infeasible": proven}


# --- multiset mode ---


def test_multiset_repair_clears_diagonal_defect():
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    outcome = repair(kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="0"))
    assert outcome.ok
    g = outcome.corrected
    for z in points:
        assert kernel.value_at((z, z)) == 1  # the loop defect
        assert g.value_at((z, z)) == 0  # repaired away
    assert g.value_at((F(1, 10), F(7, 10))) == 1


def test_multiset_repair_is_exactly_symmetric():
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    outcome = repair(kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="3"))
    assert outcome.ok
    g = outcome.corrected
    for t in itertools.product(points, repeat=2):
        for perm in itertools.permutations(t):
            assert g.value_at(t) == g.value_at(perm)
    # stored keys are the sorted representatives only
    assert all(k == tuple(sorted(k)) for k in g.values)


def test_multiset_repair_passes_independent_verification():
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    eps = F(1, 10)
    outcome = repair(kernel, system, points, RepairConfig(epsilon=eps, seed="11"))
    assert outcome.ok
    g = outcome.corrected
    assert not violations(system, g.value_at, kernel.space, points, eps)
    partition = epsilon_partition(kernel.space, eps)
    from kernel_repair.density import is_density_tuple

    for t in itertools.product(points, repeat=2):
        if is_density_tuple(kernel, partition, t):
            assert kernel.space.dist(g.value_at(t), kernel.value_at(t)) <= eps


# --- determinism ---


def test_repair_report_is_deterministic_modulo_timing():
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    config = RepairConfig(epsilon=F(1, 10), seed="same")
    a = repair(kernel, system, points, config)
    b = repair(kernel, system, points, config)
    assert strip_timing(a.report) == strip_timing(b.report)
    assert a.corrected.values == b.corrected.values
    c = repair(kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="other"))
    assert strip_timing(c.report) != strip_timing(a.report)  # the report records the seed


# --- wilson interval ---


def test_wilson_interval_frozen():
    low, high = wilson_interval(0, 100)
    assert low == 0.0
    assert 0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert 0.95 < low < 1
    assert high == 1.0
    low, high = wilson_interval(5, 10)
    assert low < 0.5 < high


def test_wilson_interval_validation():
    with pytest.raises(ContractError):
        wilson_interval(0, 0)
    with pytest.raises(ContractError):
        wilson_interval(5, 4)


# --- the hypothesis audit ---


def test_audit_clean_kernel_reports_zero():
    res = audit_ae_hypothesis(
        loopy_bipartite_kernel(), triangle_free_system(mode="multiset"), 2000, seed="a"
    )
    assert res.violations == 0
    assert res.interval_low == 0.0
    assert res.rate == 0.0


def test_audit_flags_positive_measure_defects():
    all_ones = StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(1)] * 4,
        symmetric_base=True,
    )
    res = audit_ae_hypothesis(all_ones, triangle_free_system(mode="multiset"), 500, seed="a")
    assert res.violations == 500
    assert res.interval_high == 1.0
    assert res.interval_low > 0.99


def test_audit_is_deterministic():
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    a = audit_ae_hypothesis(kernel, system, 100, seed="d")
    b = audit_ae_hypothesis(kernel, system, 100, seed="d")
    assert (a.violations, a.interval_low, a.interval_high) == (
        b.violations,
        b.interval_low,
        b.interval_high,
    )


def all_ones_kernel():
    return StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(1)] * 4,
        symmetric_base=True,
    )


def constant_hit_kernel():
    """All ones, but 0 where a coordinate is the first float the audit
    draws for seed "0"; the base grid alone fails every trial."""
    hit = F(random.Random("0:audit").random())
    return all_ones_kernel().with_exceptions(
        (
            ExceptionPiece((CoordIs(1, hit),), F(0)),
            ExceptionPiece((CoordIs(2, hit),), F(0)),
        )
    )


def audit_path(kernel, system, samples):
    """Which way the audit finds its count, judged by the oracle: all block
    vectors decided when they are no more than the samples, no draw when
    they share one verdict and the kernel has no constant."""
    r, v = kernel.resolution, system.variables
    if r**v > samples:
        return "counting"
    vectors = list(itertools.product(range(r), repeat=v))
    failing = reference_failing_blocks(kernel, system, vectors)
    if 0 < len(failing) < len(vectors):
        return "mixed"
    return "uniform" if kernel.exception_constants() else "no-draw"


@pytest.mark.parametrize(
    "kernel, system, path",
    [
        pytest.param(
            loopy_bipartite_kernel(), triangle_free_system(mode="multiset"), "no-draw",
            id="triangle-free",
        ),
        pytest.param(
            constant_hit_kernel(), triangle_free_system(mode="distinct"), "uniform",
            id="constant-hit",
        ),
        pytest.param(
            all_ones_kernel(), triangle_free_system(mode="distinct"), "no-draw", id="all-ones"
        ),
        # tenths and fifths are never drawn, yet the stream is searched for them
        pytest.param(almost_metric_kernel(), metric_system(), "uniform", id="metric"),
        pytest.param(
            oriented_kernel(), antisymmetry_system(symmetrized=False), "mixed", id="antisymmetry"
        ),
        pytest.param(
            oriented_kernel(), antisymmetry_system(symmetrized=True), "no-draw",
            id="antisymmetry-symmetrized",
        ),
        # about half the draws fail the first atom and never read f(2,3)
        pytest.param(
            loopy_bipartite_kernel(),
            ConstraintSystem(
                arity=2,
                variables=3,
                mode="distinct",
                atoms=(
                    FiniteValuesAtom((1, 2), frozenset({F(0)})),
                    FiniteValuesAtom((2, 3), frozenset({F(0), F(1)})),
                ),
            ),
            "mixed",
            id="short-circuit",
        ),
        # slots that repeat a variable read the diagonal piece
        pytest.param(
            loopy_bipartite_kernel(),
            ConstraintSystem(
                arity=2,
                variables=2,
                mode="distinct",
                atoms=(
                    FiniteValuesAtom((1, 1), frozenset({F(0)})),
                    FiniteValuesAtom((1, 2), frozenset({F(0)})),
                ),
            ),
            "no-draw",
            id="diagonal",
        ),
        # 7^3 block vectors, more than the 300 samples
        pytest.param(
            StepKernel.from_flat(
                arity=2,
                resolution=7,
                space=BoundedInterval(F(1)),
                flat_values=[F(int(i * j % 3 == 1)) for i in range(7) for j in range(7)],
            ),
            triangle_free_system(mode="distinct"),
            "counting",
            id="counting",
        ),
    ],
)
@pytest.mark.parametrize("seed", ["0", "7"])
def test_audit_matches_the_plain_audit(monkeypatch, kernel, system, path, seed):
    samples = 300
    assert audit_path(kernel, system, samples) == path
    # value_at reads are recorded as point tuples, generic_value reads as
    # (blocks, repeat pattern)
    point_reads, class_reads = [], []
    value_at, generic_value = StepKernel.value_at, StepKernel.generic_value

    def read_point(self, point):
        point_reads.append(tuple(point))
        return value_at(self, point)

    def read_class(self, blocks, pattern):
        class_reads.append((blocks, pattern))
        return generic_value(self, blocks, pattern)

    monkeypatch.setattr(StepKernel, "value_at", read_point)
    monkeypatch.setattr(StepKernel, "generic_value", read_class)
    monkeypatch.setattr(random, "Random", CountingRandom)
    got, got_drawn = counted_draws(lambda: audit_ae_hypothesis(kernel, system, samples, seed))
    got_points, got_classes = list(point_reads), list(class_reads)
    trials = []  # each trial's points
    want, want_drawn = counted_draws(
        lambda: reference_audit(kernel, system, samples, seed=seed, on_trial=trials.append)
    )
    assert got == want
    # no float is drawn where no trial can hit a constant and the block
    # vectors share one verdict; otherwise exactly the plain audit's floats
    assert got_drawn == (0 if path == "no-draw" else want_drawn)
    # a trial that hits a constant reads value_at once at each slot
    constants = kernel.exception_constants()
    hits = [tup for tup in trials if not constants.isdisjoint(tup)]
    slots = system.all_slots()
    assert got_points == [tuple(tup[v - 1] for v in slot) for tup in hits for slot in slots]
    # generic_value runs once per (slot blocks, slot pattern): with every
    # block vector decided, in product order, else in the order of the
    # clear trials; then in slot order
    if path == "counting":
        vectors = [
            tuple(block_of(x, kernel.resolution) for x in tup)
            for tup in trials
            if constants.isdisjoint(tup)
        ]
    else:
        vectors = itertools.product(range(kernel.resolution), repeat=system.variables)
    classes = [
        (tuple(b[v - 1] for v in slot), repeat_pattern(slot)) for b in vectors for slot in slots
    ]
    assert got_classes == list(dict.fromkeys(classes))


def test_a_mixed_audit_places_its_trials_in_blocks(monkeypatch):
    # two points in different halves pass, two in one half fail, so the
    # trials are placed in blocks and counted
    cuts = []
    float_cuts = corrector._float_cuts
    monkeypatch.setattr(corrector, "_float_cuts", lambda r: cuts.append(r) or float_cuts(r))
    kernel, system = oriented_kernel(), antisymmetry_system(symmetrized=False)
    got = audit_ae_hypothesis(kernel, system, 300, seed="0")
    assert cuts == [kernel.resolution]
    assert 0 < got.violations < 300


def test_audit_reads_value_at_where_a_trial_hits_a_constant(monkeypatch):
    # the first coordinate the audit draws for seed "0" is an override
    # constant; there the kernel is 0, so the first trial holds, while the
    # base grid alone (all ones) fails every trial
    hit = F(random.Random("0:audit").random())
    kernel = all_ones_kernel().with_exceptions(
        (
            ExceptionPiece((CoordIs(1, hit),), F(0)),
            ExceptionPiece((CoordIs(2, hit),), F(0)),
        )
    )
    system = triangle_free_system(mode="distinct")
    calls = []
    value_at = StepKernel.value_at
    monkeypatch.setattr(
        StepKernel, "value_at", lambda self, point: calls.append(point) or value_at(self, point)
    )
    got = audit_ae_hypothesis(kernel, system, 50, seed="0")
    # value_at only in the first trial, once per slot
    assert any(hit in point for point in calls)
    assert len(calls) == len(system.all_slots())
    assert got.violations == 49
    assert got == reference_audit(kernel, system, 50, seed="0")


def test_audit_refuses_an_arity_mismatch():
    # a kernel of arity 2 under systems of arity 1 and 3, refused before drawing
    for arity in (1, 3):
        system = ConstraintSystem(
            arity=arity,
            variables=arity,
            mode="distinct",
            atoms=(FiniteValuesAtom(tuple(range(1, arity + 1)), frozenset({F(1)})),),
        )
        with pytest.raises(
            ContractError, match=f"system arity {arity} does not match kernel arity 2"
        ):
            audit_ae_hypothesis(all_ones_kernel(), system, 10)


#: Twelve floats in the four blocks of a resolution-4 kernel; a scripted
#: stream over so few repeats floats inside trials of two or more variables.
SCRIPT_FLOATS = [(2 * k + 1) / 24 for k in range(12)]

#: An override constant the scripted stream hits.
SCRIPT_HIT = F(SCRIPT_FLOATS[4])


class ScriptedRandom:
    """Stands in for ``random.Random``: each draw is one of ``SCRIPT_FLOATS``,
    chosen by a real generator of the same seed; ``drawn`` counts the draws."""

    real = random.Random

    def __init__(self, seed):
        self._choose = self.real(seed).choice
        self.drawn = 0

    def random(self):
        self.drawn += 1
        return self._choose(SCRIPT_FLOATS)


def scripted_case(variables):
    rng = random.Random(f"scripted:{variables}")
    kernel = StepKernel.from_flat(
        arity=2,
        resolution=4,
        space=BoundedInterval(F(1)),
        flat_values=[rng.choice([F(0), F(1, 2), F(1)]) for _ in range(16)],
        exceptions=(
            ExceptionPiece((CoordsEqual(1, 2),), F(1)),
            ExceptionPiece((CoordIs(1, SCRIPT_HIT),), F(0)),
        ),
    )
    atoms = {
        1: (FiniteValuesAtom((1, 1), frozenset({F(1)})),),
        2: (FiniteValuesAtom((1, 2), frozenset({F(0), F(1, 2)})), EqualityAtom((1, 2), (2, 1))),
        3: triangle_free_system(mode="distinct").atoms,
        4: (
            FiniteValuesAtom((1, 2), frozenset({F(0), F(1)})),
            EqualityAtom((2, 3), (4, 1)),
            FiniteValuesAtom((4, 3), frozenset({F(1, 2), F(1)})),
        ),
    }[variables]
    system = ConstraintSystem(arity=2, variables=variables, mode="distinct", atoms=atoms)
    return kernel, system


@pytest.mark.parametrize("variables", [1, 2, 3, 4])
@pytest.mark.parametrize("round_floats", [7, None])
def test_audit_redraws_repeats_like_the_plain_audit(monkeypatch, variables, round_floats):
    # trials with a repeated float are redrawn from the same stream, also
    # across rounds: seven floats a round, or the real round size with one
    # round's trials and a few more
    if round_floats is not None:
        monkeypatch.setattr(corrector, "_AUDIT_ROUND", round_floats)
        samples = 150
    else:
        samples = corrector._AUDIT_ROUND // variables + 3
    kernel, system = scripted_case(variables)
    streams = []

    def scripted(seed):
        streams.append(ScriptedRandom(seed))
        return streams[-1]

    monkeypatch.setattr(random, "Random", scripted)
    got = audit_ae_hypothesis(kernel, system, samples, seed="r")
    hits = []
    want = reference_audit(
        kernel, system, samples, seed="r",
        on_trial=lambda tup: hits.append(SCRIPT_HIT in tup),
    )
    assert got == want
    # the same floats were drawn, no more and no fewer
    audit_stream, reference_stream = streams
    assert audit_stream.drawn == reference_stream.drawn
    # the script did hit the constant, and repeated floats in some trials
    assert any(hits) and not all(hits)
    assert (reference_stream.drawn > samples * variables) == (variables > 1)


@pytest.mark.parametrize("index", range(8))
def test_distinct_values_are_value_at_at_the_samples(index):
    # the suite's kernels carry diagonal pieces and sevenths-valued constants
    kernel, system, points, eps = suite_problem(index, "distinct")
    report = repair(kernel, system, points, RepairConfig(epsilon=eps, seed="s")).report
    pools = separated_pools(random.Random("s"), kernel, system, sorted(points))
    samples = {z: p[0] for z, p in zip(sorted(points), pools)}
    for key, text in report["values"].items():
        t = tuple(as_fraction(tok) for tok in key.split(","))
        want = kernel.value_at(tuple(samples[z] for z in t))
        assert text == value_to_text(kernel.space, want)


def extracted_cores(kernel, pools, core_size, eps):
    """Cores that multi_type_extract finds in the pools under the coloring
    of each size vector by the value cell at the sorted selected samples."""
    partition = epsilon_partition(kernel.space, eps)

    def coloring_for(vec):
        def color(selection):
            sample = tuple(sorted(itertools.chain.from_iterable(selection)))
            return partition.cell_of(kernel.value_at(sample))

        return color

    n = len(pools)
    vectors = sorted(
        tuple(t.count(i) for i in range(n))
        for t in itertools.combinations_with_replacement(range(n), kernel.arity)
    )
    return [sorted(c) for c in multi_type_extract(pools, vectors, coloring_for, core_size)]


def check_cores_are_pool_prefixes(kernel, system, points, eps, seed):
    """Extraction returns the pool prefixes, and the repair's table is
    ``value_at`` at sorted representatives of those cores."""
    outcome = repair(kernel, system, points, RepairConfig(epsilon=eps, seed=seed))
    pools = separated_pools(random.Random(seed), kernel, system, sorted(points))
    core_size = max(system.variables, kernel.arity)
    assert extracted_cores(kernel, pools, core_size, eps) == [
        sorted(p[:core_size]) for p in pools
    ]
    names = outcome.report["points"]
    assert outcome.report["values"] == {
        ",".join(names[i] for i in t): value_to_text(kernel.space, v)
        for t, v in sampled_table(kernel, "multiset", pools, core_size).items()
    }
    return outcome


@pytest.mark.parametrize("index", range(8))
@pytest.mark.parametrize("seed", ["0", "q"])
def test_cores_are_what_extraction_returns(index, seed):
    # the suite's four kinds, with sevenths-valued override constants and
    # diagonal pieces
    kernel, system, points, eps = suite_problem(index, "multiset")
    check_cores_are_pool_prefixes(kernel, system, points, eps, seed)


def test_a_failed_repairs_cores_are_what_extraction_returns():
    # the all-ones kernel fails; its pools are drawn at the separating level
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    assert separating_refinement(points, 2) == 4
    outcome = check_cores_are_pool_prefixes(all_ones_kernel(), system, points, F(1, 10), "0")
    assert outcome.status == "failed"


# --- the audit against the plain audit, on random kernels and systems ---


@st.composite
def audit_case(draw):
    """Random step kernel, small system of mixed atom kinds, and audit seed.

    Pieces mix ``CoordsEqual`` and ``CoordIs`` conditions; half the
    constants are floats the audit itself draws early, so some trials hit
    them and take the ``value_at`` path.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    seed = draw(st.sampled_from(["0", "7", "abc"]))
    arity = draw(st.integers(min_value=1, max_value=3))
    resolution = draw(st.integers(min_value=1, max_value=4))
    variables = draw(st.integers(min_value=1, max_value=3))
    menu = [F(0), F(1, 2), F(1)]
    stream = random.Random(f"{seed}:audit")
    drawn = [F(stream.random()) for _ in range(4 * variables)]
    pieces = []
    for _ in range(rng.randrange(5)):
        conditions = []
        for _ in range(rng.randint(1, 2)):
            if arity >= 2 and rng.random() < 0.5:
                first, second = rng.sample(range(1, arity + 1), 2)
                conditions.append(CoordsEqual(first, second))
            else:
                const = rng.choice(drawn) if rng.random() < 0.5 else F(rng.randrange(7), 7)
                conditions.append(CoordIs(rng.randint(1, arity), const))
        pieces.append(ExceptionPiece(tuple(conditions), rng.choice(menu)))
    kernel = StepKernel.from_flat(
        arity=arity,
        resolution=resolution,
        space=BoundedInterval(F(1)),
        flat_values=[rng.choice(menu) for _ in range(resolution**arity)],
        exceptions=pieces,
    )

    def slot():
        return tuple(rng.randint(1, variables) for _ in range(arity))

    pairs = list(itertools.product(menu, repeat=2))
    kinds = [
        lambda: FiniteValuesAtom(slot(), frozenset(rng.sample(menu, rng.randint(1, 2)))),
        lambda: EqualityAtom(slot(), slot()),
        lambda: ZeroProductAtom((slot(), slot())),
        lambda: AffineAtom(((F(1), slot()), (F(1), slot()), (F(-1), slot())), F(1, 2)),
        lambda: TableAtom((slot(), slot()), frozenset(rng.sample(pairs, rng.randint(1, 6)))),
    ]
    atoms = tuple(rng.choice(kinds)() for _ in range(rng.randint(1, 4)))
    system = ConstraintSystem(arity=arity, variables=variables, mode="distinct", atoms=atoms)
    return kernel, system, seed


@settings(max_examples=150, deadline=None)
@given(audit_case())
def test_audit_equals_the_plain_audit_on_random_kernels(case):
    kernel, system, seed = case
    assert audit_ae_hypothesis(kernel, system, 60, seed=seed) == reference_audit(
        kernel, system, 60, seed=seed
    )


@st.composite
def edge_audit_case(draw):
    """A small kernel and system, a sample count at the count of block
    vectors or one below it, and an audit seed.

    The atoms pass everywhere, fail everywhere, or are drawn at random; the
    kernel's one constant is none, 1/3 (never drawn), 1/4 or a
    float the audit draws early, and its value may fall off the atoms'
    menu, so a hit trial can differ from the clear ones.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    seed = draw(st.sampled_from(["0", "7", "abc"]))
    arity = draw(st.integers(min_value=1, max_value=3))
    resolution = draw(st.integers(min_value=1, max_value=4))
    variables = draw(st.integers(min_value=1, max_value=3))
    verdict = draw(st.sampled_from(["pass", "fail", "mixed"]))
    constant = draw(st.sampled_from([None, F(1, 3), F(1, 4), "drawn"]))
    menu = [F(0), F(1, 2), F(1)]
    if constant == "drawn":
        stream = random.Random(f"{seed}:audit")
        constant = rng.choice([F(stream.random()) for _ in range(2 * variables)])
    pieces = []
    if constant is not None:
        value = rng.choice(menu + [F(1, 3)])
        pieces.append(ExceptionPiece((CoordIs(rng.randint(1, arity), constant),), value))
    if arity >= 2 and rng.random() < 0.5:
        pieces.append(ExceptionPiece((CoordsEqual(1, 2),), rng.choice(menu)))
    kernel = StepKernel.from_flat(
        arity=arity,
        resolution=resolution,
        space=BoundedInterval(F(1)),
        flat_values=[rng.choice(menu) for _ in range(resolution**arity)],
        exceptions=pieces,
    )

    def slot():
        return tuple(rng.randint(1, variables) for _ in range(arity))

    if verdict == "pass":
        atoms = (FiniteValuesAtom(slot(), frozenset(menu)),)
    elif verdict == "fail":
        atoms = (FiniteValuesAtom(slot(), frozenset({F(1, 3)})),)
    else:
        atoms = (
            FiniteValuesAtom(slot(), frozenset(rng.sample(menu, 2))),
            EqualityAtom(slot(), slot()),
        )
    system = ConstraintSystem(arity=arity, variables=variables, mode="distinct", atoms=atoms)
    samples = max(1, resolution**variables - draw(st.sampled_from([0, 1])))
    return kernel, system, samples, seed


def recorded_block_failures(monkeypatch, found: list, limit=None):
    """Patch ``corrector._failing_keys`` so that every failing block vector
    the audit decides is appended to ``found``; more than ``limit`` block
    vectors asked about raise."""
    failing_keys = corrector._failing_keys

    def recording(checker, picks, read):
        decide = failing_keys(checker, picks, read)
        asked = 0

        def keys(given):
            nonlocal asked
            # block vectors are int tuples, hit trials Fraction tuples
            for key in given:
                if isinstance(key[0], int):
                    asked += 1
                    assert limit is None or asked <= limit, "too many block vectors"
                yield key

        def failing(given):
            for key, failed in decide(keys(given)):
                if isinstance(key[0], int):
                    found.append(key)
                yield key, failed

        return failing

    monkeypatch.setattr(corrector, "_failing_keys", recording)


@settings(max_examples=200, deadline=None)
@given(edge_audit_case())
def test_audit_equals_the_plain_audit_at_the_edges(case):
    kernel, system, samples, seed = case
    found = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorded_block_failures(monkeypatch, found)
        monkeypatch.setattr(random, "Random", CountingRandom)
        got, got_drawn = counted_draws(lambda: audit_ae_hypothesis(kernel, system, samples, seed))
        want, want_drawn = counted_draws(lambda: reference_audit(kernel, system, samples, seed))
    assert got == want
    path = audit_path(kernel, system, samples)
    assert got_drawn == (0 if path == "no-draw" else want_drawn)
    # every block vector is decided, as brute force decides it, unless
    # there are more of them than samples; then only those of clear trials
    vectors = itertools.product(range(kernel.resolution), repeat=system.variables)
    brute = reference_failing_blocks(kernel, system, vectors)
    if path == "counting":
        assert set(found) <= brute
    else:
        assert set(found) == brute


def test_an_audit_over_many_variables_counts_its_trials(monkeypatch):
    # 2^40 block vectors: the ten trials are counted, and no more than ten
    # vectors are ever asked about
    kernel = StepKernel.from_flat(1, 2, BoundedInterval(F(1)), [F(0), F(1)])
    atoms = tuple(FiniteValuesAtom((j,), frozenset({F(0)})) for j in (1, 40))
    system = ConstraintSystem(arity=1, variables=40, mode="distinct", atoms=atoms)
    found = []
    recorded_block_failures(monkeypatch, found, limit=10)
    got = audit_ae_hypothesis(kernel, system, 10, seed="0")
    assert got == reference_audit(kernel, system, 10, seed="0")
    assert 0 < got.violations < 10
    assert found and all(1 in (key[0], key[39]) for key in found)


# --- a failing repair decides once ---


#: fields of the attempt loop's report that ``repair``'s report does not
#: have: the loop's levels and the witness it drew
LOOP_ONLY_FIELDS = ("initial_m", "final_m", "samples", "pools", "cores", "pool_size", "core_size")


def one_attempt(report):
    """An attempt-loop report in ``repair``'s format."""
    return {k: v for k, v in report.items() if k not in LOOP_ONLY_FIELDS}


def escalating_problem(mode):
    """A repair that fails, and that the attempt loop escalates three times."""
    if mode == "multiset":
        system = triangle_free_system(mode="multiset")
        return all_ones_kernel(), system, (F(1, 10), F(3, 10), F(7, 10)), F(1, 10)
    kernel = StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0)] * 4,
    )
    system = ConstraintSystem(
        arity=2,
        variables=2,
        mode="distinct",
        atoms=(FiniteValuesAtom((1, 2), frozenset({F(1)})),),
    )
    return kernel, system, (F(1, 4), F(3, 4)), F(1, 10)


def rechecked(kernel, system, report, eps):
    """Violations, verdicts and density table recomputed from the report's values."""
    space = kernel.space
    values = {
        tuple(as_fraction(tok) for tok in key.split(",")): value_from_text(space, text)
        for key, text in report["values"].items()
    }
    symmetric = system.mode == "multiset"
    pts = [as_fraction(z) for z in report["points"]]
    viols = reference_violations(
        system, lambda t: values[tuple(sorted(t)) if symmetric else t], space, pts, eps
    )
    partition = epsilon_partition(space, eps)
    closeness = {}
    for t, v in sorted(values.items()):
        closeness[",".join(frac_str(x) for x in t)] = {
            "density": is_density_tuple(kernel, partition, t),
            "dist": frac_str(space.dist(v, kernel.value_at(t))),
        }
    return {
        "violations": [
            {"tuple": ",".join(frac_str(x) for x in v.assignment), "atom": v.detail}
            for v in viols[:10]
        ],
        "verdicts": [
            {"atom": atom.describe(), "holds": all(v.atom is not atom for v in viols)}
            for atom in system.atoms
        ],
        "density_closeness": closeness,
    }


def counting(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def counting_sweeps(monkeypatch):
    return counting(monkeypatch, corrector, "violations")


@pytest.mark.parametrize("mode", ["distinct", "multiset"])
def test_an_escalating_repair_sweeps_its_table_once(monkeypatch, mode):
    kernel, system, points, eps = escalating_problem(mode)
    calls = counting_sweeps(monkeypatch)
    outcome = repair(kernel, system, points, RepairConfig(epsilon=eps, seed="0"))
    report = outcome.report
    assert outcome.status == "failed"
    assert len(calls) == 1
    want = rechecked(kernel, system, report, eps)
    assert {key: report[key] for key in want} == want


@pytest.mark.parametrize("mode", ["distinct", "multiset"])
def test_a_failing_repair_decides_once_and_draws_one_attempt(monkeypatch, mode):
    kernel, system, points, eps = escalating_problem(mode)
    config = RepairConfig(epsilon=eps, seed="0")
    looped = reference_repair(kernel, system, points, config)
    assert looped.status == "failed" and len(looped.report["escalations"]) == 3
    want = reference_repair(kernel, system, points, config, max_escalations=0)
    reads = counting(monkeypatch, corrector, "_read_table")
    sweeps = counting_sweeps(monkeypatch)
    probes = counting(monkeypatch, corrector, "proven_infeasible")
    seeds = []

    class Recording(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(corrector, "random", types.SimpleNamespace(Random=Recording))
    outcome = repair(kernel, system, points, config)
    assert outcome.status == want.status == "failed"
    assert (len(reads), len(sweeps), len(probes)) == (1, 1, 1)
    assert seeds == []  # the repair draws nothing
    assert strip_timing(outcome.report) == one_attempt(want.report)


#: every key of ``repair``'s report, in either mode and for every status
REPORT_KEYS = {
    "part", "mode", "status", "epsilon", "seed", "points", "escalations", "probe",
    "values", "violations", "verdicts", "density_closeness", "agreement_failures", "timing",
}


@pytest.mark.parametrize("mode", ["distinct", "multiset"])
def test_the_report_holds_only_what_the_repair_decided(mode):
    kernel, system, points, eps = suite_problem(0, mode)
    outcomes = [repair(kernel, system, points, RepairConfig(epsilon=eps, seed="k"))]
    kernel, system, points, eps = escalating_problem(mode)
    outcomes.append(repair(kernel, system, points, RepairConfig(epsilon=eps, seed="k")))
    if mode == "distinct":
        system = antisymmetry_system(symmetrized=True)
        outcomes.append(repair(oriented_kernel(), system, (F(1, 5), F(7, 10))))
    assert [o.status for o in outcomes] == ["ok", "failed", "infeasible"][: len(outcomes)]
    for outcome in outcomes:
        assert set(outcome.report) == REPORT_KEYS
        assert outcome.report["part"] == (2 if mode == "multiset" else 1)


# --- index-keyed tables, closeness classes and float cuts against plain references ---


def reference_values(kernel, system, report):
    """The value table re-read with ``value_at`` at the samples or sorted
    core representatives of an attempt-loop report, keyed by ``Fraction``
    tuples."""
    pts = [as_fraction(z) for z in report["points"]]
    if system.mode == "multiset":
        cores = {as_fraction(z): [as_fraction(y) for y in c] for z, c in report["cores"].items()}
        tuples = itertools.combinations_with_replacement(pts, kernel.arity)
        return {
            t: kernel.value_at(
                tuple(sorted(y for z in sorted(set(t)) for y in cores[z][: t.count(z)]))
            )
            for t in tuples
        }
    samples = {as_fraction(z): as_fraction(y) for z, y in report["samples"].items()}
    return {
        t: kernel.value_at(tuple(samples[z] for z in t))
        for t in itertools.product(pts, repeat=kernel.arity)
    }


def check_against_references(kernel, system, points, eps, seed):
    config = RepairConfig(epsilon=eps, seed=seed)
    outcome = repair(kernel, system, points, config)
    report = outcome.report
    space = kernel.space
    drawn = reference_repair(kernel, system, points, config, max_escalations=0)
    values = reference_values(kernel, system, drawn.report)
    assert report["values"] == {
        ",".join(frac_str(x) for x in t): value_to_text(space, v) for t, v in values.items()
    }
    want = rechecked(kernel, system, report, eps)
    assert {key: report[key] for key in want} == want
    assert report["agreement_failures"] == [
        key
        for key, row in want["density_closeness"].items()
        if row["density"] and as_fraction(row["dist"]) > eps
    ]
    if outcome.ok:
        # every ordering of every tuple reads the reference's value
        pts = [as_fraction(z) for z in report["points"]]
        for t in itertools.product(pts, repeat=kernel.arity):
            key = tuple(sorted(t)) if system.mode == "multiset" else t
            assert outcome.corrected.value_at(t) == values[key]
    return outcome


@st.composite
def table_case(draw):
    """Random kernel, points and system in either mode.

    Points sit on interior grid cuts, on ``CoordIs`` constants and inside
    blocks; some constants are points, so tuples of one repaired value and
    one block vector read different kernel values and density flags.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    mode = draw(st.sampled_from(["distinct", "multiset"]))
    arity = draw(st.integers(min_value=1, max_value=3))
    resolution = draw(st.integers(min_value=1, max_value=4))
    variables = draw(st.integers(min_value=1, max_value=3))
    menu = [F(0), F(1, 2), F(1)]
    cuts = [F(j, resolution) for j in range(1, resolution)]
    inside = [F(j, 16) for j in range(1, 16, 2)] + [F(j, 7) for j in range(7)]
    on_cuts = rng.sample(cuts, min(len(cuts), rng.randint(0, 2)))
    points = sorted(set(on_cuts + rng.sample(inside, rng.randint(1, 4))))
    pieces = []
    for _ in range(rng.randrange(5)):
        conditions = []
        for _ in range(rng.randint(1, 2)):
            if arity >= 2 and rng.random() < 0.5:
                first, second = rng.sample(range(1, arity + 1), 2)
                conditions.append(CoordsEqual(first, second))
            else:
                const = rng.choice(points) if rng.random() < 0.7 else F(rng.randrange(7), 7)
                conditions.append(CoordIs(rng.randint(1, arity), const))
        pieces.append(ExceptionPiece(tuple(conditions), rng.choice(menu)))
    base = {}
    for blocks in itertools.product(range(resolution), repeat=arity):
        key = tuple(sorted(blocks)) if mode == "multiset" else blocks
        base.setdefault(key, rng.choice(menu))
    kernel = StepKernel.from_flat(
        arity=arity,
        resolution=resolution,
        space=BoundedInterval(F(1)),
        flat_values=[
            base[tuple(sorted(b)) if mode == "multiset" else b]
            for b in itertools.product(range(resolution), repeat=arity)
        ],
        exceptions=pieces,
        symmetric_base=mode == "multiset",
    )

    def slot():
        return tuple(rng.randint(1, variables) for _ in range(arity))

    kinds = [
        lambda: FiniteValuesAtom(slot(), frozenset(rng.sample(menu, rng.randint(1, 3)))),
        lambda: EqualityAtom(slot(), slot()),
        lambda: AffineAtom(((F(1), slot()), (F(-1), slot())), F(1, 4)),
    ]
    atoms = tuple(rng.choice(kinds)() for _ in range(rng.randint(1, 3)))
    system = ConstraintSystem(arity=arity, variables=variables, mode=mode, atoms=atoms)
    eps = draw(st.sampled_from([F(1, 10), F(1, 3), F(3, 2)]))
    return kernel, system, tuple(points), eps, draw(st.sampled_from(["0", "x"]))


@settings(max_examples=120, deadline=None)
@given(table_case())
def test_repair_equals_the_point_keyed_references(case):
    check_against_references(*case)


@pytest.mark.parametrize("mode", ["distinct", "multiset"])
def test_closeness_rows_differ_where_a_point_is_a_constant(mode):
    # 1/7 and 3/16 share block 0 and read 1/2, but the kernel is 0 at 1/7
    kernel = StepKernel.from_flat(
        arity=1,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(1, 2), F(1, 2)],
        exceptions=(ExceptionPiece((CoordIs(1, F(1, 7)),), F(0)),),
        symmetric_base=True,
    )
    system = ConstraintSystem(
        arity=1, variables=1, mode=mode, atoms=(FiniteValuesAtom((1,), frozenset({F(1, 2)})),)
    )
    outcome = check_against_references(kernel, system, (F(1, 7), F(3, 16)), F(1, 10), "0")
    closeness = outcome.report["density_closeness"]
    assert (closeness["1/7"]["dist"], closeness["3/16"]["dist"]) == ("1/2", "0")


@pytest.mark.parametrize("mode", ["distinct", "multiset"])
def test_closeness_rows_differ_where_a_point_is_on_a_cut(mode):
    # 1/2 and 3/4 read block 1, but 1/2 also touches block 0
    kernel = StepKernel.from_flat(
        arity=1,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1)],
        symmetric_base=True,
    )
    system = ConstraintSystem(
        arity=1, variables=1, mode=mode, atoms=(FiniteValuesAtom((1,), frozenset({F(1)})),)
    )
    outcome = check_against_references(kernel, system, (F(1, 2), F(3, 4)), F(1, 10), "0")
    closeness = outcome.report["density_closeness"]
    assert (closeness["1/2"]["density"], closeness["3/4"]["density"]) == (False, True)


@settings(max_examples=120, deadline=None)
@given(table_case())
def test_repair_reads_the_kernel_once_per_closeness_class(case):
    kernel, system, points, eps, seed = case
    reads = []
    generic_value = StepKernel.generic_value

    def read(self, blocks, pattern):
        reads.append((blocks, pattern))
        return generic_value(self, blocks, pattern)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StepKernel, "generic_value", read)
        repair(kernel, system, points, RepairConfig(epsilon=eps, seed=seed))
    # a class is each coordinate's adjacent blocks and the constant it
    # equals (if any), plus the tuple's repeat pattern
    constants = kernel.exception_constants()
    r = kernel.resolution
    coords = [(adjacent_blocks(x, r), x if x in constants else None) for x in points]
    multiset = system.mode == "multiset"
    if multiset:
        tuples = itertools.combinations_with_replacement(range(len(points)), kernel.arity)
    else:
        tuples = itertools.product(range(len(points)), repeat=kernel.arity)
    classes = {(tuple(coords[i] for i in t), repeat_pattern(t)) for t in tuples}
    # multiset mode may read the all-distinct pattern and the tuple's own
    assert len(reads) <= len(classes) * (2 if multiset else 1)


#: values a perturbed table may take in [0, 1], some within eps of the menu
PERTURBED = (F(0), F(1, 20), F(1, 2), F(11, 20), F(19, 20), F(1))


@settings(max_examples=120, deadline=None)
@given(table_case(), st.data())
def test_the_judged_rows_match_the_per_tuple_oracle(case, data):
    # a repaired table with a few values moved, judged as verify judges a report
    kernel, system, points, eps, seed = case
    report = repair(kernel, system, points, RepairConfig(epsilon=eps, seed=seed)).report
    given = {key: value_from_text(kernel.space, text) for key, text in report["values"].items()}
    for key in data.draw(st.lists(st.sampled_from(sorted(given)), max_size=3)):
        given[key] = data.draw(st.sampled_from(PERTURBED))
    pts = tuple(as_fraction(z) for z in report["points"])
    judged, table, _ = judge(kernel, system, pts, eps, given)
    index = {name: i for i, name in enumerate(report["points"])}
    values = {tuple(index[tok] for tok in key.split(",")): v for key, v in given.items()}
    assert table.values == values
    closeness, agree = reference_closeness(kernel, pts, eps, values)
    assert judged["density_closeness"] == closeness
    assert judged["agreement_failures"] == agree


@settings(max_examples=60, deadline=None)
@given(table_case())
def test_verify_rederives_every_field_of_a_repair_report(case):
    kernel, system, points, eps, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, f"{name}.json") for name in ("kernel", "system", "report")}
        save_kernel(kernel, files["kernel"])
        save_constraint(system, kernel.space, files["system"])
        common = ["--kernel", files["kernel"], "--constraint", files["system"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main([
                "correct", *common, "--points", ",".join(map(frac_str, points)),
                "--epsilon", frac_str(eps), "--seed", seed, "--out", files["report"],
            ])
            code = cli.main(["verify", *common, "--report", files["report"]])
        result = load_json(files["report"], "report")["result"]
    # a sweep that fails exits 2 as before; no field differs either way
    assert code == (2 if result["violations"] else 0)
    assert "mismatch" not in out.getvalue()


@pytest.mark.parametrize("r", range(1, 13))
def test_float_cuts_place_every_float_in_its_block(r):
    block = functools.partial(bisect.bisect_right, corrector._float_cuts(r))
    near = []
    for j in range(r + 1):
        x = float(Fraction(j, r))
        near += [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]
    rng = random.Random(f"cuts:{r}")
    drawn = [rng.random() for _ in range(2000)]
    for x in near + drawn:
        if 0 <= x < 1:
            assert block(x) == block_of(Fraction(x), r), (x, r)


@pytest.mark.parametrize("resolution", [3, 5, 6, 7])
@pytest.mark.parametrize("seed", ["0", "7"])
def test_audit_equals_the_plain_audit_off_dyadic_resolutions(resolution, seed):
    rng = random.Random(f"off-dyadic:{resolution}:{seed}")
    menu = [F(0), F(1, 2), F(1)]
    # the audit's own early floats as constants, so some trials hit them
    stream = random.Random(f"{seed}:audit")
    hits = [F(stream.random()) for _ in range(6)]
    kernel = StepKernel.from_flat(
        arity=2,
        resolution=resolution,
        space=BoundedInterval(F(1)),
        flat_values=[rng.choice(menu) for _ in range(resolution**2)],
        exceptions=(
            ExceptionPiece((CoordsEqual(1, 2),), F(1)),
            ExceptionPiece((CoordIs(1, rng.choice(hits)),), F(0)),
            ExceptionPiece((CoordIs(2, F(1, 7)),), F(1)),
        ),
    )
    for system in (
        triangle_free_system(mode="distinct"),
        ConstraintSystem(
            arity=2,
            variables=3,
            mode="distinct",
            atoms=(
                FiniteValuesAtom((1, 2), frozenset({F(0), F(1, 2)})),
                EqualityAtom((2, 3), (3, 2)),
                FiniteValuesAtom((3, 3), frozenset({F(1)})),
            ),
        ),
    ):
        assert audit_ae_hypothesis(kernel, system, 300, seed=seed) == reference_audit(
            kernel, system, 300, seed=seed
        )


# --- the one-pass repair against the attempt loop, witnesses and atom plans ---


def test_a_repeated_constant_point_under_a_diagonal_piece_fails_agreement():
    # the table reads the diagonal piece at (1/2, 1/2), where value_at reads
    # the piece of the constant 1/2 first; no refinement level changes the table
    kernel = StepKernel.from_flat(
        arity=2,
        resolution=1,
        space=BoundedInterval(F(1)),
        flat_values=[F(0)],
        exceptions=(
            ExceptionPiece((CoordIs(1, F(1, 2)),), F(0)),
            ExceptionPiece((CoordsEqual(1, 2),), F(1)),
        ),
    )
    system = ConstraintSystem(
        arity=2,
        variables=1,
        mode="distinct",
        atoms=(FiniteValuesAtom((1, 1), frozenset({F(0), F(1)})),),
    )
    config = RepairConfig(epsilon=F(1, 10), seed="0")
    outcome = repair(kernel, system, (F(1, 4), F(1, 2)), config)
    report = outcome.report
    assert outcome.status == "failed"
    assert report["agreement_failures"] == ["1/2,1/2"]
    assert report["values"]["1/2,1/2"] == "1"
    assert kernel.value_at((F(1, 2), F(1, 2))) == 0
    looped = reference_repair(kernel, system, (F(1, 4), F(1, 2)), config)
    assert [e["reason"] for e in looped.report["escalations"]] == ["agreement"] * 3
    assert looped.status == "failed"
    want = reference_repair(kernel, system, (F(1, 4), F(1, 2)), config, max_escalations=0)
    assert strip_timing(report) == one_attempt(want.report)


#: report fields that the attempt loop reaches anew in every attempt
DECIDED_FIELDS = (
    "values", "violations", "verdicts", "density_closeness", "agreement_failures", "probe"
)


@settings(max_examples=150, deadline=None)
@given(
    table_case(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([None, 8, 64]),
    st.data(),
)
def test_repair_equals_the_attempt_loop(case, budget, cap, data):
    # one attempt is the loop without escalations, and neither a budget, a
    # cap on the refinement nor a pool size moves what the loop decides
    kernel, system, points, eps, seed = case
    config = RepairConfig(epsilon=eps, seed=seed)
    try:
        want = reference_repair(kernel, system, points, config, max_escalations=0)
    except ContractError as exc:
        with pytest.raises(ContractError, match=re.escape(str(exc))):
            repair(kernel, system, points, config)
        return
    outcome = repair(kernel, system, points, config)
    assert strip_timing(outcome.report) == one_attempt(want.report)
    assert outcome.status == want.status
    if want.corrected is None:
        assert outcome.corrected is None
    else:
        assert outcome.corrected.values == want.corrected.values
    core_size = max(system.variables, system.arity)
    pool = data.draw(st.integers(min_value=core_size, max_value=2 * core_size + 1))
    try:
        looped = reference_repair(
            kernel, system, points, config,
            max_escalations=budget, max_refinement=cap, pool_size=pool,
        )
    except ContractError as exc:
        assert "cannot separate" in str(exc)
        return
    assert looped.status == outcome.status
    assert (looped.corrected is None) == (outcome.corrected is None)
    if looped.corrected is not None:
        assert looped.corrected.values == outcome.corrected.values
    for key in DECIDED_FIELDS:
        assert looped.report[key] == outcome.report[key], key


#: report fields that name the seed or time the run
SEED_AND_TIMING = ("seed", "timing")


@settings(max_examples=100, deadline=None)
@given(table_case(), st.text(max_size=4), st.text(max_size=4))
def test_only_the_witnesses_depend_on_the_seed(case, seed_a, seed_b):
    # the whole report but the seed it records and its timing is the same
    # for every seed
    kernel, system, points, eps, _ = case
    assume(2 <= len(points) <= 6)
    outcomes = []
    for seed in (seed_a, seed_b):
        config = RepairConfig(epsilon=eps, seed=seed)
        try:
            outcomes.append(repair(kernel, system, points, config))
        except ContractError as exc:
            outcomes.append(str(exc))
    first, second = outcomes
    if isinstance(first, str):
        assert first == second
        return
    assert {k: v for k, v in first.report.items() if k not in SEED_AND_TIMING} == {
        k: v for k, v in second.report.items() if k not in SEED_AND_TIMING
    }
    assert first.status == second.status
    assert (first.corrected is None) == (second.corrected is None)
    if first.corrected is not None:
        assert first.corrected.values == second.corrected.values


def test_an_atom_plan_is_compiled_once_per_system(monkeypatch):
    kernel, system, points, eps = suite_problem(1, "multiset")
    shapes = counting(monkeypatch, constraint, "_shape")
    for e in (F(0), eps):
        _AtomChecker(system, kernel.space, e)
    audit_ae_hypothesis(kernel, system, 20)
    repair(kernel, system, points, RepairConfig(epsilon=eps))
    assert len(shapes) == len(system.atoms)


@settings(max_examples=100, deadline=None)
@given(table_case(), st.randoms(use_true_random=False))
def test_a_shared_atom_plan_decides_like_a_fresh_one(case, rnd):
    kernel, system, points, eps, seed = case
    space = kernel.space
    menu = [F(0), F(1, 2), F(1), F(3, 5)]
    vectors = [[rnd.choice(menu) for _ in system.all_slots()] for _ in range(6)]
    # an exact checker, then a relaxed one, on the one plan of the system
    checkers = [_AtomChecker(system, space, e) for e in (F(0), eps)]
    for checker in checkers:
        fresh = _AtomChecker(dataclasses.replace(system), space, checker.eps)
        for values in vectors:
            ids = [checker.intern(v) for v in values]
            fresh_ids = [fresh.intern(v) for v in values]
            assert list(checker.failing(ids)) == list(fresh.failing(fresh_ids))
    plan = vars(system)["_atom_plan"]
    assert all(checker.slots is plan[0] for checker in checkers)
    audit = audit_ae_hypothesis(kernel, system, 30, seed=seed)
    assert audit == audit_ae_hypothesis(kernel, dataclasses.replace(system), 30, seed=seed)
    config = RepairConfig(epsilon=eps, seed=seed)
    got = repair(kernel, system, points, config)
    want = repair(kernel, dataclasses.replace(system), points, config)
    assert strip_timing(got.report) == strip_timing(want.report)
    assert vars(system)["_atom_plan"] is plan
