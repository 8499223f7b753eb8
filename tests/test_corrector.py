"""The repair pipeline: sampling, extraction, verification, escalation."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from helpers import reference_audit
from kernel_repair.constraint import (
    ConstraintSystem,
    FiniteValuesAtom,
    metric_system,
    triangle_free_system,
    violations,
)
from kernel_repair.corrector import (
    CorrectedKernel,
    RepairConfig,
    audit_ae_hypothesis,
    repair,
    separating_refinement,
    wilson_interval,
    _count_vectors,
)
from kernel_repair.demos import (
    almost_metric_kernel,
    antisymmetry_system,
    loopy_bipartite_kernel,
    oriented_kernel,
)
from kernel_repair import corrector
from kernel_repair.errors import ContractError, ExtractionFailed
from kernel_repair.fileio import strip_timing
from kernel_repair.kernel import CoordIs, ExceptionPiece, StepKernel
from kernel_repair.rational import as_fraction
from kernel_repair.values import BoundedInterval, epsilon_partition

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
    with pytest.raises(ContractError):
        RepairConfig(max_escalations=-1)
    with pytest.raises(ContractError):
        RepairConfig(method="psychic")
    with pytest.raises(ContractError):
        RepairConfig(restarts=0)
    with pytest.raises(ContractError):
        RepairConfig(pool_size=0)


def test_separating_refinement():
    assert separating_refinement((F(1, 5), F(7, 10)), 2) == 2
    assert separating_refinement((F(1, 10), F(3, 10)), 2) == 4
    assert separating_refinement((F(1, 10), F(1, 5)), 2) == 8
    assert separating_refinement((F(1, 10),), 2) == 2
    with pytest.raises(ContractError):
        separating_refinement((F(1, 10), F(1, 5)), 2, cap=4)


def test_count_vectors():
    assert _count_vectors(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(_count_vectors(4, 3)) == 20  # C(4+3-1, 3)


def test_corrected_kernel_lookup():
    g = CorrectedKernel(
        points=(F(1, 4), F(3, 4)),
        arity=2,
        symmetric=True,
        values={(F(1, 4), F(3, 4)): F(1), (F(1, 4), F(1, 4)): F(0), (F(3, 4), F(3, 4)): F(0)},
    )
    assert g.value_at((F(3, 4), F(1, 4))) == 1  # sorted lookup
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
    assert outcome.report["final_m"] == 2
    assert outcome.report["escalations"] == []
    assert kernel.value_at((F(1, 5), F(7, 10))) == 0  # the defect was real


def test_distinct_repair_samples_avoid_guarded_values():
    piece = ExceptionPiece((CoordIs(1, F(1, 5)),), F(1))
    kernel = bipartite_kernel((piece,))
    system = triangle_free_system(mode="distinct")
    points = (F(1, 5), F(7, 10), F(9, 10))
    outcome = repair(kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="7"))
    assert outcome.ok
    samples = {as_fraction(v) for v in outcome.report["samples"].values()}
    assert F(1, 5) not in samples
    assert not samples & set(points)
    assert len(samples) == len(points)


def test_distinct_repair_with_zero_epsilon_skips_density_check():
    kernel = bipartite_kernel()
    system = triangle_free_system(mode="distinct")
    outcome = repair(kernel, system, (F(1, 5), F(7, 10)), RepairConfig(seed="0"))
    assert outcome.ok
    assert all(row["density"] is None for row in outcome.report["density_closeness"].values())


def test_distinct_honest_failure_after_escalations():
    """A satisfiable demand the kernel never meets burns the cap honestly."""
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
    assert len(outcome.report["escalations"]) == 3
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
    assert outcome.report["escalations"] == []  # no budget wasted


# --- multiset mode ---


def test_multiset_repair_clears_diagonal_defect():
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    outcome = repair(kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="0"))
    assert outcome.ok
    assert outcome.report["final_m"] == 4
    assert outcome.report["escalations"] == []
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


def test_multiset_pool_and_core_sizes_reported():
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    outcome = repair(
        kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="0", pool_size=5)
    )
    assert outcome.ok
    rep = outcome.report
    assert rep["core_size"] == 3
    assert rep["pool_size"] == 5
    assert all(len(p) == 5 for p in rep["pools"].values())
    assert all(len(c) == 3 for c in rep["cores"].values())
    with pytest.raises(ContractError):
        repair(
            kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="0", pool_size=2)
        )


def extraction_failing_on(monkeypatch, attempts):
    """Make core extraction fail on the given attempt numbers, else delegate."""
    real = corrector.multi_type_extract

    def flaky(*args, **kwargs):
        if int(kwargs["seed"].rsplit(":", 1)[1]) in attempts:
            raise ExtractionFailed("no core this time")
        return real(*args, **kwargs)

    monkeypatch.setattr(corrector, "multi_type_extract", flaky)


def test_extraction_failure_doubles_the_pool_and_keeps_m(monkeypatch):
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    config = RepairConfig(epsilon=F(1, 10), seed="0", pool_size=5)
    plain = repair(kernel, system, points, config)
    extraction_failing_on(monkeypatch, {0})
    outcome = repair(kernel, system, points, config)
    assert outcome.status == "ok"
    rep = outcome.report
    assert rep["escalations"] == [{"reason": "extraction", "pool": 10}]
    assert rep["final_m"] == plain.report["final_m"] == rep["initial_m"]
    assert rep["pool_size"] == 10
    assert all(len(p) == 10 for p in rep["pools"].values())


def test_extraction_failing_every_time_ends_as_failed(monkeypatch):
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    extraction_failing_on(monkeypatch, {0, 1, 2, 3})
    outcome = repair(kernel, system, points, RepairConfig(epsilon=F(1, 10), seed="0"))
    assert outcome.status == "failed"
    assert outcome.corrected is None
    assert outcome.report["escalations"] == [
        {"reason": "extraction", "pool": 12},
        {"reason": "extraction", "pool": 24},
        {"reason": "extraction", "pool": 48},
    ]
    assert outcome.report["probe"] == {"ran": False, "proven_infeasible": False}


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
    assert strip_timing(c.report) != strip_timing(a.report)  # seed reaches the samples


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


@pytest.mark.parametrize(
    "kernel, system",
    [
        pytest.param(
            loopy_bipartite_kernel(), triangle_free_system(mode="multiset"), id="triangle-free"
        ),
        pytest.param(all_ones_kernel(), triangle_free_system(mode="distinct"), id="all-ones"),
        pytest.param(almost_metric_kernel(), metric_system(), id="metric"),
        pytest.param(oriented_kernel(), antisymmetry_system(symmetrized=False), id="antisymmetry"),
        pytest.param(
            oriented_kernel(), antisymmetry_system(symmetrized=True), id="antisymmetry-symmetrized"
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
            id="short-circuit",
        ),
    ],
)
@pytest.mark.parametrize("seed", ["0", "7"])
def test_audit_matches_the_plain_audit(monkeypatch, kernel, system, seed):
    calls = []
    original = StepKernel.value_at

    def counted(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(StepKernel, "value_at", counted)
    got = audit_ae_hypothesis(kernel, system, 300, seed=seed)
    got_reads = list(calls)
    calls.clear()
    want = reference_audit(kernel, system, 300, seed=seed)
    assert got == want
    # the memo reads slots as lazily as the plain audit: no more kernel calls
    assert got_reads == calls
