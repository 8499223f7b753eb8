"""End-to-end worked scenarios exercising the repair pipeline.

Each demo builds a kernel with a deliberate null-set defect, runs the
repair, and reports before/after evidence that the defect is gone (or an
honest infeasibility when no repair can exist).  All demos are pure
functions of their seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constraint import (
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    TableAtom,
    metric_system,
    symmetry_atoms,
    triangle_free_system,
    violations,
)
from .corrector import RepairConfig, RepairOutcome, audit_ae_hypothesis, repair
from .errors import ContractError
from .kernel import CoordIs, CoordsEqual, ExceptionPiece, StepKernel
from .values import BoundedInterval, CompactifiedRay

F = Fraction


@dataclass(frozen=True, eq=False)
class DemoReport:
    """Outcome of one demo: a JSON-ready summary plus the live objects.

    ``outcome`` is the demo's primary repair outcome, or None for demos
    that only audit.
    """

    name: str
    summary: dict
    outcome: Optional[RepairOutcome]
    objects: dict

    def to_doc(self) -> dict:
        """The summary plus every repair report, as written to a report file."""
        doc = {"summary": self.summary, "reports": {}}
        if self.outcome is not None:
            doc["reports"]["main"] = self.outcome.report
        for key, obj in self.objects.items():
            if isinstance(obj, RepairOutcome):
                doc["reports"][key] = obj.report
        return doc


def count_triangles(value_at, points) -> int:
    """Ordered triples (repeats included) whose three pair values are all nonzero."""
    count = 0
    for x, y, z in itertools.product(points, repeat=3):
        if (
            value_at((x, y)) != 0
            and value_at((y, z)) != 0
            and value_at((x, z)) != 0
        ):
            count += 1
    return count


def loopy_bipartite_kernel() -> StepKernel:
    """Complete bipartite edge indicator with a spurious loop on the diagonal.

    Off the diagonal the two halves of [0,1) form a triangle-free bipartite
    structure; the diagonal override puts a loop at every point, so triples
    through repeated points form triangles even though the defect is a null
    set.
    """
    return StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1), F(1), F(0)],
        exceptions=(ExceptionPiece((CoordsEqual(1, 2),), F(1)),),
        symmetric_base=True,
    )


def triangle_demo(seed: str = "0", audit_samples: int = 10_000) -> DemoReport:
    """Remove the diagonal loops from the bipartite kernel.

    The repaired values keep every cross-half edge yet admit no triangle at
    all, including through repeated points.  A second run against an
    all-ones kernel (whose triangles have full measure) shows the honest
    failure path: the audit pins the violation rate at 1 and the repair
    reports failure instead of producing values.
    """
    kernel = loopy_bipartite_kernel()
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(1, 5), F(3, 10), F(3, 5), F(7, 10), F(4, 5))
    config = RepairConfig(epsilon=F(1, 10), seed=seed)
    outcome = repair(kernel, system, points, config)
    audit = audit_ae_hypothesis(kernel, system, samples=audit_samples, seed=seed)

    f_triangles = count_triangles(kernel.value_at, points)
    g_triangles = (
        count_triangles(outcome.corrected.value_at, points) if outcome.ok else None
    )

    all_ones = StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(1)] * 4,
        symmetric_base=True,
    )
    ones_outcome = repair(all_ones, system, points, config)
    ones_audit = audit_ae_hypothesis(all_ones, system, samples=audit_samples, seed=seed)

    summary = {
        "name": "triangle_free",
        "status": outcome.status,
        "f_triangles": f_triangles,
        "g_triangles": g_triangles,
        "audit_violations": audit.violations,
        "audit_samples": audit.samples,
        "audit_interval": [audit.interval_low, audit.interval_high],
        "all_ones_status": ones_outcome.status,
        "all_ones_audit_interval": [ones_audit.interval_low, ones_audit.interval_high],
    }
    objects = {
        "kernel": kernel,
        "system": system,
        "points": points,
        "audit": audit,
        "all_ones_kernel": all_ones,
        "all_ones_outcome": ones_outcome,
        "all_ones_audit": ones_audit,
    }
    return DemoReport("triangle_free", summary, outcome, objects)


def almost_metric_kernel() -> StepKernel:
    """Two-block symmetric distance kernel with two null defects.

    The base is a valid metric pattern (1/5 within a half, 3/10 across).
    The diagonal override pins self-distance to zero; a second override
    blows the distance from 1/10 to 3/5 up to 1 in one direction only,
    breaking both symmetry and the triangle inequality on a null set.
    """
    return StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=CompactifiedRay(),
        flat_values=[F(1, 5), F(3, 10), F(3, 10), F(1, 5)],
        exceptions=(
            ExceptionPiece((CoordsEqual(1, 2),), F(0)),
            ExceptionPiece((CoordIs(1, F(1, 10)), CoordIs(2, F(3, 5))), F(1)),
        ),
        symmetric_base=True,
    )


def metric_demo(seed: str = "0") -> DemoReport:
    """Repair the almost-metric kernel into an exact finite metric pattern.

    After repair every ordered triple satisfies symmetry and the triangle
    inequality.  Forcing the repaired diagonal to zero afterwards keeps all
    triples valid, so the result extends to a genuine metric.
    """
    kernel = almost_metric_kernel()
    system = metric_system()
    points = (F(1, 10), F(3, 5), F(9, 10))
    config = RepairConfig(epsilon=F(1, 50), seed=seed)
    outcome = repair(kernel, system, points, config)

    space = kernel.space
    eps = config.epsilon
    f_violations = len(
        violations(system, kernel.value_at, space, points, eps)
    )
    if outcome.ok:
        g_violations = len(
            violations(system, outcome.corrected.value_at, space, points, eps)
        )
        zeroed = dict(outcome.corrected.values)
        for z in outcome.corrected.points:
            zeroed[(z, z)] = F(0)
        zero_diag_violations = len(
            violations(
                system,
                lambda t: zeroed[tuple(sorted(t))],
                space,
                points,
                eps,
            )
        )
    else:
        g_violations = None
        zero_diag_violations = None

    summary = {
        "name": "metric_repair",
        "status": outcome.status,
        "f_violations": f_violations,
        "g_violations": g_violations,
        "zero_diagonal_violations": zero_diag_violations,
        "triples_checked": len(points) ** system.variables,
    }
    objects = {"kernel": kernel, "system": system, "points": points}
    return DemoReport("metric_repair", summary, outcome, objects)


_ZERO_ONE = frozenset({F(0), F(1)})
_OPPOSITE = frozenset({(F(0), F(1)), (F(1), F(0))})


def oriented_kernel() -> StepKernel:
    """Edges oriented from the lower half to the upper half, nothing else."""
    return StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1), F(0), F(0)],
    )


def antisymmetry_system(symmetrized: bool) -> ConstraintSystem:
    """Exactly one direction of each distinct pair carries value 1.

    With ``symmetrized`` the system additionally demands equal values in
    both directions, which contradicts the one-direction rule outright.
    """
    atoms = (
        TableAtom(((1, 2), (2, 1)), _OPPOSITE),
        FiniteValuesAtom((1, 2), _ZERO_ONE),
        FiniteValuesAtom((2, 1), _ZERO_ONE),
    )
    if symmetrized:
        atoms = (EqualityAtom((1, 2), (2, 1)),) + atoms
    return ConstraintSystem(arity=2, variables=2, mode="distinct", atoms=atoms)


def diagonal_contrast_kernel() -> StepKernel:
    """Value 1 off the diagonal, 0 on it."""
    return StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(1)] * 4,
        exceptions=(ExceptionPiece((CoordsEqual(1, 2),), F(0)),),
        symmetric_base=True,
    )


def diagonal_contrast_system() -> ConstraintSystem:
    """Off-diagonal and self values must differ by one, over all pairs."""
    return ConstraintSystem(
        arity=2,
        variables=2,
        mode="multiset",
        atoms=symmetry_atoms(2, 2)
        + (
            TableAtom(((1, 2), (1, 1)), _OPPOSITE),
            FiniteValuesAtom((1, 2), _ZERO_ONE),
            FiniteValuesAtom((1, 1), _ZERO_ONE),
        ),
    )


def remark_demo(seed: str = "0", audit_samples: int = 2_000) -> DemoReport:
    """Two honest infeasibilities and the feasible variant between them.

    Symmetrizing an orientation contradicts the one-direction rule, so that
    run stops as infeasible via the satisfiability probe.  The
    diagonal-contrast system audits spotlessly (its defect has measure
    zero) yet no symmetric repair can give a repeated pair two different
    values, and the probe proves that too, through the pattern where both
    variables land on the same point.  Dropping the symmetrization leaves
    plain antisymmetry over distinct pairs, which repairs fine.
    """
    points = (F(1, 5), F(7, 10))

    oriented = oriented_kernel()
    symmetrized = repair(
        oriented, antisymmetry_system(symmetrized=True), points, RepairConfig(seed=seed)
    )
    plain = repair(
        oriented, antisymmetry_system(symmetrized=False), points, RepairConfig(seed=seed)
    )

    contrast_kernel = diagonal_contrast_kernel()
    contrast_system = diagonal_contrast_system()
    contrast = repair(
        contrast_kernel,
        contrast_system,
        points,
        RepairConfig(epsilon=F(1, 10), seed=seed),
    )
    contrast_audit = audit_ae_hypothesis(
        contrast_kernel, contrast_system, samples=audit_samples, seed=seed
    )

    summary = {
        "name": "remark",
        "symmetrized_status": symmetrized.status,
        "symmetrized_proven_infeasible": symmetrized.report["probe"]["proven_infeasible"],
        "antisymmetry_status": plain.status,
        "diagonal_status": contrast.status,
        "diagonal_proven_infeasible": contrast.report["probe"]["proven_infeasible"],
        "diagonal_audit_violations": contrast_audit.violations,
        "diagonal_audit_samples": contrast_audit.samples,
    }
    objects = {
        "symmetrized": symmetrized,
        "antisymmetry": plain,
        "diagonal": contrast,
        "diagonal_audit": contrast_audit,
        "points": points,
    }
    return DemoReport("remark", summary, symmetrized, objects)


def audit_demo(seed: str = "0", audit_samples: int = 10_000) -> DemoReport:
    """Audit three kernels against the triangle-free demand.

    The bipartite kernel's defects are null, so it audits at zero; the
    all-ones kernel violates on every sampled triple; the all-zero kernel
    satisfies the demand outright.
    """
    system = triangle_free_system(mode="multiset")
    bipartite = loopy_bipartite_kernel()
    all_ones = StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(1)] * 4,
        symmetric_base=True,
    )
    all_zero = StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0)] * 4,
        symmetric_base=True,
    )
    results = {
        "bipartite": audit_ae_hypothesis(bipartite, system, audit_samples, seed),
        "all_ones": audit_ae_hypothesis(all_ones, system, audit_samples, seed),
        "all_zero": audit_ae_hypothesis(all_zero, system, audit_samples, seed),
    }
    summary = {"name": "audit"}
    for label, res in results.items():
        summary[label] = {
            "violations": res.violations,
            "samples": res.samples,
            "interval": [res.interval_low, res.interval_high],
        }
    return DemoReport("audit", summary, None, {"system": system, "results": results})


DEMOS = {
    "triangle-removal": triangle_demo,
    "metric-repair": metric_demo,
    "remark": remark_demo,
    "audit": audit_demo,
}

#: Per demo, whether a summary shows the outcome the demo exists to show.
DEMO_EXPECTATIONS = {
    "triangle-removal": lambda s: s["status"] == "ok",
    "metric-repair": lambda s: s["status"] == "ok",
    "remark": lambda s: (
        s["symmetrized_status"] == "infeasible"
        and s["diagonal_status"] == "infeasible"
        and s["antisymmetry_status"] == "ok"
    ),
    "audit": lambda s: True,
}


def run_demo(name: str, seed: str = "0") -> DemoReport:
    if name not in DEMOS:
        raise ContractError(f"unknown demo {name!r}; pick one of {sorted(DEMOS)}")
    return DEMOS[name](seed=seed)
