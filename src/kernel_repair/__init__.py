"""Constraint repair for step kernels with null-set defects.

Given a kernel that satisfies a closed cylindrical constraint system at
almost every tuple, this package produces corrected values on a finite
point set so the constraints hold at every tuple, exactly or within an
explicit tolerance, while agreeing with the kernel at density points.
Everything runs on exact rational arithmetic and is deterministic given a
seed.
"""

from .constraint import (
    AffineAtom,
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    TableAtom,
    Violation,
    ZeroProductAtom,
    instantiate_over,
    metric_system,
    proven_infeasible,
    symmetry_atoms,
    triangle_free_system,
    violations,
)
from .corrector import (
    AuditResult,
    CorrectedKernel,
    RepairConfig,
    RepairOutcome,
    audit_ae_hypothesis,
    repair,
    wilson_interval,
)
from .demos import DEMOS, DemoReport, run_demo
from .density import (
    axis_segments,
    density_mass,
    is_density_tuple,
)
from .errors import ContractError, DomainError, ExtractionFailed, FormatError
from .kernel import (
    CoordIs,
    CoordsEqual,
    ExceptionPiece,
    StepKernel,
    block_of,
    repeat_pattern,
    sample_in_cell,
)
from .ramsey import (
    all_selections,
    extract_core,
    is_monochromatic,
    multi_type_extract,
)
from .rational import as_fraction, frac_str
from .values import (
    INFINITY,
    BoundedInterval,
    CellPartition,
    CompactifiedRay,
    FiniteMetric,
    epsilon_partition,
    value_from_text,
    value_to_text,
)

__all__ = [
    "AffineAtom",
    "AuditResult",
    "BoundedInterval",
    "CellPartition",
    "CompactifiedRay",
    "ConstraintSystem",
    "ContractError",
    "CoordIs",
    "CoordsEqual",
    "CorrectedKernel",
    "DEMOS",
    "DemoReport",
    "DomainError",
    "EqualityAtom",
    "ExceptionPiece",
    "ExtractionFailed",
    "FiniteMetric",
    "FiniteValuesAtom",
    "FormatError",
    "INFINITY",
    "RepairConfig",
    "RepairOutcome",
    "StepKernel",
    "TableAtom",
    "Violation",
    "ZeroProductAtom",
    "all_selections",
    "as_fraction",
    "audit_ae_hypothesis",
    "axis_segments",
    "block_of",
    "density_mass",
    "epsilon_partition",
    "extract_core",
    "frac_str",
    "instantiate_over",
    "is_density_tuple",
    "is_monochromatic",
    "metric_system",
    "multi_type_extract",
    "proven_infeasible",
    "repair",
    "repeat_pattern",
    "run_demo",
    "sample_in_cell",
    "symmetry_atoms",
    "triangle_free_system",
    "value_from_text",
    "value_to_text",
    "violations",
    "wilson_interval",
]
