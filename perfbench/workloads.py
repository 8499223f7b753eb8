"""The three benchmark workloads: input generators, the timed op, and checks.

Each workload turns a seed into a list of problems, runs one problem per op
through the package's public entry points, and checks every result with a
test that does not trust the op's own verdict.  Problem ``i`` is a pure
function of ``(seed, i)``.  The properties that set an op's cost (point
count, kernel family, coloring shape) cycle in a fixed order instead of
being drawn at random, so every seed runs the same mix and only the details
inside each problem change; that keeps medians comparable across seeds.

Workloads call into the package through module attributes at call time
(``self.cli.main``, ``self.corrector.repair``), so the tracer's patches on
those attributes see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import time
from fractions import Fraction

F = Fraction

#: Odd sixteenths never sit on a base-grid cut of resolution 2 or 4, so
#: every point is interior to its base block.
_SIXTEENTHS = tuple(F(j, 16) for j in range(1, 16, 2))


def _modules(*names):
    return [importlib.import_module(f"kernel_repair.{n}") for n in names]


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class MetricCli:
    """``correct --out`` then ``verify`` through ``kernel_repair.cli.main``.

    The problem is an almost-metric kernel on the compactified ray under
    ``metric_system()``: a symmetric base at resolution 2 or 4 whose values
    come from ``{a, 2a}`` (always a metric), plus a zero diagonal and a
    one-directional spike between two of the points, which break symmetry
    and the triangle inequality on null sets.  The repair must succeed.
    """

    name = "metric-cli"
    prefix = 60
    default_problems = 200
    epsilon = "1/50"
    # Half the ops have five points, so the median sits in the middle of
    # that band rather than near the edge of a smaller one.
    points_cycle = (4, 5, 5, 6)
    resolution_cycle = (2, 4)

    def __init__(self):
        (
            self.cli,
            self.fileio,
            self.constraint,
            self.kernel,
            self.values,
        ) = _modules("cli", "fileio", "constraint", "kernel", "values")

    def generate(self, seed: str, count: int, workdir: str) -> list:
        kernel_mod, values = self.kernel, self.values
        space = values.CompactifiedRay()
        constraint_path = os.path.join(workdir, "metric-system.json")
        self.fileio.save_constraint(self.constraint.metric_system(), space, constraint_path)
        problems = []
        for i in range(count):
            rng = random.Random(f"{seed}:{self.name}:{i}")
            n = self.points_cycle[i % len(self.points_cycle)]
            res = self.resolution_cycle[i // len(self.points_cycle) % len(self.resolution_cycle)]
            a = F(rng.randint(1, 9), rng.choice((10, 20, 40)))
            upper = {
                (r, c): rng.choice((a, 2 * a)) for r in range(res) for c in range(r, res)
            }
            flat = [
                upper[tuple(sorted(idx))]
                for idx in itertools.product(range(res), repeat=2)
            ]
            points = sorted(rng.sample(_SIXTEENTHS, n))
            c1, c2 = rng.sample(points, 2)
            exceptions = (
                kernel_mod.ExceptionPiece((kernel_mod.CoordsEqual(1, 2),), F(0)),
                kernel_mod.ExceptionPiece(
                    (kernel_mod.CoordIs(1, c1), kernel_mod.CoordIs(2, c2)), 10 * a
                ),
            )
            kernel = kernel_mod.StepKernel.from_flat(
                2, res, space, flat, exceptions, symmetric_base=True
            )
            kernel_path = os.path.join(workdir, f"kernel-{i}.json")
            self.fileio.save_kernel(kernel, kernel_path)
            problems.append(
                {
                    "kernel": kernel_path,
                    "constraint": constraint_path,
                    "points": ",".join(str(p) for p in points),
                    "seed": f"{seed}:{i}",
                    "report": os.path.join(workdir, "report.json"),
                }
            )
        return problems

    def run(self, p) -> dict:
        files = ["--kernel", p["kernel"], "--constraint", p["constraint"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            correct_rc = self.cli.main(
                ["correct", *files, "--points", p["points"], "--epsilon", self.epsilon,
                 "--seed", p["seed"], "--out", p["report"]]
            )
            verify_start = time.perf_counter()
            verify_rc = self.cli.main(["verify", *files, "--report", p["report"]])
            verify_s = time.perf_counter() - verify_start
        return {"correct_rc": correct_rc, "verify_rc": verify_rc,
                "verify_s": verify_s, "verify_out": out.getvalue()}

    def finish(self, p, raw) -> dict:
        with open(p["report"], encoding="utf-8") as fh:
            report = self.fileio.strip_timing(json.load(fh))
        return {
            "correct_rc": raw["correct_rc"],
            "verify_rc": raw["verify_rc"],
            "verify_out": raw["verify_out"],
            "report": report,
        }

    def check(self, p, res) -> bool:
        return (
            res["correct_rc"] == 0
            and res["report"]["result"]["status"] == "ok"
            and res["verify_rc"] == 0
            and "all atoms hold" in res["verify_out"]
        )


class RamseyCores:
    """One ``extract_core`` call on a seeded random coloring.

    Shapes are (parts, part size, subset sizes, colors, target).  The first
    six mostly have no core (about 38% of all colorings), so their greedy
    search runs all its restarts to completion and sets the tail; the rest
    almost always have one.  The median op takes about 2 ms, the slowest
    shapes a few tens; larger two-part shapes were left out because one
    coloring without a core there costs seconds.
    """

    name = "ramsey-cores"
    prefix = 1200
    default_problems = 1200
    shapes = (
        (1, 5, (1,), 2, 4),
        (1, 6, (2,), 2, 4),
        (1, 7, (2,), 2, 4),
        (1, 8, (2,), 3, 4),
        (2, 5, (1, 1), 2, 4),
        (2, 5, (1, 2), 2, 4),
        (2, 8, (2, 2), 2, 3),
        (2, 9, (1, 2), 2, 3),
        (2, 9, (2, 2), 2, 3),
        (2, 10, (1, 1), 2, 3),
        (2, 10, (1, 2), 2, 3),
        (2, 10, (2, 2), 2, 3),
    )

    def __init__(self):
        self.ramsey, self.errors = _modules("ramsey", "errors")

    def generate(self, seed: str, count: int, workdir: str) -> list:
        # colorings of one shape share their selection tuples, which keeps
        # the inputs small in memory
        selections = {}
        problems = []
        for i in range(count):
            rng = random.Random(f"{seed}:{self.name}:{i}")
            shape = self.shapes[i % len(self.shapes)]
            parts_n, size, profile, colors, target = shape
            parts = [[f"{a}.{b}" for b in range(size)] for a in range(parts_n)]
            if shape not in selections:
                selections[shape] = list(self.ramsey.all_selections(parts, profile))
            keys = selections[shape]
            table = dict(zip(keys, rng.choices(range(colors), k=len(keys))))
            problems.append(
                {"parts": parts, "profile": profile, "table": table,
                 "target": target, "seed": f"{seed}:{i}"}
            )
        return problems

    def run(self, p):
        try:
            cores = self.ramsey.extract_core(
                p["parts"], p["profile"], p["table"].__getitem__, p["target"], seed=p["seed"]
            )
        except self.errors.ExtractionFailed as exc:
            return {"core": None, "proven_absent": exc.proven_absent}
        return {"core": [list(c) for c in cores]}

    def finish(self, p, raw):
        return raw

    def check(self, p, res) -> bool:
        cores = res["core"]
        if cores is None:
            return True
        return (
            len(cores) == len(p["parts"])
            and all(
                len(c) == p["target"] and set(c) <= set(part)
                for c, part in zip(cores, p["parts"])
            )
            and self.ramsey.is_monochromatic(cores, p["profile"], p["table"].__getitem__)
        )


class SmallBatch:
    """``audit_ae_hypothesis`` then ``repair`` on one small problem.

    Twelve families cycle: four kernel kinds (triangle-free, metric,
    arity-3 finite values, arity-1 equality) in distinct and multiset mode,
    then four negative families: an all-ones kernel under the triangle-free
    system in both modes (fails after the escalations) and the
    symmetrized-antisymmetry and diagonal-contrast systems (proven
    infeasible by the probe).  Point counts cycle through 2..6 once per
    family cycle.  A distinct-mode system over fewer points than variables
    holds vacuously, so the all-ones kernel repairs there; about 32% of the
    ops end as honest negatives.  About 40% of the ops are cheap (under
    40 ms); the triangle-free and all-ones families form the dense band the
    median falls in, which keeps ``op_p50_s`` from jumping between clusters.
    """

    name = "small-batch"
    prefix = 120
    default_problems = 600
    audit_samples = 300
    families = (
        ("triangle", "distinct"),
        ("triangle", "multiset"),
        ("metric", "distinct"),
        ("metric", "multiset"),
        ("finite3", "distinct"),
        ("finite3", "multiset"),
        ("equality1", "distinct"),
        ("equality1", "multiset"),
        ("all-ones", "distinct"),
        ("all-ones", "multiset"),
        ("antisymmetry", "distinct"),
        ("diagonal", "multiset"),
    )
    expected = {"all-ones": "failed", "antisymmetry": "infeasible", "diagonal": "infeasible"}

    def __init__(self):
        (
            self.corrector,
            self.constraint,
            self.kernel,
            self.values,
            self.fileio,
        ) = _modules("corrector", "constraint", "kernel", "values", "fileio")

    def generate(self, seed: str, count: int, workdir: str) -> list:
        problems = []
        for i in range(count):
            rng = random.Random(f"{seed}:{self.name}:{i}")
            family, mode = self.families[i % len(self.families)]
            n = 2 + (i // len(self.families)) % 5
            points = tuple(sorted(rng.sample(_SIXTEENTHS, n)))
            kernel, system, eps = getattr(self, "_" + family.replace("-", "_"))(
                rng, mode, points
            )
            expected = self.expected.get(family, "ok")
            if mode == "distinct" and n < system.variables:
                expected = "ok"  # no distinct assignments: the system holds vacuously
            problems.append(
                {
                    "family": family,
                    "kernel": kernel,
                    "system": system,
                    "points": points,
                    "config": self.corrector.RepairConfig(epsilon=eps, seed=f"{seed}:{i}"),
                    "expected": expected,
                }
            )
        return problems

    def _step(self, arity, res, space, flat, exceptions=(), symmetric=False):
        return self.kernel.StepKernel.from_flat(
            arity, res, space, flat, exceptions, symmetric_base=symmetric
        )

    def _triangle(self, rng, mode, points):
        k = self.kernel
        res = rng.choice((2, 4))
        side = [b < res // 2 for b in range(res)]
        flat = [F(int(side[r] != side[c])) for r in range(res) for c in range(res)]
        exceptions = (
            k.ExceptionPiece((k.CoordsEqual(1, 2),), F(1)),
            k.ExceptionPiece((k.CoordIs(1, rng.choice(points)),), F(1)),
        )
        kernel = self._step(2, res, self.values.BoundedInterval(F(1)), flat, exceptions, True)
        return kernel, self.constraint.triangle_free_system(mode=mode), F(1, 10)

    def _metric(self, rng, mode, points):
        k, c = self.kernel, self.constraint
        a = F(rng.randint(1, 9), 20)
        upper = {(0, 0): rng.choice((a, 2 * a)), (0, 1): rng.choice((a, 2 * a)),
                 (1, 1): rng.choice((a, 2 * a))}
        flat = [upper[tuple(sorted(idx))] for idx in itertools.product(range(2), repeat=2)]
        spike = rng.sample(points, 2)
        exceptions = (
            k.ExceptionPiece((k.CoordsEqual(1, 2),), F(0)),
            k.ExceptionPiece((k.CoordIs(1, spike[0]), k.CoordIs(2, spike[1])), 10 * a),
        )
        kernel = self._step(2, 2, self.values.CompactifiedRay(), flat, exceptions, True)
        system = c.metric_system()
        if mode == "distinct":
            system = c.ConstraintSystem(arity=2, variables=3, mode="distinct", atoms=system.atoms)
        return kernel, system, F(1, 50)

    def _finite3(self, rng, mode, points):
        k, c = self.kernel, self.constraint
        menu = (F(0), F(1, 2), F(1))
        if mode == "multiset":
            # a symmetric base depends only on how many coordinates sit in block 1
            by_count = {ones: rng.choice(menu) for ones in range(4)}
            flat = [by_count[sum(idx)] for idx in itertools.product(range(2), repeat=3)]
        else:
            flat = [rng.choice(menu) for _ in range(8)]
        exceptions = (
            k.ExceptionPiece((k.CoordsEqual(1, 2),), F(1, 4)),
            k.ExceptionPiece((k.CoordIs(1, rng.choice(points)),), F(1, 4)),
        )
        kernel = self._step(
            3, 2, self.values.BoundedInterval(F(1)), flat, exceptions, mode == "multiset"
        )
        atoms = (c.FiniteValuesAtom((1, 2, 3), frozenset(menu)),)
        if mode == "multiset":
            atoms = c.symmetry_atoms(3, 3) + atoms
        system = c.ConstraintSystem(arity=3, variables=3, mode=mode, atoms=atoms)
        return kernel, system, F(1, 10)

    def _equality1(self, rng, mode, points):
        k, c = self.kernel, self.constraint
        b = F(rng.randint(1, 9), 10)
        exceptions = (k.ExceptionPiece((k.CoordIs(1, rng.choice(points)),), F(0)),)
        kernel = self._step(
            1, 2, self.values.BoundedInterval(F(1)), [b, b], exceptions, mode == "multiset"
        )
        system = c.ConstraintSystem(
            arity=1, variables=2, mode=mode,
            atoms=(c.EqualityAtom((1,), (2,)), c.FiniteValuesAtom((1,), frozenset({b}))),
        )
        return kernel, system, F(1, 10)

    def _all_ones(self, rng, mode, points):
        res = rng.choice((2, 4))
        value = rng.choice((F(1, 2), F(3, 4), F(1)))
        kernel = self._step(
            2, res, self.values.BoundedInterval(F(1)), [value] * (res * res), (), True
        )
        return kernel, self.constraint.triangle_free_system(mode=mode), F(1, 10)

    def _antisymmetry(self, rng, mode, points):
        c = self.constraint
        res = rng.choice((2, 4))
        cut = rng.randrange(1, res)
        flat = [F(int(r < cut <= col)) for r in range(res) for col in range(res)]
        kernel = self._step(2, res, self.values.BoundedInterval(F(1)), flat)
        zero_one = frozenset({F(0), F(1)})
        system = c.ConstraintSystem(
            arity=2, variables=2, mode="distinct",
            atoms=(
                c.EqualityAtom((1, 2), (2, 1)),
                c.TableAtom(((1, 2), (2, 1)), frozenset({(F(0), F(1)), (F(1), F(0))})),
                c.FiniteValuesAtom((1, 2), zero_one),
                c.FiniteValuesAtom((2, 1), zero_one),
            ),
        )
        return kernel, system, F(0)

    def _diagonal(self, rng, mode, points):
        k, c = self.kernel, self.constraint
        res = rng.choice((2, 4))
        kernel = self._step(
            2, res, self.values.BoundedInterval(F(1)), [F(1)] * (res * res),
            (k.ExceptionPiece((k.CoordsEqual(1, 2),), F(0)),), True,
        )
        zero_one = frozenset({F(0), F(1)})
        system = c.ConstraintSystem(
            arity=2, variables=2, mode="multiset",
            atoms=c.symmetry_atoms(2, 2) + (
                c.TableAtom(((1, 2), (1, 1)), frozenset({(F(0), F(1)), (F(1), F(0))})),
                c.FiniteValuesAtom((1, 2), zero_one),
                c.FiniteValuesAtom((1, 1), zero_one),
            ),
        )
        return kernel, system, F(1, 10)

    def run(self, p):
        audit = self.corrector.audit_ae_hypothesis(
            p["kernel"], p["system"], samples=self.audit_samples, seed=p["config"].seed
        )
        outcome = self.corrector.repair(p["kernel"], p["system"], p["points"], p["config"])
        return {"audit": audit, "outcome": outcome}

    def finish(self, p, raw):
        audit, outcome = raw["audit"], raw["outcome"]
        return {
            "audit": [audit.violations, audit.samples],
            "report": self.fileio.strip_timing(outcome.report),
            "corrected": outcome.corrected,
        }

    def check(self, p, res) -> bool:
        status = res["report"]["status"]
        if status != p["expected"]:
            return False
        violations, samples = res["audit"]
        family = p["family"]
        if family == "all-ones" and violations != samples:
            return False
        if family == "antisymmetry" and violations == 0:
            return False
        if family not in ("all-ones", "antisymmetry") and violations != 0:
            return False
        if status != "ok":
            return True
        kernel = p["kernel"]
        return not self.constraint.violations(
            p["system"], res["corrected"].value_at, kernel.space, p["points"],
            p["config"].epsilon,
        )

    @staticmethod
    def digest_view(res):
        return {"audit": res["audit"], "report": res["report"]}


WORKLOADS = {w.name: w for w in (MetricCli, RamseyCores, SmallBatch)}


def digest_view(workload, res):
    """The part of a finished result that enters ``outputs_sha256``."""
    view = getattr(workload, "digest_view", None)
    return _canonical(view(res) if view else res)
