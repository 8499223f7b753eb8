"""Shared builders and independent oracles for the test suite.

The suite_problem generator is the common source of repair problems for
the distinct-mode and multiset-mode acceptance runs; midpoint_mass is a
brute-force density oracle that shares no code with the implementation
beyond kernel lookup.  reference_violations and reference_audit are the
plain sweeps the memoised ones replaced: every assignment evaluated anew,
every atom checked at every assignment, affine atoms by
reference_affine_satisfied, the ``Fraction`` arithmetic that the integer
sums of ``AffineAtom.satisfied`` replaced.  reference_failing_keys is the
plain decision behind all of them, reference_failing_blocks the audit's
block vectors decided one clear trial each, and reference_proven_infeasible the
probe that checked every atom afresh on every combination of values.  reference_core is the candidate
scan that core extraction's pruned search replaced.  reference_repair is the
paper's sampled construction in the attempt loop that the one-pass,
closed-form repair replaced: every attempt draws guarded ``Fraction``
samples at a level that separates the points (draw_pools), reads the kernel
with ``value_at`` at them, sweeps and compares its table anew, and reports
the samples, pools and cores it drew; reference_closeness is its density
row and agreement check, tuple by tuple.  reference_verify is the
``verify`` sweep over the report's table keyed by tuples of ``Fraction``
points.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from kernel_repair.cli import _refuse_large_system_sweep
from kernel_repair.constraint import (
    AffineAtom,
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    Violation,
    metric_system,
    proven_infeasible,
    symmetry_atoms,
    triangle_free_system,
    _PROBE_BUDGET,
    _set_partitions,
    _shift_toward,
)
from kernel_repair.corrector import (
    AuditResult,
    CorrectedKernel,
    RepairOutcome,
    wilson_interval,
)
from kernel_repair.density import is_density_tuple
from kernel_repair.errors import ContractError, DomainError, FormatError
from kernel_repair.fileio import (
    constraint_to_doc,
    kernel_to_doc,
    load_constraint,
    load_json,
    load_kernel,
)
from kernel_repair.kernel import (
    CoordIs,
    CoordsEqual,
    ExceptionPiece,
    StepKernel,
    block_of,
    sample_in_cell,
)
from kernel_repair.ramsey import is_monochromatic
from kernel_repair.rational import as_fraction, frac_str
from kernel_repair.values import (
    INFINITY,
    BoundedInterval,
    FiniteMetric,
    epsilon_partition,
    value_from_text,
    value_to_text,
)

F = Fraction

ZERO_ONE = frozenset({F(0), F(1)})


def random_kernel(rng, arity, resolution, menu, space=None, symmetric=False):
    """Step kernel with base values drawn from the menu, optionally symmetric."""
    space = space or BoundedInterval(F(1))
    values = {}
    for idx in itertools.product(range(resolution), repeat=arity):
        key = tuple(sorted(idx)) if symmetric else idx
        if key not in values:
            values[key] = rng.choice(menu)
    base = {
        idx: values[tuple(sorted(idx)) if symmetric else idx]
        for idx in itertools.product(range(resolution), repeat=arity)
    }
    flat = [base[idx] for idx in itertools.product(range(resolution), repeat=arity)]
    return StepKernel.from_flat(
        arity=arity,
        resolution=resolution,
        space=space,
        flat_values=flat,
        symmetric_base=symmetric,
    )


def random_exceptions(rng, arity, menu, count):
    """Up to count override pieces with seventh-valued constants.

    Sevenths never coincide with dyadic cell cuts, sixteenth-grid points,
    or float-backed samples, so the pieces stay null for every query the
    tests make.
    """
    pieces = []
    for _ in range(count):
        value = rng.choice(menu)
        if arity >= 2 and rng.random() < 0.5:
            first = rng.randrange(1, arity)
            pieces.append(ExceptionPiece((CoordsEqual(first, first + 1),), value))
        else:
            coord = rng.randrange(1, arity + 1)
            const = F(rng.randrange(1, 7), 7)
            pieces.append(ExceptionPiece((CoordIs(coord, const),), value))
    return tuple(pieces)


def sixteenth_points(rng, n):
    """n distinct points on the odd-sixteenths grid, clear of dyadic cuts."""
    return tuple(sorted(F(j, 16) for j in rng.sample(range(1, 16, 2), n)))


def suite_problem(index, mode):
    """Deterministic repair problem #index for the acceptance suites.

    Four kinds cycle: a triangle-free bipartite graphon, a two-block
    distance pattern under the triangle inequality, an arity-3 kernel under
    finite-value demands, and an arity-1 constant kernel under equality.
    All bases satisfy their system off the override pieces, so a repair
    should land on the first attempt.  Multiset mode reuses the same
    kernels with symmetric bases and the matching multiset systems.
    """
    rng = random.Random(f"suite:{mode}:{index}")
    kind = index % 4
    multiset = mode == "multiset"
    if kind == 0:
        m0 = rng.choice((2, 4))
        half = m0 // 2
        flat = [
            F(1) if (i < half) != (j < half) else F(0)
            for i in range(m0)
            for j in range(m0)
        ]
        kernel = StepKernel.from_flat(
            arity=2,
            resolution=m0,
            space=BoundedInterval(F(1)),
            flat_values=flat,
            exceptions=random_exceptions(rng, 2, [F(0), F(1)], rng.randrange(4)),
            symmetric_base=True,
        )
        return kernel, triangle_free_system(mode=mode), sixteenth_points(rng, 3), F(1, 10)
    if kind == 1:
        kernel = random_kernel(rng, 2, 2, [F(1, 5), F(3, 10)], symmetric=True)
        kernel = kernel.with_exceptions(
            random_exceptions(rng, 2, [F(1), F(1, 2)], rng.randrange(4))
        )
        base = metric_system()
        system = base if multiset else ConstraintSystem(
            arity=2, variables=3, mode="distinct", atoms=base.atoms
        )
        return kernel, system, sixteenth_points(rng, 3), F(1, 20)
    if kind == 2:
        kernel = random_kernel(rng, 3, 2, [F(0), F(1)], symmetric=multiset)
        kernel = kernel.with_exceptions(
            random_exceptions(rng, 3, [F(0), F(1)], rng.randrange(4))
        )
        atoms = (
            FiniteValuesAtom((1, 2, 3), ZERO_ONE),
            FiniteValuesAtom((2, 3, 4), ZERO_ONE),
        )
        if multiset:
            atoms = symmetry_atoms(3, 4) + atoms
        system = ConstraintSystem(arity=3, variables=4, mode=mode, atoms=atoms)
        return kernel, system, sixteenth_points(rng, 4), F(1, 10)
    b = F(3, 10)
    kernel = StepKernel.from_flat(
        arity=1,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[b, b],
        exceptions=random_exceptions(rng, 1, [F(0)], rng.randrange(4)),
        symmetric_base=multiset,
    )
    system = ConstraintSystem(
        arity=1,
        variables=2,
        mode=mode,
        atoms=(EqualityAtom((1,), (2,)), FiniteValuesAtom((1,), frozenset({b}))),
    )
    return kernel, system, sixteenth_points(rng, 2), F(1, 10)


def midpoint_mass(kernel, partition, point, m, cell_index=None):
    """Brute-force density oracle: midpoint summation on the common grid.

    Splits the level-m box around the point into the grid of resolution
    lcm(m, m0), reads the base value at each micro-cell midpoint, and adds
    up the volumes landing in the target cell.  Base values are constant on
    micro-cells, so this is exact.
    """
    pt = tuple(as_fraction(x) for x in point)
    if cell_index is None:
        cell_index = partition.cell_of(kernel.value_at(pt))
    level = math.lcm(m, kernel.resolution)
    per_axis = []
    for x in pt:
        lo = F(block_of(x, m), m)
        per_axis.append(
            [lo + F(2 * i + 1, 2 * level) for i in range(level // m)]
        )
    total = F(0)
    for mids in itertools.product(*per_axis):
        blocks = tuple(block_of(x, kernel.resolution) for x in mids)
        if partition.cell_of(kernel.base[blocks]) == cell_index:
            total += F(1, level) ** len(pt)
    return total * F(m) ** len(pt)


def reference_affine_satisfied(atom, val, space, eps):
    """``AffineAtom.satisfied`` in ``Fraction`` arithmetic, with extended
    arithmetic for ``INFINITY``."""
    if isinstance(space, FiniteMetric):
        raise ContractError("affine atoms need a numeric value space")
    shifted = []
    for c, s in atom.terms:
        v = val(s)
        if eps:
            v = _shift_toward(space, v, eps, c > 0)
        shifted.append((c, v))
    lhs = F(0)
    rhs = atom.bound
    for c, v in shifted:
        if c > 0:
            if v is INFINITY:
                lhs = INFINITY
            else:
                lhs = lhs if lhs is INFINITY else lhs + c * v
        else:
            if v is INFINITY:
                rhs = INFINITY
            else:
                rhs = rhs if rhs is INFINITY else rhs - c * v
    if lhs is INFINITY:
        return rhs is INFINITY
    return rhs is INFINITY or lhs <= rhs


def reference_satisfied(atom, val, space, eps):
    """An atom's verdict, by the reference arithmetic for affine atoms."""
    if isinstance(atom, AffineAtom):
        return reference_affine_satisfied(atom, val, space, eps)
    return atom.satisfied(val, space, eps)


def reference_violations(system, evaluate, space, points, eps=F(0)):
    """Oracle sweep: every assignment, every atom, values cached per assignment."""
    eps = as_fraction(eps)
    found = []
    for assignment in system.assignments(points):
        cache = {}

        def val(slot):
            if slot not in cache:
                cache[slot] = evaluate(tuple(assignment[v - 1] for v in slot))
            return cache[slot]

        for atom in system.atoms:
            if not reference_satisfied(atom, val, space, eps):
                found.append(Violation(assignment, atom, atom.describe()))
    return found


def reference_failing_keys(system, space, eps, picks, value, keys):
    """Oracle decision per key: every atom at every key, no memo.

    ``picks[k](key)`` names the value at ``system.all_slots()[k]`` and
    ``value(name)`` is the value a name denotes.  Returns ``(key, failing
    atom indices)`` for each key where some atom fails, in key order.
    """
    slots = system.all_slots()
    found = []
    for key in keys:
        at = {s: value(pick(key)) for s, pick in zip(slots, picks)}
        failed = tuple(
            n
            for n, atom in enumerate(system.atoms)
            if not reference_satisfied(atom, at.__getitem__, space, eps)
        )
        if failed:
            found.append((key, failed))
    return found


def reference_failing_blocks(kernel, system, vectors):
    """Oracle block vectors where some atom fails, as a set.

    Each vector is judged at one clear trial read through ``value_at``:
    variable j (from 1) at ``(b + j/11) / r`` in its block b.  The points
    are pairwise distinct for up to ten variables, and none equals a
    constant whose reduced denominator 11 does not divide.
    """
    r = kernel.resolution

    def point(b, j):
        return (b + F(j, 11)) / r

    picks = [
        lambda key, slot=slot: tuple(point(key[j - 1], j) for j in slot)
        for slot in system.all_slots()
    ]
    found = reference_failing_keys(system, kernel.space, F(0), picks, kernel.value_at, vectors)
    return {key for key, _ in found}


def reference_proven_infeasible(system, space, num_points, symmetrize=False):
    """Oracle probe: ``proven_infeasible`` with every atom checked afresh on
    every combination of menu values, through a dict keyed by collapsed slot."""
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
    for pattern in patterns:
        rep = {v: min(group) for group in pattern for v in group}

        def key_of(slot):
            mapped = tuple(rep[v] for v in slot)
            return tuple(sorted(mapped)) if symmetrize else mapped

        menus = {}
        for atom in system.atoms:
            if isinstance(atom, FiniteValuesAtom):
                k = key_of(atom.slot)
                allowed = sorted(atom.allowed, key=repr)
                menus[k] = [v for v in menus[k] if v in allowed] if k in menus else allowed
        keys = sorted({key_of(s) for s in system.all_slots()})
        if isinstance(space, FiniteMetric):
            for k in keys:
                menus.setdefault(k, list(space.labels))
        if any(k not in menus for k in keys):
            continue
        if math.prod(len(menus[k]) for k in keys) > _PROBE_BUDGET:
            continue
        satisfiable = False
        for combo in itertools.product(*(menus[k] for k in keys)):
            table = dict(zip(keys, combo))
            if all(
                atom.satisfied(lambda s: table[key_of(s)], space, F(0))
                for atom in system.atoms
            ):
                satisfiable = True
                break
        if not satisfiable:
            return True
    return False


def reference_audit(kernel, system, samples=1000, seed="0", on_trial=None):
    """Oracle audit: the same draws, every atom checked until the first failure.

    ``on_trial``, when given, is called with each trial's points before the
    trial reads the kernel.
    """
    rng = random.Random(f"{seed}:audit")
    bad = 0
    zero = F(0)
    for _ in range(samples):
        while True:
            tup = tuple(F(rng.random()) for _ in range(system.variables))
            if len(set(tup)) == system.variables:
                break
        if on_trial is not None:
            on_trial(tup)
        cache = {}

        def val(slot):
            if slot not in cache:
                cache[slot] = kernel.value_at(tuple(tup[v - 1] for v in slot))
            return cache[slot]

        if not all(reference_satisfied(a, val, kernel.space, zero) for a in system.atoms):
            bad += 1
    low, high = wilson_interval(bad, samples)
    return AuditResult(samples=samples, violations=bad, interval_low=low, interval_high=high)


class CountingRandom:
    """Stands in for ``random.Random``: draws the real stream of its seed;
    ``drawn`` counts the draws of every instance."""

    real = random.Random
    drawn = 0

    def __init__(self, seed):
        self._random = self.real(seed).random

    def random(self):
        CountingRandom.drawn += 1
        return self._random()


def counted_draws(run):
    """``run()``'s result and how many floats it drew, with ``random.Random``
    patched to ``CountingRandom``."""
    before = CountingRandom.drawn
    return run(), CountingRandom.drawn - before


def reference_core(parts, sizes, coloring, goal):
    """First monochromatic core of size goal by scanning every candidate, or None.

    Candidates come in lexicographic order of element positions and each is
    checked in full, so None means that no core of this size exists.
    """
    for combo in itertools.product(*(itertools.combinations(tuple(p), goal) for p in parts)):
        if is_monochromatic(combo, sizes, coloring):
            return tuple(list(c) for c in combo)
    return None


def separating_refinement(points, resolution: int) -> int:
    """Smallest level resolution * 2^j putting the points in distinct cells."""
    m = resolution
    while len({block_of(x, m) for x in points}) < len(points):
        m *= 2
    return m


def samples_per_point(system: ConstraintSystem) -> int:
    """How many guarded samples the paper's construction draws per point.

    Distinct mode draws one; multiset mode draws a pool of twice the core
    size ``max(variables, arity)``.
    """
    if system.mode != "multiset":
        return 1
    return 2 * max(system.variables, system.arity)


def draw_guarded(rng, point, m, forbidden):
    """Sample the point's level-m cell, redrawing exact hits on forbidden values."""
    for _ in range(64):
        y = sample_in_cell(point, m, rng)
        if y not in forbidden:
            return y
    raise ContractError("could not draw a sample clear of the guarded values")


def draw_pools(rng, kernel, pts, pool, m):
    """Pool guarded ``Fraction`` samples per point, pairwise distinct and
    clear of the points and the override constants."""
    forbidden = set(kernel.exception_constants()) | set(pts)
    pools = []
    for z in pts:
        drawn = []
        for _ in range(pool):
            y = draw_guarded(rng, z, m, forbidden)
            forbidden.add(y)
            drawn.append(y)
        pools.append(drawn)
    return pools


def separated_pools(rng, kernel, system, pts):
    """``draw_pools`` for the sorted points ``pts`` at the level that
    separates them, ``samples_per_point`` samples per point."""
    m = separating_refinement(pts, kernel.resolution)
    return draw_pools(rng, kernel, pts, samples_per_point(system), m)


def sampled_table(kernel, mode, pools, core_size):
    """``value_at`` at the sample tuples (distinct mode) or at the sorted
    representatives of the cores (multiset mode), keyed by index tuples."""
    n = len(pools)
    if mode == "multiset":
        cores = [sorted(p[:core_size]) for p in pools]
        return {
            t: kernel.value_at(
                tuple(sorted(y for i in sorted(set(t)) for y in cores[i][: t.count(i)]))
            )
            for t in itertools.combinations_with_replacement(range(n), kernel.arity)
        }
    return {
        t: kernel.value_at(tuple(pools[i][0] for i in t))
        for t in itertools.product(range(n), repeat=kernel.arity)
    }


def reference_closeness(kernel, pts, eps, values):
    """``density_closeness`` and ``agreement_failures`` of a table keyed by
    tuples of indices into ``pts``, computed tuple by tuple.

    A tuple's density flag is ``is_density_tuple`` at its points (unknown
    without a positive eps), its distance ``space.dist`` from the kernel's
    ``value_at`` there; a tuple at a density point further than eps from
    the kernel fails agreement.  Rows and failures come in sorted order.
    """
    space = kernel.space
    partition = epsilon_partition(space, eps) if eps > 0 else None
    names = [frac_str(x) for x in pts]
    closeness, agree = {}, []
    for t, v in sorted(values.items()):
        key = ",".join(names[i] for i in t)
        pt = tuple(pts[i] for i in t)
        d = space.dist(v, kernel.value_at(pt))
        dense = None if partition is None else is_density_tuple(kernel, partition, pt)
        closeness[key] = {"density": dense, "dist": frac_str(d)}
        if dense and d > eps:
            agree.append(key)
    return closeness, agree


def reference_repair(
    kernel, system, points, config, *, max_escalations=3, max_refinement=None, pool_size=None
):
    """Oracle repair: the attempt loop, each attempt drawn, read and checked anew.

    A failed attempt doubles the refinement, at most ``max_escalations``
    times and never past ``max_refinement`` (raised to the kernel
    resolution); the points must separate below that cap.  Multiset mode
    draws ``pool_size`` samples per point, by default ``samples_per_point``.
    Each attempt draws from a generator seeded ``{seed}:p{part}:{attempt}``.
    Returns a ``RepairOutcome`` whose report has no timing entry, keeps the
    attempt loop's ``initial_m``, ``final_m`` and ``escalations``, and holds
    the last attempt's witness: ``samples`` in distinct mode, ``pools``,
    ``cores``, ``pool_size`` and ``core_size`` in multiset mode.  Inputs are
    assumed valid.
    """
    pts = tuple(sorted(as_fraction(x) for x in points))
    cap = max_refinement
    if cap is not None and cap < kernel.resolution:
        cap = kernel.resolution
    space, eps = kernel.space, config.epsilon
    symmetric = system.mode == "multiset"
    pool = samples_per_point(system)
    if symmetric and pool_size is not None:
        pool = pool_size
    core_size = max(system.variables, kernel.arity)
    m = separating_refinement(pts, kernel.resolution)
    if cap is not None and m > cap:
        raise ContractError(f"refinement cap {cap} cannot separate the given points")
    part = 2 if symmetric else 1
    names = [frac_str(x) for x in pts]

    def key(t):
        return ",".join(names[i] for i in t)

    report = {
        "part": part,
        "mode": system.mode,
        "status": None,
        "epsilon": frac_str(eps),
        "seed": str(config.seed),
        "points": names,
        "initial_m": m,
        "final_m": m,
        "escalations": [],
        "probe": {"ran": False, "proven_infeasible": False},
    }
    if symmetric:
        report["core_size"] = core_size
    status, corrected = "failed", None
    for attempt in range(max_escalations + 1):
        report["final_m"] = m
        rng = random.Random(f"{config.seed}:p{part}:{attempt}")
        pools = draw_pools(rng, kernel, pts, pool, m)
        if symmetric:
            report["pool_size"] = pool
            report["pools"] = {z: [frac_str(y) for y in p] for z, p in zip(names, pools)}
            report["cores"] = {
                z: [frac_str(y) for y in sorted(p[:core_size])] for z, p in zip(names, pools)
            }
        else:
            report["samples"] = {z: frac_str(p[0]) for z, p in zip(names, pools)}
        values = sampled_table(kernel, system.mode, pools, core_size)
        viols = reference_violations(
            system,
            lambda t: values[tuple(sorted(t)) if symmetric else t],
            space,
            range(len(pts)),
            eps,
        )
        report["values"] = {key(t): value_to_text(space, v) for t, v in sorted(values.items())}
        report["violations"] = [
            {"tuple": key(v.assignment), "atom": v.detail} for v in viols[:10]
        ]
        report["verdicts"] = [
            {"atom": atom.describe(), "holds": all(v.atom is not atom for v in viols)}
            for atom in system.atoms
        ]
        closeness, agree = reference_closeness(kernel, pts, eps, values)
        report["density_closeness"] = closeness
        report["agreement_failures"] = agree
        if not viols and not agree:
            status = "ok"
            corrected = CorrectedKernel(
                points=pts,
                arity=kernel.arity,
                symmetric=symmetric,
                values=values,
            )
            break
        if viols and not report["probe"]["ran"]:
            report["probe"]["ran"] = True
            if proven_infeasible(system, space, len(pts)):
                report["probe"]["proven_infeasible"] = True
                status = "infeasible"
                break
        if attempt == max_escalations or (cap is not None and m * 2 > cap):
            break
        m *= 2
        report["escalations"].append({"reason": "constraints" if viols else "agreement", "m": m})
    report["status"] = status
    return RepairOutcome(status=status, corrected=corrected, report=report)


def reference_verify(args) -> int:
    """``cli.cmd_verify``'s sweep over a table keyed by tuples of ``Fraction`` points.

    It reads what ``correct`` writes: every value is parsed, the points
    must be nonempty, sorted, distinct and in [0, 1), and the table's value
    at a tuple is the one at its ``frac_str`` key, every tuple of the table
    (sorted ones in multiset mode) in ``itertools`` order.  A table with more
    keys than tuples is refused at its first key at no tuple.  Its messages,
    exit codes and verdicts are the command's, except that it parses every
    point and value before it refuses a sweep above the cap, has no cap on
    the table's size, does not check the arity before it reads the report,
    reads a float in the report at its binary value, and rechecks no field
    but the constraints (see ``reference_closeness`` for the density rows).
    """
    kernel = load_kernel(args.kernel)
    system = load_constraint(args.constraint, kernel.space)
    doc = load_json(args.report, "report")
    result = doc.get("result", doc)
    inputs = doc.get("inputs")
    if inputs is not None:
        if not isinstance(inputs, dict):
            raise FormatError(f"report file {args.report}: inputs must be an object")
        for key, given, built in (
            ("kernel", args.kernel, kernel_to_doc(kernel)),
            ("constraint", args.constraint, constraint_to_doc(system, kernel.space)),
        ):
            if inputs.get(key) != built:
                raise FormatError(
                    f"report file {args.report}: its inputs.{key} differs from {given}"
                )
    try:
        part = result["part"]
        points = tuple(as_fraction(p) for p in result["points"])
        eps = as_fraction(result["epsilon"])
        texts = {
            key: value_from_text(kernel.space, text) for key, text in result["values"].items()
        }
    except (KeyError, TypeError, DomainError, ValueError) as exc:
        raise FormatError(f"report file {args.report} is missing repair data: {exc}") from exc
    if not points or list(points) != sorted(set(points)) or points[0] < 0 or points[-1] >= 1:
        raise FormatError("report.points must be nonempty, sorted, distinct and in [0, 1)")
    symmetric = system.mode == "multiset"
    if type(part) is not int or part != (2 if symmetric else 1):
        raise FormatError(
            f"report file {args.report}: its part {part!r} does not match "
            f"the constraint's {system.mode} mode"
        )
    _refuse_large_system_sweep(system, len(points))
    if symmetric:
        tuples = itertools.combinations_with_replacement(points, kernel.arity)
    else:
        tuples = itertools.product(points, repeat=kernel.arity)
    keys = {tuple(t): ",".join(frac_str(x) for x in t) for t in tuples}
    # more keys than tuples: some key is at no tuple.  With no more, a key
    # at no tuple leaves some tuple without one.
    if len(texts) > len(keys):
        stray = next(key for key in texts if key not in keys.values())
        kind = "sorted tuple" if symmetric else "tuple"
        raise FormatError(
            f"report file {args.report}: values has {stray!r}, which is no {kind} of its points"
        )
    values = {}
    for t, key in keys.items():
        if key not in texts:
            raise FormatError(f"report has no value for tuple {key}")
        values[t] = texts[key]

    def evaluate(t):
        return values[tuple(sorted(t)) if symmetric else tuple(t)]

    viols = reference_violations(system, evaluate, kernel.space, points, eps)
    for v in viols[:10]:
        print(f"violated: {v.detail} at ({','.join(frac_str(x) for x in v.assignment)})")
    n, v = len(points), system.variables
    checked = f"{n}^{v}" if system.mode == "multiset" else str(math.perm(n, v))
    print(f"checked {checked} assignments: "
          f"{'all atoms hold' if not viols else f'{len(viols)} violations'}")
    return 0 if not viols else 2
