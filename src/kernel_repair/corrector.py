"""Constraint repair on finite point sets by cell sampling and extraction.

Given a step kernel whose constraints hold almost everywhere, the repair
produces values on all needed tuples of a finite point set so the
constraints hold for every tuple, while agreeing with the kernel wherever
the point tuple sits at a density point of its own value cell.

Two regimes, selected by the constraint mode:

* distinct mode draws one fresh sample per point inside its refinement
  cell and reads the kernel off the sampled tuples;
* multiset mode draws a pool of samples per point, takes simultaneously
  monochromatic cores of the pools, and reads representative values off
  the cores at sorted sample tuples, which yields an exactly symmetric
  result.  The cores are the pool prefixes, by proof: the kernel reads its
  base grid at every sorted sample tuple, so every coloring of the core
  extraction is constant and the extraction returns the first elements of
  each pool (see ``_read_cores``).

Both regimes read the kernel in closed form through
``StepKernel.generic_value`` at the points' own base blocks: every sample
lies in its point's base block, and the samples are pairwise distinct and
avoid every override constant.  The value table is keyed by tuples of point
indices (positions in the sorted points), so the sweep, the report and the
closeness table hash and sort small ints; only a successful repair builds
the ``Fraction``-keyed ``CorrectedKernel.values``.  The closeness table
computes one row per closeness class of tuples (see ``_closeness_table``).
The construction doubles the refinement when verification fails, but the
closed form depends on neither the refinement level nor the samples, so a
doubled level would re-read the table it already checked.  So ``repair``
decides in one attempt: it reads, sweeps and compares the table once, runs
a bounded-budget satisfiability probe once if the sweep fails (so genuinely
infeasible systems surface as such), and then draws the witness samples at
the separating level, on floats.  The almost-everywhere audit
draws its floats in rounds, places them in base blocks by exact float cuts,
counts its trials per block vector and decides each vector of slot values
once (see ``audit_ae_hypothesis``).
Every run is a pure function of the configuration seed.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constraint import (
    ConstraintSystem,
    _AtomChecker,
    _tuple_getter,
    proven_infeasible,
    violations,
)
from .density import adjacent_blocks, base_in_cell
from .errors import ContractError
from .kernel import StepKernel, block_of, repeat_pattern
from .rational import as_fraction, frac_str
from .values import epsilon_partition, value_to_text

#: How many guarded redraws to attempt before giving up on a sample.  The
#: guard only rejects exact rational coincidences, which a float-backed
#: generator essentially never produces, so the cap is a formality.
_GUARD_TRIES = 64

#: About how many floats the audit draws per round: enough trials per round
#: to count block vectors in bulk, few enough to bound the memory of any
#: ``samples``.  A round always draws at least one whole trial.
_AUDIT_ROUND = 1 << 14

_STATUS_OK = "ok"
_STATUS_FAILED = "failed"
_STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RepairConfig:
    """The inputs of a repair run besides the kernel, system and points.

    epsilon: relaxation tolerance; must be positive in multiset mode.
    seed: any string; every random choice derives from it.
    """

    epsilon: Fraction = Fraction(0)
    seed: str = "0"

    def __post_init__(self):
        eps = as_fraction(self.epsilon)
        if eps < 0:
            raise ContractError("epsilon must be nonnegative")
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True, eq=False)
class CorrectedKernel:
    """Repaired values on the tuples of a finite point set.

    Symmetric results store one value per sorted tuple and look up
    arbitrary orderings through sorting, so symmetry is exact by
    construction.
    """

    points: tuple[Fraction, ...]
    arity: int
    symmetric: bool
    values: dict

    def value_at(self, point_tuple):
        key = tuple(as_fraction(x) for x in point_tuple)
        if len(key) != self.arity:
            raise ContractError(f"expected {self.arity} points, got {len(key)}")
        if self.symmetric:
            key = tuple(sorted(key))
        try:
            return self.values[key]
        except KeyError:
            raise ContractError(f"no corrected value for tuple {key}") from None


@dataclass(frozen=True, eq=False)
class RepairOutcome:
    """Status plus the corrected values (on success) and a full report."""

    status: str
    corrected: Optional[CorrectedKernel]
    report: dict

    @property
    def ok(self) -> bool:
        return self.status == _STATUS_OK


def separating_refinement(points, resolution: int) -> int:
    """Smallest level resolution * 2^j putting the points in distinct cells."""
    m = resolution
    while len({block_of(x, m) for x in points}) < len(points):
        m *= 2
    return m


def _point_key(t, names: list) -> str:
    """The report key of an index tuple; ``names[i]`` is the ``frac_str`` of point i."""
    return ",".join([names[i] for i in t])


def _report_violations(viols, names: list) -> list:
    return [{"tuple": _point_key(v.assignment, names), "atom": v.detail} for v in viols[:10]]


def samples_per_point(system: ConstraintSystem) -> int:
    """How many guarded samples ``repair`` draws per point.

    Distinct mode draws one; multiset mode draws a pool of twice the core
    size ``max(variables, arity)``.
    """
    if system.mode != "multiset":
        return 1
    return 2 * max(system.variables, system.arity)


def _check_arity(kernel: StepKernel, system: ConstraintSystem):
    if system.arity != kernel.arity:
        raise ContractError(
            f"system arity {system.arity} does not match kernel arity {kernel.arity}"
        )


def repair(kernel: StepKernel, system: ConstraintSystem, points, config: Optional[RepairConfig] = None) -> RepairOutcome:
    """Repair the kernel's values over the given points for the system.

    Distinct-mode systems use the one-sample construction, multiset-mode
    systems the pool-and-core construction.  The outcome's report is
    identical across runs with the same inputs except for its timing entry.

    The repair is one attempt, decided before a witness is drawn.  The
    closed-form table depends on neither the refinement level, the seed nor
    the samples (see ``_read_samples``), so a doubled level would re-read
    the same table and reach the same status: the table is read, swept and
    compared with the kernel once, the probe runs once if the sweep fails,
    and the witnesses are then drawn at the separating level ``m`` from a
    generator seeded ``{seed}:p{part}:0``.  The report's ``escalations`` is
    always empty; it stays for readers that count attempts from it.
    """
    cfg = config or RepairConfig()
    start = time.perf_counter()
    pts = tuple(sorted(as_fraction(x) for x in points))
    if not pts:
        raise ContractError("at least one point is required")
    if len(set(pts)) != len(pts):
        raise ContractError("points must be pairwise distinct")
    for x in pts:
        if not 0 <= x < 1:
            raise ContractError(f"point {x} outside [0, 1)")
    _check_arity(kernel, system)
    system.validate_for_space(kernel.space)
    space = kernel.space
    eps = cfg.epsilon
    symmetric = system.mode == "multiset"
    if symmetric:
        if eps <= 0:
            raise ContractError("multiset-mode repair needs a positive epsilon")
        if not kernel.symmetric_base:
            raise ContractError("multiset-mode repair needs a symmetric base grid")
    m = separating_refinement(pts, kernel.resolution)
    partition = epsilon_partition(space, eps) if eps > 0 else None
    part = 2 if symmetric else 1
    names = [frac_str(x) for x in pts]
    report = {
        "part": part,
        "mode": system.mode,
        "status": None,
        "epsilon": frac_str(eps),
        "seed": str(cfg.seed),
        "points": names,
        "m": m,
        "escalations": [],
        "probe": {"ran": False, "proven_infeasible": False},
    }
    # keyed by index tuples into pts
    if symmetric:
        core_size = max(system.variables, kernel.arity)
        report["core_size"] = core_size
        values = _read_cores(kernel, pts)
    else:
        values = _read_samples(kernel, pts)
    # pts is sorted, so sorting indices sorts the points they stand for
    viols = violations(
        system,
        lambda t: values[tuple(sorted(t)) if symmetric else t],
        space,
        range(len(pts)),
        eps,
    )
    texts, closeness, agree = _closeness_table(kernel, partition, pts, values, eps, names)
    report["values"] = texts
    report["violations"] = _report_violations(viols, names)
    report["verdicts"] = _verdicts(system, viols)
    report["density_closeness"] = closeness
    report["agreement_failures"] = [_point_key(t, names) for t in agree]
    status, corrected = _STATUS_FAILED, None
    if not viols and not agree:
        status = _STATUS_OK
        corrected = CorrectedKernel(
            points=pts,
            arity=kernel.arity,
            symmetric=symmetric,
            values={tuple([pts[i] for i in t]): v for t, v in values.items()},
        )
    elif viols:
        report["probe"]["ran"] = True
        if proven_infeasible(system, space, len(pts), symmetrize=symmetric):
            report["probe"]["proven_infeasible"] = True
            status = _STATUS_INFEASIBLE
    pool = samples_per_point(system)
    drawn = _draw_witnesses(random.Random(f"{cfg.seed}:p{part}:0"), kernel, pts, pool, m)
    if symmetric:
        report["pool_size"] = pool
        report["pools"] = {z: [text for _, text in d] for z, d in zip(names, drawn)}
        report["cores"] = {
            z: [text for _, text in sorted(d[:core_size])] for z, d in zip(names, drawn)
        }
    else:
        report["samples"] = {z: d[0][1] for z, d in zip(names, drawn)}
    report["status"] = status
    report["timing"] = time.perf_counter() - start
    return RepairOutcome(status=status, corrected=corrected, report=report)


def _draw_witnesses(rng: random.Random, kernel, pts, pool: int, m: int) -> list[list[tuple[float, str]]]:
    """Guarded samples per point, pairwise distinct and clear of the points
    and the override constants, as (float, ``frac_str`` text) pairs.

    Point z lies in the level-m cell s; its sample is (s + f)/m for one draw
    f = ``rng.random()``, as in ``sample_in_cell``, redrawn when the sample
    equals a point, a constant or an earlier sample.  The guard tests f
    exactly: (s + f)/m == c holds exactly when f == c·m − s, and the other
    points and their samples lie in other cells, since m separates the
    points.  Floats hash and compare exactly like the ``Fraction``s they
    denote, and a point's samples sort by their floats as by their values.
    """
    constants = kernel.exception_constants()
    drawn = []
    for z in pts:
        s = block_of(z, m)
        guard = {c * m - s for c in constants if block_of(c, m) == s}
        guard.add(z * m - s)
        witnesses = []
        for _ in range(pool):
            for _ in range(_GUARD_TRIES):
                f = rng.random()
                if f not in guard:
                    break
            else:
                raise ContractError("could not draw a sample clear of the guarded values")
            guard.add(f)
            a, b = f.as_integer_ratio()
            num, den = s * b + a, m * b
            g = math.gcd(num, den)
            num, den = num // g, den // g
            witnesses.append((f, str(num) if den == 1 else f"{num}/{den}"))
        drawn.append(witnesses)
    return drawn


def _read_samples(kernel, pts) -> dict:
    """Distinct mode: the table read off one guarded sample per point.

    Returns ``{index tuple: value}``, keyed by positions in ``pts``.  The
    value at a sample tuple is ``generic_value`` at the points' own base
    blocks.  Proof: the level m is the kernel resolution times a power of
    two, so every sample lies in its point's base block; the samples are
    pairwise distinct and avoid every override constant, so a sample tuple
    repeats exactly where its index tuple does and ``generic_value`` gives
    ``value_at`` at it.  So the table depends on neither m, the seed nor the
    samples; ``repair`` draws them afterwards as the witness.
    """
    blocks = [block_of(z, kernel.resolution) for z in pts]
    return {
        t: kernel.generic_value(tuple([blocks[i] for i in t]), repeat_pattern(t))
        for t in itertools.product(range(len(pts)), repeat=kernel.arity)
    }


def _read_cores(kernel, pts) -> dict:
    """Multiset mode: the table read at sorted representatives of the cores.

    The cores are the first ``core_size`` samples of each pool, which is
    what ``multi_type_extract`` returns for the coloring of a size vector
    by the value cell of ``value_at`` at the sorted selected samples.
    Proof: the level m is the kernel resolution times a power of two, so
    every sample lies in its point's base block, and it separates the
    points, so sorting a selection keeps the samples of each point together
    in point order.  The samples are pairwise distinct and avoid every
    override constant, so no override condition holds at a sorted selection
    (``generic_value``) and the kernel reads its base grid there, at the
    blocks of the points repeated as the vector says.  Each coloring is
    therefore constant, and the search of ``extract_core`` accepts every
    element it tries: each pass keeps the first elements of each part.  The
    value of a vector is read at those blocks of the points, so the table
    depends on neither m, the seed nor the pools; ``repair`` draws the pools
    afterwards and reports them and the cores as the witness.

    Returns ``{sorted index tuple: value}``, keyed by positions in ``pts``.
    """
    blocks = [block_of(z, kernel.resolution) for z in pts]
    distinct = tuple(range(kernel.arity))
    return {
        key: kernel.generic_value(tuple([blocks[i] for i in key]), distinct)
        for key in itertools.combinations_with_replacement(range(len(pts)), kernel.arity)
    }


def _verdicts(system, viols) -> list:
    """One pass/fail entry per atom over the whole verification sweep."""
    failed = {id(v.atom) for v in viols}
    return [
        {"atom": atom.describe(), "holds": id(atom) not in failed}
        for atom in system.atoms
    ]


def _closeness_table(kernel, partition, pts, values: dict, eps, names: list):
    """The report's texts and per-tuple drift from the kernel, and the
    density tuples that drifted.

    ``values`` is keyed by index tuples into ``pts``.  Returns the report's
    ``values`` and ``density_closeness`` tables plus the list of index
    tuples that sit at density points yet moved further than eps.  Without
    a partition (exact mode) density flags are unknown and nothing counts
    as a failure.

    A row is computed once per closeness class, at the first tuple of the
    class, and reused at the others.  The class of a tuple is each
    coordinate's ``adjacent_blocks`` and the override constant it equals
    (if any), and its ``repeat_pattern``.  Precondition: the repaired value
    is a function of the class.  The tables of ``_read_samples`` and
    ``_read_cores`` meet it: they read ``generic_value`` at the tuple's base
    blocks, the last of each coordinate's adjacent blocks, and at its
    pattern or the all-distinct one.  A ``CoordIs`` condition holds exactly
    where its coordinate equals its constant and a ``CoordsEqual`` condition
    exactly where the pattern repeats, so ``value_at`` is one value on the
    class, ``generic_value`` when no coordinate equals a constant.  The
    texts are computed once per pair of values, and the density flag
    reads only the cell of ``value_at`` and the base at the adjacent blocks
    (``base_in_cell``).
    """
    r = kernel.resolution
    space = kernel.space
    constants = kernel.exception_constants()
    adjacent = [adjacent_blocks(x, r) for x in pts]
    blocks = [adj[-1] for adj in adjacent]
    hits = [x in constants for x in pts]
    # point index -> id of its (adjacent blocks, constant equalled) pair
    ids: dict = {}
    coord = [
        ids.setdefault((adj, x if hit else None), len(ids))
        for x, adj, hit in zip(pts, adjacent, hits)
    ]
    texts = {}
    table = {}
    bad = []
    # (repaired value, kernel value) -> (value text, distance text, beyond eps)
    pairs: dict = {}
    rows: dict = {}  # closeness class -> (value text, density flag, distance text, drifted)
    for t in sorted(values):
        pattern = repeat_pattern(t)
        key = (tuple([coord[i] for i in t]), pattern)
        row = rows.get(key)
        if row is None:
            v = values[t]
            if any([hits[i] for i in t]):
                at_t = kernel.value_at(tuple([pts[i] for i in t]))
            else:
                at_t = kernel.generic_value(tuple([blocks[i] for i in t]), pattern)
            pair = pairs.get((v, at_t))
            if pair is None:
                d = space.dist(v, at_t)
                pair = pairs[(v, at_t)] = (value_to_text(space, v), frac_str(d), d > eps)
            text, dist_text, beyond = pair
            if partition is None:
                dense = None
            else:
                target = partition.cell_of(at_t)
                dense = base_in_cell(kernel, partition, [adjacent[i] for i in t], target)
            row = rows[key] = (text, dense, dist_text, dense and beyond)
        text, dense, dist_text, drifted = row
        name = _point_key(t, names)
        texts[name] = text
        table[name] = {"density": dense, "dist": dist_text}
        if drifted:
            bad.append(t)
    return texts, table, bad


# 97.5th normal quantile, for two-sided 95% coverage.
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ContractError("the interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ContractError("successes must lie in 0..trials")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # the score bound touches the endpoint exactly in the degenerate cases;
    # keep it there instead of a rounding-error ulp away
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class AuditResult:
    """Violation statistics for the almost-everywhere hypothesis."""

    samples: int
    violations: int
    interval_low: float
    interval_high: float

    @property
    def rate(self) -> float:
        return self.violations / self.samples


def _float_cuts(r: int) -> list[float]:
    """The least floats at or above 1/r, 2/r, ..., (r-1)/r, in order."""
    cuts = []
    for j in range(1, r):
        # float() of a Fraction is correctly rounded, so at most one step short
        c = float(Fraction(j, r))
        if Fraction(c) < Fraction(j, r):
            c = math.nextafter(c, 1.0)
        cuts.append(c)
    return cuts


def audit_ae_hypothesis(
    kernel: StepKernel, system: ConstraintSystem, samples: int = 1000, seed="0"
) -> AuditResult:
    """Estimate how often the kernel violates the system at random tuples.

    Each trial draws pairwise distinct uniform points (repeats in atom
    slots still reach the kernel's diagonal behavior) and checks the atoms
    exactly.  Reports the violating trial count with a 95% Wilson interval.
    A kernel whose defects are confined to null sets audits at zero.

    The stream is the one of a trial-by-trial audit: trials are consecutive
    chunks of ``variables`` floats, and a chunk with a repeated float is
    dropped and the next chunk drawn in its place.  The floats are drawn in
    rounds of about ``_AUDIT_ROUND`` floats, each round drawing only the
    chunks still needed, so a round never draws past the last trial and
    memory stays bounded whatever the sample count.

    Trials are counted per block vector.  A trial's points are pairwise
    distinct, so a slot repeats a point exactly where it repeats a
    variable, and each slot's repeat pattern is fixed by the system.  When
    no coordinate equals an override constant, every slot value is
    ``StepKernel.generic_value`` at the slot's blocks and pattern, so the
    trial's verdict depends only on the tuple of its variables' base
    blocks.  Each round counts its trials per block vector; each distinct
    vector, in order of first appearance, reads the interned id of every
    slot through a per-call memo keyed by the slot's (blocks, pattern), so
    ``generic_value`` runs once per such class, and its id vector is
    decided once, as in ``violations``; a failing vector adds its count.  A
    trial where a coordinate equals a constant is decided on its own: it
    reads ``value_at`` lazily, only at the slots of the atoms it reaches.

    A drawn float x lands in base block ``bisect_right(cuts, x)``, where
    ``cuts[j-1]`` is the least float at or above j/r (``_float_cuts``).
    This equals ``block_of(x, r)`` for every float x in [0, 1).  Proof: the
    block is floor(x·r), the number of j in 1..r-1 with j/r <= x, since
    x < 1.  For a float x, j/r <= x holds exactly when ``cuts[j-1]`` <= x:
    if j/r <= x then x is a float at or above j/r, so the least such float
    is at most x; if ``cuts[j-1]`` <= x then j/r <= ``cuts[j-1]`` <= x.  The
    cuts rise with j, so ``bisect_right`` counts exactly those j.
    """
    if samples < 1:
        raise ContractError("at least one audit sample is required")
    _check_arity(kernel, system)
    rng = random.Random(f"{seed}:audit")
    checker = _AtomChecker(system, kernel.space, Fraction(0))
    constants = kernel.exception_constants()
    block = functools.partial(bisect.bisect_right, _float_cuts(kernel.resolution))
    picks = tuple(tuple(v - 1 for v in slot) for slot in checker.slots)
    # the trial points are pairwise distinct, so a slot repeats a point
    # exactly where it repeats a variable
    patterns = tuple(repeat_pattern(slot) for slot in checker.slots)
    reads = tuple(zip(map(_tuple_getter, picks), patterns))
    v = system.variables
    per_round = max(1, _AUDIT_ROUND // v)
    slot_ids: dict = {}  # (slot blocks, slot pattern) -> interned value id
    decided: dict[tuple[int, ...], bool] = {}  # id vector -> whether an atom fails

    def slot_id(key) -> int:
        vid = slot_ids.get(key)
        if vid is None:
            vid = slot_ids[key] = checker.intern(kernel.generic_value(*key))
        return vid

    def hit_fails(tup) -> bool:
        tup = [Fraction(x) for x in tup]

        def fill(k):
            return checker.intern(kernel.value_at(tuple([tup[j] for j in picks[k]])))

        return next(checker.failing(fill), None) is not None

    bad = 0
    left = samples
    while left:
        # floats compare and hash exactly like the Fractions they denote
        draws = itertools.repeat((), min(left, per_round) * v)
        floats = list(itertools.starmap(rng.random, draws))
        if len(set(floats)) < len(floats):
            # drop the chunks with a repeated float; a later round redraws them
            floats = list(
                itertools.chain.from_iterable(
                    c for c in zip(*[iter(floats)] * v) if len(set(c)) == v
                )
            )
        left -= len(floats) // v
        if constants.isdisjoint(floats):
            counts = collections.Counter(zip(*[iter(map(block, floats))] * v))
        else:
            counts = collections.Counter()
            for tup in zip(*[iter(floats)] * v):
                if constants.isdisjoint(tup):
                    counts[tuple(map(block, tup))] += 1
                else:
                    bad += hit_fails(tup)
        for blocks, n in counts.items():
            ids = tuple([slot_id((read(blocks), pattern)) for read, pattern in reads])
            failed = decided.get(ids)
            if failed is None:
                failed = decided[ids] = next(checker.failing(ids.__getitem__), None) is not None
            if failed:
                bad += n
    low, high = wilson_interval(bad, samples)
    return AuditResult(samples=samples, violations=bad, interval_low=low, interval_high=high)
