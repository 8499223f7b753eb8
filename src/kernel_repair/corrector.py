"""Constraint repair on finite point sets by cell sampling and extraction.

Given a step kernel whose constraints hold almost everywhere, the repair
produces values on all needed tuples of a finite point set so the
constraints hold for every tuple, while agreeing with the kernel wherever
the point tuple sits at a density point of its own value cell.

The paper's construction has two regimes, selected by the constraint mode:

* distinct mode draws one fresh sample per point inside its refinement
  cell and reads the kernel off the sampled tuples;
* multiset mode draws a pool of samples per point, takes simultaneously
  monochromatic cores of the pools, and reads representative values off
  the cores at sorted sample tuples, which yields an exactly symmetric
  result.  The cores are the pool prefixes, by proof: the kernel reads its
  base grid at every sorted sample tuple, so every coloring of the core
  extraction is constant and the extraction returns the first elements of
  each pool (see ``_read_table``).

``repair`` reads both in closed form through ``StepKernel.generic_value``
at the points' own base blocks, proven equal to the sampled construction
(see ``_read_table``), so it draws no sample and decides in one attempt
(see ``repair``).  The value table is keyed by tuples of point indices
(positions in the sorted points), so the sweep and the report hash and
sort small ints, and a successful repair returns that table as its
``CorrectedKernel``.  One walk over the index tuples reads the kernel once
per closeness class of tuples and fills both the table and the report's
per-tuple rows from that read (see ``_read_table``).  The
almost-everywhere audit decides every block vector exactly when there are
no more of them than trials.  When they all share one verdict it draws its
floats only to find the trials that hit an override constant, and not at
all when the kernel has no constant.
Otherwise it draws its floats in rounds, places them in base blocks by
exact float cuts, counts its trials per block vector and decides each
vector of slot values once (see ``audit_ae_hypothesis``).  A repair is a
pure function of its inputs and an audit of its seed.
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
    _failing_keys,
    _tuple_getter,
    proven_infeasible,
    violations,
)
from .density import adjacent_blocks, base_in_cell
from .errors import ContractError, FormatError
from .kernel import StepKernel, repeat_pattern
from .rational import _capped, as_fraction, frac_str
from .values import epsilon_partition, value_to_text

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
    seed: any string; recorded in the report, drives nothing.
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

    ``values`` is keyed by tuples of indices into ``points``.  Symmetric
    results store one value per sorted index tuple and look up arbitrary
    orderings through sorting, so symmetry is exact by construction.
    """

    points: tuple[Fraction, ...]
    arity: int
    symmetric: bool
    values: dict

    def __post_init__(self):
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.points)})

    def at(self, t):
        """The value at a tuple of point indices; raises ``KeyError`` with
        the looked-up key when the table has none."""
        return self.values[tuple(sorted(t)) if self.symmetric else t]

    def value_at(self, point_tuple):
        key = tuple(as_fraction(x) for x in point_tuple)
        if len(key) != self.arity:
            raise ContractError(f"expected {self.arity} points, got {len(key)}")
        try:
            return self.at(tuple([self._index[x] for x in key]))
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


def _point_key(t, names: list) -> str:
    """The report key of an index tuple; ``names[i]`` is the ``frac_str`` of point i."""
    return ",".join([names[i] for i in t])


def _check_arity(kernel: StepKernel, system: ConstraintSystem):
    if system.arity != kernel.arity:
        raise ContractError(
            f"system arity {system.arity} does not match kernel arity {kernel.arity}"
        )


def repair(kernel: StepKernel, system: ConstraintSystem, points, config: Optional[RepairConfig] = None) -> RepairOutcome:
    """Repair the kernel's values over the given points for the system.

    Distinct-mode systems get the table of the one-sample construction,
    multiset-mode systems that of the pool-and-core construction, both read
    in closed form (see ``_read_table``).  The outcome's report is identical
    across runs with the same inputs except for its timing entry and the
    seed it records.

    The repair is one attempt.  The construction doubles the refinement
    when verification fails, but the closed-form table depends on neither
    the refinement level, the seed nor the samples, so a doubled level would
    re-read the same table and reach the same status: the table is read,
    swept and compared with the kernel once, and a bounded-budget
    satisfiability probe runs once if the sweep fails (so genuinely
    infeasible systems surface as such).  The report's ``escalations`` is
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
    eps = cfg.epsilon
    if system.mode == "multiset":
        if eps <= 0:
            raise ContractError("multiset-mode repair needs a positive epsilon")
        if not kernel.symmetric_base:
            raise ContractError("multiset-mode repair needs a symmetric base grid")
    report, table, _ = judge(kernel, system, pts, eps)
    report["seed"] = str(cfg.seed)
    report["timing"] = time.perf_counter() - start
    status = report["status"]
    corrected = table if status == _STATUS_OK else None
    return RepairOutcome(status=status, corrected=corrected, report=report)


def judge(kernel: StepKernel, system: ConstraintSystem, pts: tuple, eps: Fraction, given=None):
    """Sweep a value table over sorted distinct points and derive its report.

    The table is ``given``, a mapping from report keys to values, or else
    the closed-form repair (see ``_read_table``).  Returns the report but
    its ``seed`` and ``timing``, the table and the violations.  ``repair``
    and ``verify`` both judge here: verify rederives every field.
    """
    space = kernel.space
    symmetric = system.mode == "multiset"
    names = [frac_str(x) for x in pts]
    values, texts, closeness, agree = _read_table(kernel, pts, symmetric, eps, names, given)
    table = CorrectedKernel(pts, kernel.arity, symmetric, values)
    viols = violations(system, table.at, space, range(len(pts)), eps)
    # a bounded-budget probe tells genuinely infeasible systems apart
    infeasible = bool(viols) and proven_infeasible(system, space, len(pts))
    status = _STATUS_FAILED if viols or agree else _STATUS_OK
    failed = {id(v.atom) for v in viols}
    report = {
        "part": 2 if symmetric else 1,
        "mode": system.mode,
        "status": _STATUS_INFEASIBLE if infeasible else status,
        "epsilon": frac_str(eps),
        "points": names,
        "escalations": [],
        "probe": {"ran": bool(viols), "proven_infeasible": infeasible},
        "values": texts,
        "violations": [
            {"tuple": _point_key(v.assignment, names), "atom": v.detail} for v in viols[:10]
        ],
        "verdicts": [{"atom": a.describe(), "holds": id(a) not in failed} for a in system.atoms],
        "density_closeness": closeness,
        "agreement_failures": [_point_key(t, names) for t in agree],
    }
    return report, table, viols


def _read_table(kernel, pts, symmetric: bool, eps, names: list, given=None):
    """The value table and its report rows, read in one walk.

    Returns the table keyed by tuples of positions in ``pts`` (every index
    tuple in distinct mode, every sorted one in multiset mode), the report's
    ``values`` and ``density_closeness`` tables keyed by point names, and
    the index tuples that sit at density points yet moved further than eps
    from the kernel, in ``itertools`` order.  Without a positive eps (exact
    mode) density flags are unknown and nothing counts as a failure.  A
    ``given`` table (see ``judge``) lacking a tuple's name raises.

    The paper's construction draws guarded samples in each point's cell at
    a level m that separates the points.  Distinct mode reads the kernel at
    the tuple of one sample per point, for every index tuple.  Multiset mode
    reads it at a sorted tuple of core samples, for every sorted index
    tuple; the cores are the first ``core_size`` samples of each point's
    pool.  Either value is ``generic_value`` at the points' own base blocks,
    at the tuple's ``repeat_pattern`` in distinct mode and at the
    all-distinct pattern in multiset mode.  Proof: the level m is the kernel
    resolution times a power of two, so every sample lies in its point's
    base block, and it separates the points.  The samples are pairwise
    distinct and avoid every override constant.  So in distinct mode a
    sample tuple repeats exactly where its index tuple does, and
    ``generic_value`` gives ``value_at`` at it.  In multiset mode sorting a
    selection keeps the samples of each point together in point order, no
    override condition holds at a sorted selection, and the kernel reads
    its base grid there, at the blocks of the points repeated as the vector
    says.  The cores are what ``multi_type_extract`` returns for the
    coloring of a size vector by the value cell of ``value_at`` at the
    sorted selected samples: each coloring is constant, so the search of
    ``extract_core`` accepts every element it tries and each pass keeps the
    first elements of each part.  So the table depends on neither m, the
    seed nor the samples.

    The kernel is read once per closeness class, at its first tuple, into
    one row that every tuple of the class copies.  The class of a tuple is
    each coordinate's ``adjacent_blocks`` and the override constant it
    equals (if any), and its ``repeat_pattern``.  The repaired value reads
    only the pattern and the base blocks, the last adjacent blocks.  A
    ``CoordIs`` condition holds exactly where its coordinate equals its
    constant and a ``CoordsEqual`` condition exactly where the pattern
    repeats, so ``value_at`` is one value on the class, ``generic_value``
    at the pattern when no coordinate equals a constant.  The texts are
    computed once per pair of values, and the density flag reads only the
    cell of ``value_at`` and the base at the adjacent blocks
    (``base_in_cell``); a given value unlike its class's first gets its own texts.
    """
    r = kernel.resolution
    space = kernel.space
    partition = epsilon_partition(space, eps) if eps > 0 else None
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
    indices = range(len(pts))
    if symmetric:
        distinct = tuple(range(kernel.arity))
        tuples = itertools.combinations_with_replacement(indices, kernel.arity)
    else:
        tuples = itertools.product(indices, repeat=kernel.arity)
    values = {}
    texts = {}
    table = {}
    bad = []
    # (repaired value, kernel value) -> (value text, distance text, beyond eps)
    pairs: dict = {}

    def pair(v, at_t):
        got = pairs.get((v, at_t))
        if got is None:
            d = space.dist(v, at_t)
            got = pairs[(v, at_t)] = (value_to_text(space, v), frac_str(d), d > eps)
        return got

    # closeness class -> (repaired value, kernel value, density flag, *pair)
    rows: dict = {}
    for t in tuples:
        name = _point_key(t, names)
        if given is not None:
            try:
                v = given[name]
            except KeyError:
                raise FormatError(f"report has no value for tuple {name}") from None
        pattern = repeat_pattern(t)
        key = (tuple([coord[i] for i in t]), pattern)
        row = rows.get(key)
        if row is None:
            at_blocks = tuple([blocks[i] for i in t])
            read = distinct if symmetric else pattern
            hit = any([hits[i] for i in t])
            if hit:
                at_t = kernel.value_at(tuple([pts[i] for i in t]))
            else:
                at_t = kernel.generic_value(at_blocks, pattern)
            if given is None:
                v = at_t if read == pattern and not hit else kernel.generic_value(at_blocks, read)
            if partition is None:
                dense = None
            else:
                target = partition.cell_of(at_t)
                dense = base_in_cell(kernel, partition, [adjacent[i] for i in t], target)
            row = rows[key] = (v, at_t, dense, *pair(v, at_t))
        elif given is not None and v is not row[0] and v != row[0]:
            row = (v, *row[1:3], *pair(v, row[1]))
        v, _, dense, text, dist_text, beyond = row
        values[t] = v
        texts[name] = text
        table[name] = {"density": dense, "dist": dist_text}
        if dense and beyond:
            bad.append(t)
    return values, texts, table, bad


# 97.5th normal quantile, for two-sided 95% coverage.
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95% coverage."""
    if trials < 1:
        raise ContractError("the interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ContractError("successes must lie in 0..trials")
    p = successes / trials
    z = _Z95
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
    memory stays bounded whatever the sample count.  The count equals the
    trial-by-trial loop's on that stream, whichever way below it is found.

    A clear trial, one where no coordinate equals an override constant, is
    decided by the tuple of its variables' base blocks.  Its points are
    pairwise distinct, so a slot repeats a point exactly where it repeats a
    variable, and each slot's repeat pattern is fixed by the system; so
    every slot value is ``StepKernel.generic_value`` at the slot's blocks
    and pattern.  Block vectors are decided through one ``_failing_keys``
    for the whole call, whose names are each slot's (blocks, pattern), so
    ``generic_value`` runs once per such pair and each id vector is decided
    once.  A trial that hits a constant is decided through a second one,
    whose names are point tuples read by ``value_at``.

    When the r ** variables block vectors (r the resolution) are no more
    than ``samples``, all of them are decided first, in ``product`` order;
    ``rational._capped`` counts them and stops past ``samples``, so a large
    variable count never forms the power, and the enumeration costs at most
    ``samples`` decisions, which the size of the draw already bounds.  If
    none fails, or all do, the trials are neither placed in blocks nor
    counted: the stream is drawn only to find the trials that hit a
    constant, and the count is the failing hit trials plus, when every
    vector fails, every clear trial.  If moreover the kernel has no
    constant, the count is ``samples`` or 0 without a draw.
    Proof: a clear trial's block vector is one of the enumerated ones and
    its verdict is that vector's, so under one verdict for all vectors it
    fails exactly when every vector fails; a hit trial is decided at its
    points, as the loop decides it; without a constant every trial is
    clear.  Otherwise (a mixed verdict, or more vectors than samples) each
    round counts its clear trials per block vector and a failing vector
    adds its count.

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
    checker = _AtomChecker(system, kernel.space, Fraction(0))
    constants = kernel.exception_constants()
    picks = tuple(_tuple_getter(tuple(v - 1 for v in slot)) for slot in checker.slots)
    # the trial points are pairwise distinct, so a slot repeats a point
    # exactly where it repeats a variable
    patterns = map(repeat_pattern, checker.slots)
    names = tuple(lambda b, pick=pick, p=p: (pick(b), p) for pick, p in zip(picks, patterns))
    by_blocks = _failing_keys(checker, names, lambda name: kernel.generic_value(*name))
    at_points = _failing_keys(checker, picks, kernel.value_at)
    r, v = kernel.resolution, system.variables
    # the verdict of every clear trial, when all block vectors share one
    uniform = None
    vectors = _capped(itertools.repeat((r, 1), v), samples)
    if vectors <= samples:
        failing = sum(1 for _ in by_blocks(itertools.product(range(r), repeat=v)))
        if failing in (0, vectors):
            uniform = failing > 0
    bad, left = 0, samples
    if uniform is not None and not constants:
        # every trial is clear: nothing to draw
        bad, left = samples * uniform, 0
    rng = random.Random(f"{seed}:audit") if left else None
    per_round = max(1, _AUDIT_ROUND // v)
    block = None
    while left:
        # floats compare and hash exactly like the Fractions they denote
        draws = itertools.repeat((), min(left, per_round) * v)
        floats = list(itertools.starmap(rng.random, draws))
        drawn = set(floats)
        if len(drawn) < len(floats):
            # drop the chunks with a repeated float; a later round redraws them
            floats = list(
                itertools.chain.from_iterable(
                    c for c in zip(*[iter(floats)] * v) if len(set(c)) == v
                )
            )
        left -= len(floats) // v
        # drawn holds every kept float, so a round clear of it needs no split
        if not constants.isdisjoint(drawn):
            clear, hits = [], []
            for c in zip(*[iter(floats)] * v):
                if constants.isdisjoint(c):
                    clear.extend(c)
                else:
                    hits.append(tuple(map(Fraction, c)))
            bad += sum(1 for _ in at_points(hits))
            floats = clear
        if uniform is None:
            if block is None:
                block = functools.partial(bisect.bisect_right, _float_cuts(r))
            counts = collections.Counter(zip(*[iter(map(block, floats))] * v))
            bad += sum(counts[blocks] for blocks, _ in by_blocks(counts))
        elif uniform:
            bad += len(floats) // v
    low, high = wilson_interval(bad, samples)
    return AuditResult(samples=samples, violations=bad, interval_low=low, interval_high=high)
