"""Monochromatic core extraction for colored selections across parts.

A selection over parts P_1..P_p with size vector (t_1..t_p) picks a
t_i-subset from each part.  Given a coloring of all selections, a core
assigns each part a subset of a common size on which the coloring is
constant.  One complete search finds it (``_search``).  It colors every
subset of the last part with a positive subset size once for each
selection from the earlier parts' cores, keeps the colors as bitmasks, and
ANDs them while the earlier cores grow; since a larger earlier core only
adds constraints, a candidate whose bitmasks leave the last part no core
is dropped without losing one.  It returns the lexicographically first
core, and its failure proves that no core of that size exists.

Colors must be hashable: the search buckets them as dict keys, so two
colors are one color exactly when they are one dict key (``1``, ``1.0``
and ``True`` are one color).

The multi-pass driver handles several size vectors over the same parts by
shrinking the cores a little per vector, in lexicographic vector order, so
constancy established in earlier passes survives (it is inherited by
subsets).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, Sequence

from .errors import ContractError, ExtractionFailed

Selection = tuple[tuple, ...]
#: Maps a selection to its color; colors must be hashable and are compared
#: as dict keys.
Coloring = Callable[[Selection], object]

_UNSET = object()


def all_selections(parts: Sequence[Sequence], sizes: Sequence[int]) -> Iterator[Selection]:
    """Every selection of sizes[i] elements from parts[i], in stable order.

    Elements keep the order they have inside each part; a size of zero
    contributes the empty subset.
    """
    if len(parts) != len(sizes):
        raise ContractError("one subset size per part is required")
    pools = [itertools.combinations(tuple(p), t) for p, t in zip(parts, sizes)]
    return itertools.product(*pools)


def is_monochromatic(parts, sizes, coloring: Coloring) -> bool:
    """Whether the coloring takes one value over all selections from parts."""
    seen = _UNSET
    for sel in all_selections(parts, sizes):
        c = coloring(sel)
        if seen is _UNSET:
            seen = c
        elif c != seen:
            return False
    return True


def validate_request(parts, sizes, goal: int):
    """Raise ContractError unless ``extract_core`` accepts these arguments.

    Reads only the length of each part, so a caller can check a request
    before it builds the parts or colors anything.
    """
    if goal < 1:
        raise ContractError("core size must be at least 1")
    if len(parts) != len(sizes):
        raise ContractError("one subset size per part is required")
    for p, t in zip(parts, sizes):
        if t < 0:
            raise ContractError("subset sizes must be nonnegative")
        if t > goal:
            raise ContractError(f"subset size {t} exceeds the core size {goal}")
        if goal > len(p):
            raise ContractError(f"core size {goal} exceeds a part of {len(p)} elements")


#: Plans of at most this many subsets stay cached; a larger one is built per
#: call and freed with it, at little cost next to coloring its subsets.
_CACHED_PLAN_SUBSETS = 4096


@functools.lru_cache(maxsize=16)
def _plan(n: int, s: int):
    """Row plan for the s-subsets of n positions, in lexicographic order.

    A subset's row is its first s-1 positions (its head) and its bit is
    its last position.  Returns the number of heads, the index of each
    head, and each subset's row index and bit.
    """
    heads = {head: i for i, head in enumerate(itertools.combinations(range(n - 1), s - 1))}
    powers = [1 << e for e in range(n)]
    rows, bits = [], []
    for sub in itertools.combinations(range(n), s):
        rows.append(heads[sub[:-1]])
        bits.append(powers[sub[-1]])
    return len(heads), heads, rows, bits


def _search(parts, sizes, coloring: Coloring, goal: int):
    """Lexicographically first core of the given size, or None if none exists.

    Let L be the last part with a positive subset size s.  A part of subset
    size zero adds only the empty subset, so it takes its first ``goal``
    elements, and so do the parts after L.  A prefix is a selection from
    the cores of the parts before L.  A prefix colors every s-subset of
    part L exactly once and keeps the colors as rows: for each head (s-1
    positions of part L), a row maps each color to the bitmask of the later
    positions that complete the head to a subset of that color.  Rows are
    kept by prefix, so no selection is colored twice in one call.

    The earlier parts with a positive subset size are enumerated in
    lexicographic order of positions.  The last of them, M, grows its core
    one position at a time, and each prefix that a new element completes
    ANDs its rows into a running table, one list of head bitmasks per
    color.  A larger core of M only adds prefixes, and so constraints: the
    table only loses bits as M's core grows.  A core of part L in color c
    needs a head, its first s-1 positions, whose bitmask keeps
    ``goal - s + 1`` bits, so a color without such a head is dropped, and a
    table without colors drops the element, both for good.  The parts
    before M have no complete prefix until M fills, so they are enumerated
    without pruning.  Once M's core is full, part L is searched on the
    table by bitmasks, one color at a time, each search taking positions in
    natural order and dropping a position that leaves too few candidates;
    the least core over the colors is the answer.  Every pruning step
    discards only candidates that no completion can turn into a core, so an
    empty result proves that no core exists.

    A row colors every later element of part L, whereas a lazy scan stops
    at the first conflict.  For an easy core in a very large part this can
    take more coloring calls than such a scan, but never more than the
    number of selections.
    """
    p = len(parts)
    cores = [list(part[:goal]) for part in parts]
    positive = [i for i in range(p) if sizes[i]]
    if not positive:
        return tuple(cores)
    *earlier, last = positive
    s = sizes[last]
    n = len(parts[last])
    plan = _plan if math.comb(n, s) <= _CACHED_PLAN_SUBSETS else _plan.__wrapped__
    heads, head_index, row_of, bit_of = plan(n, s)
    suffix = ((),) * (p - 1 - last)
    tails = ((sub,) + suffix for sub in itertools.combinations(parts[last], s))
    if earlier:
        tails = list(tails)  # shared by every prefix; a lone prefix streams them
    need = goal - s + 1  # bits that some head of a core's color keeps

    def rows_of(prefix):
        # the prefix's rows: per color, one bitmask per head
        colors = [coloring(prefix + tail) for tail in tails]
        rows = {}
        try:
            for c, r, b in zip(colors, row_of, bit_of):
                masks = rows.get(c)
                if masks is None:
                    masks = rows[c] = [0] * heads
                masks[r] |= b
        except TypeError:
            raise ContractError("colors must be hashable") from None
        return rows

    def narrow(table, rows):
        # the table ANDed with the rows, keeping colors that can still reach goal
        out = {}
        for c, masks in rows.items():
            if table is not None:
                old = table.get(c)
                if old is None:
                    continue
                masks = [a & b for a, b in zip(old, masks)]
            if any(m.bit_count() >= need for m in masks):
                out[c] = masks
        return out

    def first_in(masks):
        # first goal-subset of part L whose s-subsets all carry the masks' color
        chosen = []

        def grow(cand, left):
            while cand.bit_count() >= left:
                low = cand & -cand
                cand ^= low
                x = low.bit_length() - 1
                if left == 1:
                    chosen.append(x)
                    return True
                nxt = cand
                if s > 1:
                    for head in itertools.combinations(chosen, s - 2):
                        nxt &= masks[head_index[head + (x,)]]
                if nxt.bit_count() >= left - 1:
                    chosen.append(x)
                    if grow(nxt, left - 1):
                        return True
                    chosen.pop()
            return False

        start = masks[0] if s == 1 else (1 << len(parts[last])) - 1
        return tuple(chosen) if grow(start, goal) else None

    def finish(table) -> bool:
        found = [f for f in map(first_in, table.values()) if f is not None]
        if not found:
            return False
        part = parts[last]
        cores[last] = [part[x] for x in min(found)]
        return True

    if not earlier:
        return tuple(cores) if finish(narrow(None, rows_of(((),) * last))) else None

    *blind, m = earlier
    t, part = sizes[m], parts[m]
    mid = ((),) * (last - m - 1)
    spots = []  # M's core by position
    core = cores[m] = []

    def fill(start: int, table, outer) -> bool:
        # outer pairs each selection from the parts before M with its rows,
        # keyed by the positions picked from M; positions, not elements, key
        # the rows, so elements need not be hashable
        if len(core) == goal:
            return finish(table)
        for pos in range(start, len(part) - (goal - len(core)) + 1):
            narrowed = table
            y = part[pos]
            for mine, elems in zip(
                itertools.combinations(spots, t - 1), itertools.combinations(core, t - 1)
            ):
                here = mine + (pos,)
                for kept, pre in outer:
                    rows = kept.get(here)
                    if rows is None:
                        rows = kept[here] = rows_of(pre + (elems + (y,),) + mid)
                    narrowed = narrow(narrowed, rows)
                    if not narrowed:
                        break
                else:
                    continue
                break
            if narrowed is not None and not narrowed:
                continue
            spots.append(pos)
            core.append(y)
            if fill(pos + 1, narrowed, outer):
                return True
            spots.pop()
            core.pop()
        return False

    rows_by_prefix = {}  # by the positions picked from the parts before M
    for picked in itertools.product(*(itertools.combinations(range(len(parts[i])), goal) for i in blind)):
        picks = dict(zip(blind, picked))
        for i in blind:
            cores[i] = [parts[i][j] for j in picks[i]]
        outer = [
            (
                rows_by_prefix.setdefault(key, {}),
                tuple(tuple(parts[i][j] for j in sub) for i, sub in enumerate(key)),
            )
            for key in itertools.product(
                *(itertools.combinations(picks.get(i, ()), sizes[i]) for i in range(m))
            )
        ]
        if fill(0, None, outer):
            return tuple(cores)
    return None


def extract_core(parts, sizes, coloring: Coloring, goal: int, seed=None):
    """First monochromatic core of the given size, in lexicographic order of positions.

    Each core lists its elements in part order, so the result is
    deterministic.  Raises ExtractionFailed when the search finishes empty,
    which proves that no core of this size exists.  The coloring is called
    at most once per selection; its colors must be hashable and are
    compared as dict keys, and an unhashable color raises ContractError.
    ``seed`` is accepted and ignored, for callers written against the
    former randomized search.
    """
    parts = [tuple(p) for p in parts]
    validate_request(parts, sizes, goal)
    cores = _search(parts, sizes, coloring, goal)
    if cores is None:
        raise ExtractionFailed(f"no monochromatic core of size {goal} exists")
    return cores


def pass_goal(start: int, target: int, step: int, steps: int) -> int:
    """Core size after ``step`` of ``steps`` evenly interpolated passes.

    Interpolation rounds the shrink up so the first pass already makes
    progress, and the last pass always lands exactly on the target.
    """
    if step < 1 or step > steps:
        raise ContractError("pass index out of range")
    return max(target, start - math.ceil(step * (start - target) / steps))


def multi_type_extract(
    parts,
    size_vectors,
    coloring_for: Callable[[tuple[int, ...]], Coloring],
    target: int,
):
    """Cores of the target size monochromatic for every size vector at once.

    The vectors are processed in ascending lexicographic order, each pass
    shrinking all parts from the current size toward the target along the
    interpolation of ``pass_goal``.  Because constancy passes to subsets,
    the final cores are simultaneously monochromatic for every vector.
    All parts must start at a common size no smaller than the target.
    """
    parts = [tuple(p) for p in parts]
    if not parts:
        raise ContractError("at least one part is required")
    start = len(parts[0])
    if any(len(p) != start for p in parts):
        raise ContractError("all parts must have the same size")
    if target < 1 or target > start:
        raise ContractError(f"target size {target} must lie in 1..{start}")
    vectors = sorted(tuple(v) for v in size_vectors)
    if not vectors:
        raise ContractError("at least one size vector is required")
    cores = parts
    for step, vec in enumerate(vectors, start=1):
        if len(vec) != len(parts):
            raise ContractError("size vectors must have one entry per part")
        goal = pass_goal(start, target, step, len(vectors))
        cores = extract_core(cores, vec, coloring_for(vec), goal)
    return cores
