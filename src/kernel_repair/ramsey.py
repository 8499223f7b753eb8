"""Monochromatic core extraction for colored selections across parts.

A selection over parts P_1..P_p with size vector (t_1..t_p) picks a
t_i-subset from each part.  Given a coloring of all selections, a core
assigns each part a subset of a common size on which the coloring is
constant.  One complete search finds it: a pruned depth-first search over
element positions in natural order, which returns the lexicographically
first core, and whose failure proves that no core of that size exists.

The multi-pass driver handles several size vectors over the same parts by
shrinking the cores a little per vector, in lexicographic vector order, so
constancy established in earlier passes survives (it is inherited by
subsets).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

from .errors import ContractError, ExtractionFailed

Selection = tuple[tuple, ...]
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


def _validate(parts, sizes, goal: int):
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


def _search(parts, sizes, coloring: Coloring, goal: int):
    """Lexicographically first core of the given size, or None if none exists.

    Parts fill one after another, each by a backtracking scan over its
    positions in natural order.  An element joins its core only if every
    selection it completes has the color fixed by the first selection
    colored; every extension of the partial cores keeps a selection that
    disagrees, so dropping the element loses no core and the search is
    complete.  A selection is complete only once the parts after the
    current one, which are still empty, ask for no elements, and the
    subsets of the finished parts stay fixed while later parts fill.
    """
    p = len(parts)
    checked = [t > 0 and not any(sizes[i + 1:]) for i, t in enumerate(sizes)]
    cores: list[list] = [[] for _ in range(p)]
    prefixes: list[Selection] = [()]  # selections restricted to the finished parts
    ref = _UNSET

    def new_selections(i: int, elem) -> Iterator[Selection]:
        # selections that use elem, about to join cores[i] after its last element
        tail = ((),) * (p - 1 - i)
        for mine in itertools.combinations(cores[i], sizes[i] - 1):
            here = mine + (elem,)
            for pre in prefixes:
                yield pre + (here,) + tail

    def fill(i: int, start: int) -> bool:
        nonlocal prefixes, ref
        if i == p:
            return True
        core, part = cores[i], parts[i]
        if len(core) == goal:
            outer = prefixes
            if i + 1 < p:
                pool = list(itertools.combinations(core, sizes[i]))
                prefixes = [pre + (s,) for pre in outer for s in pool]
            if fill(i + 1, 0):
                return True
            prefixes = outer
            return False
        for pos in range(start, len(part) - (goal - len(core)) + 1):
            elem = part[pos]
            ref_was_unset = ref is _UNSET
            ok = True
            if checked[i]:
                for sel in new_selections(i, elem):
                    c = coloring(sel)
                    if ref is _UNSET:
                        ref = c
                    elif c != ref:
                        ok = False
                        break
            if ok:
                core.append(elem)
                if fill(i, pos + 1):
                    return True
                core.pop()
            if ref_was_unset:
                ref = _UNSET
        return False

    return tuple(cores) if fill(0, 0) else None


def extract_core(parts, sizes, coloring: Coloring, goal: int, method: str = "greedy", seed="0", restarts: int = 32):
    """First monochromatic core of the given size, in lexicographic order of positions.

    Each core lists its elements in part order, so the result is
    deterministic.  Raises ExtractionFailed with ``proven_absent=True``
    when the search finishes empty, which proves that no core of this size
    exists.  ``method`` ("greedy" or "exhaustive"), ``seed`` and
    ``restarts`` (at least 1) are accepted and checked but have no effect:
    both former strategies are this one search.
    """
    if method not in ("greedy", "exhaustive"):
        raise ContractError(f"unknown extraction method {method!r}")
    if restarts < 1:
        raise ContractError("restarts must be at least 1")
    parts = [tuple(p) for p in parts]
    _validate(parts, sizes, goal)
    cores = _search(parts, sizes, coloring, goal)
    if cores is None:
        raise ExtractionFailed(
            f"no monochromatic core of size {goal} exists", proven_absent=True
        )
    return cores


def exhaustive_core(parts, sizes, coloring: Coloring, goal: int):
    """``extract_core`` under its former exhaustive name."""
    return extract_core(parts, sizes, coloring, goal)


def greedy_core(parts, sizes, coloring: Coloring, goal: int, seed="0", restarts: int = 32):
    """``extract_core`` under its former greedy name; ``seed`` and ``restarts`` have no effect."""
    return extract_core(parts, sizes, coloring, goal, seed=seed, restarts=restarts)


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
    method: str = "greedy",
    seed="0",
    restarts: int = 32,
):
    """Cores of the target size monochromatic for every size vector at once.

    The vectors are processed in ascending lexicographic order, each pass
    shrinking all parts from the current size toward the target along the
    interpolation of ``pass_goal``.  Because constancy passes to subsets,
    the final cores are simultaneously monochromatic for every vector.
    All parts must start at a common size no smaller than the target.
    ``method``, ``seed`` and ``restarts`` are passed on to ``extract_core``,
    which checks them but is not steered by them.
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
        cores = extract_core(
            cores,
            vec,
            coloring_for(vec),
            goal,
            method=method,
            seed=f"{seed}:{step}",
            restarts=restarts,
        )
    return cores
