"""Exact density computations for step kernels.

For a point x of [0,1)^k and a refinement level m, the box around x is the
product of the half-open cells [s_i/m, (s_i+1)/m) containing its
coordinates.  The mass of a value cell U at level m is m^k times the
Lebesgue measure of the part of that box where the kernel's base grid takes
a value in U.  Override pieces are null sets and never contribute.  All
masses are exact rationals: each axis of the box is split at base-grid cut
points and the surviving sub-boxes are summed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ContractError
from .kernel import StepKernel, block_of
from .rational import as_fraction
from .values import CellPartition


def box_bounds(x, m: int) -> tuple[Fraction, Fraction]:
    """Endpoints of the level-m cell containing x."""
    s = block_of(x, m)
    return Fraction(s, m), Fraction(s + 1, m)


def axis_segments(x, m: int, resolution: int) -> list[tuple[Fraction, int]]:
    """Split the level-m cell around x at base-grid cuts.

    Returns (length, base block index) pairs whose lengths sum to 1/m.
    """
    lo, hi = box_bounds(x, m)
    cuts = {lo, hi}
    for j in range(1, resolution):
        c = Fraction(j, resolution)
        if lo < c < hi:
            cuts.add(c)
    ordered = sorted(cuts)
    return [
        (b - a, math.floor(a * resolution)) for a, b in zip(ordered, ordered[1:])
    ]


def density_mass(
    kernel: StepKernel,
    partition: CellPartition,
    point,
    m: int,
    cell_index: int | None = None,
) -> Fraction:
    """Normalized mass of one value cell inside the level-m box around point.

    With ``cell_index`` omitted the cell is the one holding the kernel value
    at the point itself (overrides included, since that is the observed
    value).  The result lies in [0, 1] and equals 1 exactly when the whole
    box maps into the cell.  A level below 1 or a point of the wrong arity
    raises ``ContractError``, a point outside [0, 1)^k ``DomainError``; the
    point is checked by ``value_at``, whatever the cell.
    """
    if m < 1:
        raise ContractError("refinement level m must be at least 1")
    pt = tuple(as_fraction(x) for x in point)
    value = kernel.value_at(pt)
    if cell_index is None:
        cell_index = partition.cell_of(value)
    per_axis = [axis_segments(x, m, kernel.resolution) for x in pt]
    total = Fraction(0)
    for combo in itertools.product(*per_axis):
        blocks = tuple(seg[1] for seg in combo)
        if partition.cell_of(kernel.base[blocks]) == cell_index:
            vol = Fraction(1)
            for length, _ in combo:
                vol *= length
            total += vol
    return total * Fraction(m) ** kernel.arity


def adjacent_blocks(x, resolution: int) -> tuple[int, ...]:
    """Base blocks whose closure contains x on one axis.

    Interior grid cuts contribute the blocks on both sides; every other
    point, including 0, contributes only its own block.
    """
    xf = as_fraction(x)
    t = block_of(xf, resolution)
    scaled = xf * resolution
    if scaled.denominator == 1 and 1 <= scaled.numerator <= resolution - 1:
        return (t - 1, t)
    return (t,)


def is_density_tuple(kernel: StepKernel, partition: CellPartition, point) -> bool:
    """Whether the level-m mass of the point's own cell tends to 1.

    Exact for step kernels: the limit is 1 precisely when every base block
    adjacent to the point maps into the partition cell of the kernel value
    there.  A coordinate sitting on an interior grid cut doubles the blocks
    to check on that axis; a point on an override piece compares the
    override value's cell against the surrounding base blocks and so almost
    never passes.
    """
    pt = tuple(as_fraction(x) for x in point)
    per_axis = [adjacent_blocks(x, kernel.resolution) for x in pt]
    return base_in_cell(kernel, partition, per_axis, partition.cell_of(kernel.value_at(pt)))


def base_in_cell(kernel: StepKernel, partition: CellPartition, per_axis, target: int) -> bool:
    """Whether the base grid maps every block vector of ``per_axis`` into cell ``target``.

    ``per_axis`` holds one tuple of base blocks per coordinate, and the
    block vectors are their product.  With each coordinate's
    ``adjacent_blocks`` and the cell of the kernel value at the point, this
    is the density rule of ``is_density_tuple``.
    """
    cell_of = partition.cell_of
    base = kernel.base
    return all(cell_of(base[blocks]) == target for blocks in itertools.product(*per_axis))
