"""Exact cell masses and density-point classification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import midpoint_mass, random_exceptions, random_kernel

from kernel_repair.density import (
    adjacent_blocks,
    axis_segments,
    box_bounds,
    density_mass,
    is_density_tuple,
)
from kernel_repair.errors import ContractError, DomainError
from kernel_repair.kernel import CoordIs, CoordsEqual, ExceptionPiece, StepKernel
from kernel_repair.values import BoundedInterval, epsilon_partition

F = Fraction


def halves_kernel(a=F(0), b=F(1), exceptions=()):
    return StepKernel.from_flat(
        arity=1,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[a, b],
        exceptions=exceptions,
    )


# --- frozen masses ---


def test_constant_kernel_has_full_mass():
    k = halves_kernel(F(1, 2), F(1, 2))
    part = epsilon_partition(k.space, F(1, 10))
    for m in (1, 2, 3, 7):
        assert density_mass(k, part, (F(1, 3),), m) == 1


def test_boundary_point_mass_at_odd_level():
    """x = 1/2 at m = 3: only [1/2, 2/3) of the cell [1/3, 2/3) carries b."""
    k = halves_kernel()
    part = epsilon_partition(k.space, F(1, 10))
    cell_b = part.cell_of(F(1))
    assert density_mass(k, part, (F(1, 2),), 3, cell_b) == F(1, 2)
    assert density_mass(k, part, (F(1, 2),), 4, cell_b) == 1
    # the observed value at 1/2 is b, so the default target agrees
    assert density_mass(k, part, (F(1, 2),), 3) == F(1, 2)


def test_mass_of_absent_cell_is_zero():
    k = halves_kernel()
    part = epsilon_partition(k.space, F(1, 10))
    cell_b = part.cell_of(F(1))
    assert density_mass(k, part, (F(1, 4),), 2, cell_b) == 0


@pytest.mark.parametrize("cell_index", [None, 0])
def test_density_mass_refuses_a_bad_level_or_point(cell_index):
    k = halves_kernel()
    part = epsilon_partition(k.space, F(1, 10))
    for m in (0, -1, -2):
        with pytest.raises(ContractError, match="refinement level m must be at least 1"):
            density_mass(k, part, (F(1, 4),), m, cell_index)
    with pytest.raises(ContractError, match="expected 1 coordinates, got 2"):
        density_mass(k, part, (F(1, 4), F(1, 2)), 2, cell_index)
    with pytest.raises(DomainError, match=r"coordinate 5/4 outside \[0, 1\)"):
        density_mass(k, part, (F(5, 4),), 2, cell_index)


def test_null_override_contributes_no_mass():
    piece = ExceptionPiece((CoordIs(1, F(3, 10)),), F(1))
    k = halves_kernel(exceptions=(piece,))
    part = epsilon_partition(k.space, F(1, 10))
    # observed value at the override point is 1, but its cell has zero mass
    # around 3/10; the base cell still fills the box
    assert density_mass(k, part, (F(3, 10),), 2) == 0
    assert density_mass(k, part, (F(3, 10),), 2, part.cell_of(F(0))) == 1


# --- structural properties ---


def test_cell_masses_sum_to_one():
    rng = random.Random("sumcheck")
    for _ in range(25):
        arity = rng.choice((1, 2))
        k = random_kernel(rng, arity, rng.choice((2, 3)), [F(0), F(1, 5), F(1)])
        part = epsilon_partition(k.space, F(1, 5))
        pt = tuple(F(rng.randrange(0, 24), 24) for _ in range(arity))
        m = rng.randrange(1, 7)
        total = sum(
            density_mass(k, part, pt, m, c) for c in range(part.cell_count)
        )
        assert total == 1


def test_masses_match_midpoint_oracle():
    rng = random.Random("against-oracle")
    for _ in range(40):
        arity = rng.choice((1, 2, 3))
        k = random_kernel(rng, arity, rng.choice((1, 2, 4)), [F(0), F(3, 10), F(1)])
        k = k.with_exceptions(random_exceptions(rng, arity, [F(1, 2)], rng.randrange(3)))
        part = epsilon_partition(k.space, F(1, 10))
        pt = tuple(F(rng.randrange(0, 32), 32) for _ in range(arity))
        m = rng.randrange(1, 7)
        cell = rng.choice([None, rng.randrange(part.cell_count)])
        assert density_mass(k, part, pt, m, cell) == midpoint_mass(k, part, pt, m, cell)


def test_mass_invariant_under_null_overrides():
    rng = random.Random("null-invariance")
    base = random_kernel(rng, 2, 2, [F(0), F(1, 2), F(1)])
    noisy = base.with_exceptions(
        (
            ExceptionPiece((CoordsEqual(1, 2),), F(1)),
            ExceptionPiece((CoordIs(1, F(2, 7)),), F(0)),
        )
    )
    part = epsilon_partition(base.space, F(1, 10))
    for _ in range(50):
        pt = (F(rng.randrange(0, 16), 16), F(rng.randrange(0, 16), 16))
        m = rng.randrange(1, 9)
        for cell in range(part.cell_count):
            assert density_mass(base, part, pt, m, cell) == density_mass(
                noisy, part, pt, m, cell
            )


def test_aligned_levels_give_constant_profile():
    """Once the level is a multiple of the base grid, the mass freezes."""
    rng = random.Random("aligned")
    for _ in range(10):
        k = random_kernel(rng, 2, rng.choice((2, 3)), [F(0), F(1)])
        part = epsilon_partition(k.space, F(1, 10))
        pt = (F(rng.randrange(0, 12), 12), F(rng.randrange(0, 12), 12))
        masses = [density_mass(k, part, pt, k.resolution * 2**j) for j in range(4)]
        assert len(set(masses)) == 1
        assert masses[0] in (F(0), F(1))


# --- geometry helpers ---


def test_box_bounds():
    assert box_bounds(F(1, 3), 4) == (F(1, 4), F(1, 2))
    assert box_bounds(F(0), 5) == (F(0), F(1, 5))


def test_axis_segments_split_at_grid_cuts():
    # cell [1/3, 2/3) against the halves grid: one piece per side of 1/2
    segs = axis_segments(F(1, 2), 3, 2)
    assert segs == [(F(1, 6), 0), (F(1, 6), 1)]
    assert axis_segments(F(1, 4), 2, 2) == [(F(1, 2), 0)]


def test_adjacent_blocks():
    assert adjacent_blocks(F(1, 2), 2) == (0, 1)
    assert adjacent_blocks(F(3, 10), 2) == (0,)
    assert adjacent_blocks(F(0), 2) == (0,)  # no block to the left of zero
    assert adjacent_blocks(F(3, 4), 4) == (2, 3)


# --- density tuples ---


def test_interior_tuple_is_a_density_tuple():
    k = halves_kernel()
    part = epsilon_partition(k.space, F(1, 10))
    assert is_density_tuple(k, part, (F(3, 10),))
    assert is_density_tuple(k, part, (F(7, 10),))


def test_override_tuple_is_not_a_density_tuple():
    piece = ExceptionPiece((CoordIs(1, F(3, 10)),), F(1))
    k = halves_kernel(exceptions=(piece,))
    part = epsilon_partition(k.space, F(1, 10))
    assert not is_density_tuple(k, part, (F(3, 10),))
    assert is_density_tuple(k, part, (F(2, 5),))


def test_boundary_tuple_needs_agreeing_neighbors():
    k = halves_kernel()
    part = epsilon_partition(k.space, F(1, 10))
    # the two blocks around 1/2 carry different cells
    assert not is_density_tuple(k, part, (F(1, 2),))
    same = halves_kernel(F(1, 2), F(1, 2))
    assert is_density_tuple(same, part, (F(1, 2),))


def test_density_tuple_matches_large_level_masses():
    """The classification agrees with mass 1 at large levels of both parities.

    Aligned levels alone would miss on-cut points: their boxes start exactly
    at the cut and only ever see the right-hand block.  An odd level puts
    the cut strictly inside the box, which is what the limit over all
    levels sees.  For eighth-grid points and a halves base, levels 16 and
    17 are already in the stable regime.
    """
    rng = random.Random("classify")
    for _ in range(30):
        arity = rng.choice((1, 2))
        k = random_kernel(rng, arity, 2, [F(0), F(1)])
        k = k.with_exceptions(random_exceptions(rng, arity, [F(1, 2)], rng.randrange(2)))
        part = epsilon_partition(k.space, F(1, 10))
        pt = tuple(F(rng.randrange(0, 8), 8) for _ in range(arity))
        flagged = is_density_tuple(k, part, pt)
        masses = [density_mass(k, part, pt, m) for m in (16, 17)]
        assert flagged == all(mass == 1 for mass in masses)
