"""Step kernels: block lookup, override pieces, cell sampling."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import draw_pools, separating_refinement
from kernel_repair.errors import ContractError, DomainError
from kernel_repair.kernel import (
    CoordIs,
    CoordsEqual,
    ExceptionPiece,
    StepKernel,
    block_of,
    repeat_pattern,
    sample_in_cell,
)
from kernel_repair.values import BoundedInterval

F = Fraction


def checker_kernel(exceptions=()):
    return StepKernel.from_flat(
        arity=2,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1), F(1), F(0)],
        exceptions=exceptions,
        symmetric_base=True,
    )


# --- block arithmetic ---


def test_block_of_frozen():
    assert block_of(F(1, 2), 4) == 2
    assert block_of(F(1, 2), 3) == 1
    assert block_of(F(999, 1000), 10) == 9
    assert block_of(F(0), 7) == 0


@given(st.fractions(min_value=0, max_value=F(99, 100)), st.integers(min_value=1, max_value=64))
def test_block_of_brackets_its_point(x, m):
    s = block_of(x, m)
    assert F(s, m) <= x < F(s + 1, m)


@given(st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=64))
def test_block_of_constant_on_cell(s, m):
    """Several points of one cell share the block index."""
    if s >= m:
        s = s % m
    for t in (F(0), F(1, 3), F(7, 8)):
        assert block_of((F(s) + t) / m, m) == s


def test_block_of_takes_floats_and_strings():
    assert block_of(0.5, 4) == 2
    assert block_of("3/10", 10) == 3
    assert block_of(0.1, 10) == 1  # the float just above 1/10


def test_repeat_pattern_frozen():
    a, b = F(1, 3), F(1, 2)
    assert repeat_pattern((a, b, a)) == (0, 1, 0)
    assert repeat_pattern((b, b, b)) == (0, 0, 0)
    assert repeat_pattern((a, b)) == (0, 1)
    assert repeat_pattern(((1, 2), (2, 1), (1, 2))) == (0, 1, 0)


# --- sampling ---


def test_sample_in_cell_stays_in_cell():
    rng = random.Random("range")
    for _ in range(1000):
        x = F(rng.randrange(0, 100), 100)
        m = rng.randrange(1, 20)
        y = sample_in_cell(x, m, rng)
        assert block_of(y, m) == block_of(x, m)


def test_sample_in_cell_empirical_mean():
    # uniform on [0.3, 0.4): mean 0.35, generous +-0.01 band
    rng = random.Random("mean")
    draws = [sample_in_cell(F(3, 10), 10, rng) for _ in range(1000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - F(7, 20)) < F(1, 100)


def test_sample_in_cell_deterministic():
    a = [sample_in_cell(F(1, 3), 5, random.Random("fixed")) for _ in range(5)]
    b = [sample_in_cell(F(1, 3), 5, random.Random("fixed")) for _ in range(5)]
    assert a == b


def test_sample_in_cell_consumes_one_draw():
    """Interleaved streams stay aligned because each call costs one draw."""
    rng1 = random.Random("draws")
    seq1 = [sample_in_cell(F(0), 1, rng1) for _ in range(4)]
    rng2 = random.Random("draws")
    seq2 = [F(rng2.random()) for _ in range(4)]
    assert seq1 == seq2


# --- evaluation ---


def test_eval_base_lookup():
    k = checker_kernel()
    assert k.value_at((F(1, 5), F(7, 10))) == 1
    assert k.value_at((F(1, 5), F(2, 5))) == 0
    assert k.value_at((F(7, 10), F(9, 10))) == 0


def test_eval_single_point_override():
    piece = ExceptionPiece((CoordIs(1, F(1, 5)), CoordIs(2, F(7, 10))), F(0))
    k = checker_kernel((piece,))
    assert k.value_at((F(1, 5), F(7, 10))) == 0
    assert k.value_at((F(7, 10), F(1, 5))) == 1  # reversed order misses the piece


def test_eval_diagonal_override():
    k = checker_kernel((ExceptionPiece((CoordsEqual(1, 2),), F(1)),))
    assert k.value_at((F(3, 10), F(3, 10))) == 1
    assert k.value_at((F(3, 10), F(2, 5))) == 0


def test_eval_first_match_wins():
    pieces = (
        ExceptionPiece((CoordIs(1, F(1, 5)),), F(1)),
        ExceptionPiece((CoordsEqual(1, 2),), F(0)),
    )
    k = checker_kernel(pieces)
    # both pieces match (1/5, 1/5); the first one decides
    assert k.value_at((F(1, 5), F(1, 5))) == 1
    assert k.value_at((F(2, 5), F(2, 5))) == 0


def test_eval_agrees_with_base_off_overrides():
    k = checker_kernel(
        (
            ExceptionPiece((CoordIs(1, F(1, 7)),), F(1)),
            ExceptionPiece((CoordsEqual(1, 2),), F(1)),
        )
    )
    rng = random.Random("off-overrides")
    for _ in range(500):
        pt = (F(rng.random()), F(rng.random()))
        # float-backed draws never hit the null pieces
        assert k.value_at(pt) == k.base[tuple(block_of(x, k.resolution) for x in pt)]


def test_symmetric_base_eval_is_permutation_invariant():
    k = checker_kernel()
    reps = [F(1, 4), F(3, 4)]
    for pt in itertools.product(reps, repeat=2):
        for perm in itertools.permutations(pt):
            assert k.value_at(pt) == k.value_at(perm)


def test_symmetric_base_flag_rejects_asymmetric_grid():
    with pytest.raises(ContractError):
        StepKernel.from_flat(
            arity=2,
            resolution=2,
            space=BoundedInterval(F(1)),
            flat_values=[F(0), F(1), F(0), F(0)],
            symmetric_base=True,
        )


def test_symmetric_base_flag_rejects_a_grid_broken_only_by_a_three_cycle():
    # at block (0, 1, 2) both adjacent swaps agree and only the 3-cycle to
    # (1, 2, 0) differs; the swap check still finds it at a later block
    flat = [F(0)] * 27
    flat[1 * 9 + 2 * 3 + 0] = F(1)
    with pytest.raises(ContractError, match="not permutation symmetric"):
        StepKernel.from_flat(
            arity=3,
            resolution=3,
            space=BoundedInterval(F(1)),
            flat_values=flat,
            symmetric_base=True,
        )


# --- validation ---


def test_point_arity_checked():
    k = checker_kernel()
    with pytest.raises(ContractError):
        k.value_at((F(1, 2),))
    with pytest.raises(ContractError):
        k.value_at((F(1, 2), F(1, 2), F(1, 2)))


def test_point_range_checked():
    k = checker_kernel()
    with pytest.raises(DomainError):
        k.value_at((F(1), F(1, 2)))
    with pytest.raises(DomainError):
        k.value_at((F(-1, 2), F(1, 2)))


def test_base_must_cover_all_blocks():
    with pytest.raises(ContractError):
        StepKernel.from_flat(
            arity=2,
            resolution=2,
            space=BoundedInterval(F(1)),
            flat_values=[F(0), F(1), F(1)],
        )


def test_base_values_must_lie_in_space():
    with pytest.raises(ContractError):
        StepKernel.from_flat(
            arity=1,
            resolution=2,
            space=BoundedInterval(F(1)),
            flat_values=[F(0), F(2)],
        )


def test_exception_coord_range_checked():
    with pytest.raises(ContractError):
        checker_kernel((ExceptionPiece((CoordIs(3, F(1, 7)),), F(0)),))
    with pytest.raises(ContractError):
        checker_kernel((ExceptionPiece((CoordsEqual(1, 3),), F(0)),))


def test_exception_value_must_lie_in_space():
    with pytest.raises(ContractError):
        checker_kernel((ExceptionPiece((CoordsEqual(1, 2),), F(2)),))


def test_coords_equal_needs_two_distinct_coords():
    with pytest.raises(ContractError):
        CoordsEqual(2, 2)


# --- accessors ---


@st.composite
def guarded_case(draw):
    """Random step kernel with mixed override pieces, and guarded samples.

    Pieces have one or two conditions, ``CoordIs`` on fractions of small
    denominators or on the points themselves, ``CoordsEqual`` on any pair;
    the samples come from the guarded draw of the paper's construction
    (``helpers.draw_pools``) at m = the separating level times 2^level.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    arity = draw(st.integers(min_value=1, max_value=3))
    resolution = draw(st.integers(min_value=1, max_value=3))
    level = draw(st.integers(min_value=0, max_value=3))
    menu = [F(0), F(1, 2), F(1)]
    flat = [rng.choice(menu) for _ in range(resolution**arity)]
    points = sorted({F(rng.randrange(1, 60), 60) for _ in range(rng.randint(1, 3))})
    pieces = []
    for _ in range(rng.randrange(6)):
        conditions = []
        for _ in range(rng.randint(1, 2)):
            if arity >= 2 and rng.random() < 0.6:
                first, second = rng.sample(range(1, arity + 1), 2)
                conditions.append(CoordsEqual(first, second))
            else:
                q = rng.randint(2, 16)
                const = rng.choice(points + [F(rng.randrange(q), q)])
                conditions.append(CoordIs(rng.randint(1, arity), const))
        pieces.append(ExceptionPiece(tuple(conditions), rng.choice(menu)))
    kernel = StepKernel.from_flat(
        arity=arity,
        resolution=resolution,
        space=BoundedInterval(F(1)),
        flat_values=flat,
        exceptions=pieces,
    )
    m = separating_refinement(points, resolution) * 2**level
    pools = draw_pools(rng, kernel, points, 2, m)
    return kernel, [y for pool in pools for y in pool]


@given(guarded_case())
def test_generic_value_is_value_at_at_guarded_samples(case):
    kernel, samples = case
    for t in itertools.product(samples, repeat=kernel.arity):
        blocks = tuple(block_of(y, kernel.resolution) for y in t)
        assert kernel.generic_value(blocks, repeat_pattern(t)) == kernel.value_at(t)


def test_generic_value_takes_the_first_piece_the_pattern_satisfies():
    k = checker_kernel(
        (
            ExceptionPiece((CoordsEqual(1, 2), CoordIs(1, F(1, 7))), F(1, 4)),
            ExceptionPiece((CoordsEqual(2, 1),), F(1, 2)),
            ExceptionPiece((CoordsEqual(1, 2),), F(3, 4)),
        )
    )
    assert k.generic_value((0, 0), (0, 0)) == F(1, 2)
    assert k.generic_value((0, 1), (0, 1)) == F(1)
    assert k.generic_value((1, 1), (0, 1)) == F(0)


def test_exception_constants():
    k = checker_kernel(
        (
            ExceptionPiece((CoordIs(1, F(1, 7)), CoordIs(2, F(2, 7))), F(0)),
            ExceptionPiece((CoordsEqual(1, 2),), F(1)),
        )
    )
    assert k.exception_constants() == frozenset({F(1, 7), F(2, 7)})
    assert checker_kernel().exception_constants() == frozenset()


def test_with_exceptions_appends_and_preserves():
    base = checker_kernel((ExceptionPiece((CoordsEqual(1, 2),), F(1)),))
    extra = ExceptionPiece((CoordIs(1, F(1, 7)),), F(0))
    grown = base.with_exceptions((extra,))
    assert len(grown.exceptions) == 2
    assert grown.exceptions[0] == base.exceptions[0]
    assert grown.symmetric_base
    assert grown.base == base.base
    # the original is untouched
    assert len(base.exceptions) == 1
