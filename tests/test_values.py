"""Value spaces, metric axioms, and epsilon cell partitions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kernel_repair.errors import ContractError, DomainError
from kernel_repair.values import (
    INFINITY,
    BoundedInterval,
    CompactifiedRay,
    FiniteMetric,
    epsilon_partition,
    value_from_text,
    value_to_text,
)

F = Fraction

TWO_POINT = FiniteMetric(labels=("0", "1"), distances=((F(0), F(1)), (F(1), F(0))))

THREE_POINT = FiniteMetric(
    labels=("a", "b", "c"),
    distances=(
        (F(0), F(1, 4), F(1)),
        (F(1, 4), F(0), F(1)),
        (F(1), F(1), F(0)),
    ),
)

SPACES = (TWO_POINT, THREE_POINT, BoundedInterval(F(1)), BoundedInterval(F(3)), CompactifiedRay())


def random_value(space, rng):
    if isinstance(space, FiniteMetric):
        return rng.choice(space.labels)
    if isinstance(space, BoundedInterval):
        return F(rng.randrange(0, 49), 48) * space.diameter / F(1)
    if rng.random() < 0.1:
        return INFINITY
    return F(rng.randrange(0, 200), 7)


# --- finite metric validation ---


def test_finite_metric_rejects_asymmetry():
    with pytest.raises(ContractError):
        FiniteMetric(labels=("a", "b"), distances=((F(0), F(1)), (F(2), F(0))))


def test_finite_metric_rejects_zero_off_diagonal():
    with pytest.raises(ContractError):
        FiniteMetric(labels=("a", "b"), distances=((F(0), F(0)), (F(0), F(0))))


def test_finite_metric_rejects_triangle_violation():
    with pytest.raises(ContractError):
        FiniteMetric(
            labels=("a", "b", "c"),
            distances=(
                (F(0), F(1), F(3)),
                (F(1), F(0), F(1)),
                (F(3), F(1), F(0)),
            ),
        )


def test_finite_metric_rejects_nonzero_diagonal():
    with pytest.raises(ContractError):
        FiniteMetric(labels=("a",), distances=((F(1),),))


def test_finite_metric_unknown_label():
    with pytest.raises(DomainError):
        TWO_POINT.dist("0", "x")


# --- metric axioms ---


@pytest.mark.parametrize("space", SPACES, ids=lambda s: type(s).__name__)
def test_dist_is_a_metric(space):
    """Symmetry, identity of indiscernibles, triangle inequality."""
    rng = random.Random(f"metric:{type(space).__name__}")
    values = [random_value(space, rng) for _ in range(12)]
    for a in values:
        assert space.dist(a, a) == 0
        for b in values:
            d = space.dist(a, b)
            assert d >= 0
            assert d == space.dist(b, a)
            if a != b:
                assert d > 0 or space.dist(a, b) == 0  # distinct labels never at 0
            for c in values:
                assert space.dist(a, c) <= d + space.dist(b, c)


def test_ray_chart_frozen_values():
    ray = CompactifiedRay()
    assert ray.chart(F(1)) == F(1, 2)
    assert ray.chart(F(3)) == F(3, 4)
    assert ray.chart(INFINITY) == 1
    assert ray.dist(F(1), INFINITY) == F(1, 2)
    assert ray.dist(F(0), INFINITY) == 1
    assert ray.chart_inverse(F(3, 4)) == F(3)
    assert ray.chart_inverse(F(1)) == INFINITY


def test_interval_contains():
    space = BoundedInterval(F(2))
    assert space.contains(F(2))
    assert space.contains(0)
    assert not space.contains(F(5, 2))
    assert not space.contains(F(-1, 2))


def test_ray_contains_infinity():
    ray = CompactifiedRay()
    assert ray.contains(INFINITY)
    assert ray.contains(F(10**9))
    assert not ray.contains(F(-1))


# --- partitions ---


def test_interval_partition_frozen():
    part = epsilon_partition(BoundedInterval(F(1)), F(3, 10))
    # width 3/20 over span 1: ceil(20/3) = 7 cells
    assert part.cell_count == 7
    assert part.cell_of(F(31, 100)) == 2
    assert part.cell_of(F(0)) == 0
    assert part.cell_of(F(1)) == 6  # endpoint folds into the last bin


def test_ray_partition_frozen():
    part = epsilon_partition(CompactifiedRay(), F(1, 2))
    assert part.cell_count == 4
    assert part.cell_of(F(0)) == 0
    assert part.cell_of(INFINITY) == 3


def test_two_point_metric_partition_is_singletons():
    part = epsilon_partition(TWO_POINT, F(1, 2))
    assert part.cell_count == 2
    assert part.cell_of("0") != part.cell_of("1")


def test_partition_rejects_nonpositive_epsilon():
    with pytest.raises(ContractError):
        epsilon_partition(BoundedInterval(F(1)), F(0))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("eps", [F(1, 2), F(1, 10), F(2, 7)])
def test_same_cell_pairs_are_closer_than_epsilon(space, eps):
    """1000 random pairs: landing in one cell bounds the distance below eps."""
    part = epsilon_partition(space, eps)
    rng = random.Random(f"cells:{type(space).__name__}:{eps}")
    for _ in range(1000):
        a, b = random_value(space, rng), random_value(space, rng)
        if part.cell_of(a) == part.cell_of(b):
            assert space.dist(a, b) < eps


@pytest.mark.parametrize("space", SPACES, ids=lambda s: type(s).__name__)
def test_cell_of_is_total(space):
    part = epsilon_partition(space, F(1, 5))
    rng = random.Random(f"total:{type(space).__name__}")
    for _ in range(200):
        idx = part.cell_of(random_value(space, rng))
        assert 0 <= idx < part.cell_count


# --- text round trips ---


@pytest.mark.parametrize("space", SPACES, ids=lambda s: type(s).__name__)
def test_value_text_roundtrip(space):
    rng = random.Random(f"text:{type(space).__name__}")
    for _ in range(50):
        v = random_value(space, rng)
        assert value_from_text(space, value_to_text(space, v)) == v


def test_infinity_text_only_on_ray():
    assert value_to_text(CompactifiedRay(), INFINITY) == "inf"
    with pytest.raises(DomainError):
        value_from_text(BoundedInterval(F(1)), "inf")


def test_value_text_rejects_out_of_space():
    with pytest.raises(DomainError):
        value_from_text(BoundedInterval(F(1)), "3/2")
    with pytest.raises(DomainError):
        value_from_text(TWO_POINT, "nope")
