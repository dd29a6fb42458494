import math

import pytest
from hypothesis import given, strategies as st

from monoapprox.haar_basis import (
    LEVEL_BOTTOM,
    MultiIndex,
    cell_of_point,
    enumerate_indices,
    index_set_size,
    psi_1d,
    psi_d,
    split_index,
)

SQRT2 = math.sqrt(2.0)


def test_split_index_sentinel_and_small_values():
    assert split_index(0) == (LEVEL_BOTTOM, 0)
    assert split_index(1) == (0, 0)
    assert split_index(5) == (2, 1)


@given(st.integers(1, 10**9))
def test_split_index_roundtrip(alpha):
    level, shift = split_index(alpha)
    assert alpha == (1 << level) + shift
    assert 0 <= shift < (1 << level)


def test_split_index_rejects_negative():
    with pytest.raises(ValueError):
        split_index(-1)


def test_cell_of_point_examples():
    assert cell_of_point(1.0, 3) == 7
    assert cell_of_point(0.0, 3) == 0
    assert cell_of_point(0.5, 1) == 1
    with pytest.raises(ValueError):
        cell_of_point(-0.1, 2)
    with pytest.raises(ValueError):
        cell_of_point(1.1, 2)


@given(st.floats(0.0, 1.0), st.integers(0, 12))
def test_cell_of_point_agrees_with_interval_membership(x, level):
    # Cell c at level l is [c 2^-l, (c+1) 2^-l); the last cell is closed at 1.
    cell = cell_of_point(x, level)
    last = (1 << level) - 1
    assert 0 <= cell <= last
    assert cell * 2.0**-level <= x
    assert x < (cell + 1) * 2.0**-level or (cell == last and x == 1.0)


def test_psi_1d_examples():
    assert psi_1d(0, 0.3) == 1.0
    assert psi_1d(1, 0.25) == -1.0
    assert psi_1d(1, 0.75) == 1.0
    assert psi_1d(2, 0.3) == pytest.approx(SQRT2)
    assert psi_1d(2, 0.1) == pytest.approx(-SQRT2)
    assert psi_1d(2, 0.6) == 0.0


def test_psi_1d_right_endpoint_of_domain():
    # x = 1 belongs to the closed last interval at every level.
    for r in range(1, 5):
        assert psi_1d((1 << r) * 2 - 1, 1.0) == pytest.approx(2.0 ** (r / 2))


def test_psi_d_examples():
    assert psi_d(MultiIndex.of(0, 0), (0.9, 0.1)) == 1.0
    assert psi_d(MultiIndex.of(1, 0), (0.75, 0.2)) == 1.0
    assert psi_d(MultiIndex.of(1, 1), (0.75, 0.25)) == -1.0
    with pytest.raises(ValueError):
        psi_d(MultiIndex.of(1, 1), (0.5,))


@given(st.integers(1, 3), st.data())
def test_psi_d_normalization(d, data):
    alphas = tuple(data.draw(st.integers(0, 15)) for _ in range(d))
    x = tuple(data.draw(st.floats(0.0, 1.0)) for _ in range(d))
    index = MultiIndex(alphas)
    value = psi_d(index, x)
    if value != 0.0:
        assert value**2 * index.support_volume == pytest.approx(1.0, abs=1e-12)


def test_multi_index_properties():
    index = MultiIndex.of(0, 5, 1)
    assert index.active_count == 2
    assert index.level_sum == 2  # levels 2 and 0
    assert index.support_volume == 0.25


def test_enumerate_indices_small_case():
    got = {i.alphas for i in enumerate_indices(2, 1, 1)}
    assert got == {(0, 0), (1, 0), (0, 1)}


def test_enumerate_indices_counts():
    assert sum(1 for _ in enumerate_indices(3, 2, 2)) == 37
    assert [i.alphas for i in enumerate_indices(1, 0, 5)] == [(0,)]


def test_enumerate_indices_yields_each_once():
    seen = list(enumerate_indices(3, 3, 2))
    assert len(seen) == len(set(seen))
    assert all(i.active_count <= 3 and max(i.alphas) < 4 for i in seen)


def test_enumerate_indices_rejects_bad_parameters():
    with pytest.raises(ValueError):
        list(enumerate_indices(2, 3, 1))
    with pytest.raises(ValueError):
        list(enumerate_indices(2, 1, 0))


def test_index_set_size_examples():
    assert index_set_size(2, 1, 1).exact == 3
    size = index_set_size(3, 2, 2)
    assert size.exact == 37
    assert size.bound == pytest.approx(16 * (3 * math.e / 2) ** 2, rel=1e-12)
    assert index_set_size(7, 0, 3).exact == 1
    assert index_set_size(20, 20, 50) == (2 ** 1000, math.inf)  # the bound past the float range
