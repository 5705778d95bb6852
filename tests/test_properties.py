"""Property tests on random column sets: convolution paths, field algebra, reflection."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rnlab.grid import (
    FrequencyGrid,
    _convolve_dense,
    conjugate_reflect,
    random_field,
    spacetime_convolve,
)

# one grid per dimension, small enough for dozens of examples
GRIDS = (FrequencyGrid.for_box(1, 6, 0.5), FrequencyGrid.for_box(2, 3, 0.5))

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def fields(draw, grid, max_columns=None):
    """Seeded random field on a drawn set of distinct box columns."""
    limit = grid.box_count if max_columns is None else max_columns
    keys = draw(st.lists(st.integers(0, grid.box_count - 1), min_size=1,
                         max_size=limit, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_field(grid, np.random.default_rng(seed), columns=grid.box_index[keys])


@st.composite
def field_pairs(draw, max_first_columns=None):
    grid = draw(st.sampled_from(GRIDS))
    return draw(fields(grid, max_first_columns)), draw(fields(grid))


def _keys(u):
    return u.grid.flat_keys(u.index)


class TestConvolutionPaths:
    @PROPERTY
    @given(field_pairs(max_first_columns=8))
    def test_sparse_equals_dense(self, pair):
        f, g = pair
        via_sparse = spacetime_convolve(f, g)  # f has at most 8 columns
        via_dense = _convolve_dense(f, g, None)
        # a product that leaves the box is zero on the sparse path and FFT
        # round-off on the dense one, so the inputs' scale is the floor
        scale = max(via_dense.max_abs(), f.grid.tau_step * f.max_abs() * g.max_abs())
        assert (via_sparse - via_dense).max_abs() <= 1e-12 * scale


class TestFieldAlgebra:
    @PROPERTY
    @given(field_pairs())
    def test_sum_commutes_bitwise(self, pair):
        a, b = pair
        ab, ba = a + b, b + a
        assert np.array_equal(ab.index, ba.index)
        assert np.array_equal(ab.data, ba.data)
        back, forth = a - b, b - a
        assert np.array_equal(back.index, forth.index)
        assert np.array_equal(back.data, -forth.data)

    @PROPERTY
    @given(field_pairs())
    def test_columns_are_the_union(self, pair):
        a, b = pair
        union = np.union1d(_keys(a), _keys(b))
        for total, sign in ((a + b, 1.0), (a - b, -1.0)):
            assert np.array_equal(_keys(total), union)
            for n, row in zip(total.index, total.data):
                assert np.array_equal(row, a.column(n) + sign * b.column(n))


class TestConjugateReflect:
    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(fields))
    def test_involution_bitwise(self, u):
        once = conjugate_reflect(u)
        assert np.array_equal(np.sort(_keys(once)), np.sort(u.grid.flat_keys(-u.index)))
        twice = conjugate_reflect(once)
        assert np.array_equal(twice.index, u.index)
        assert np.array_equal(twice.data, u.data)

