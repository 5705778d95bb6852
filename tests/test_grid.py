"""Spectral core: brackets, projectors, reflection, convolution."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from rnlab import grid as grid_module
from rnlab.grid import (
    DyadicBlock,
    FrequencyGrid,
    SpaceTimeField,
    _block_rows,
    _fftn,
    _ifftn,
    _next_fast_len,
    _row_blocks,
    conjugate_reflect,
    dyadic_blocks,
    japanese_bracket,
    project_dyadic,
    project_modulation,
    random_field,
    spacetime_convolve,
    steps_per_unit,
)


class TestRowBlocks:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 80), st.integers(grid_module._BLOCK_BYTES // 12,
                                           2 * grid_module._BLOCK_BYTES))
    def test_one_partition(self, count, row_bytes):
        # blocks of 2 to 12 rows: in order, over every row, none over one row
        # more than a block, none a lone row unless the count is 1; no rows
        # are one empty block
        blocks = _row_blocks(count, row_bytes)
        assert [(rows.start, rows.step) for rows in blocks[:1]] == [(0, None)]
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert blocks[-1].stop == count
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(size == _block_rows(row_bytes) for size in sizes[:-1])
        assert sizes[-1] <= _block_rows(row_bytes) + 1
        assert 1 not in sizes or count == 1
        assert count or sizes == [0]


class TestJapaneseBracket:
    def test_zero(self):
        assert japanese_bracket(0.0) == 1.0

    def test_even(self, rng):
        x = rng.standard_normal(50) * 10
        assert np.array_equal(japanese_bracket(x), japanese_bracket(-x))

    def test_value_at_three(self):
        # sqrt(10), frozen from direct evaluation
        assert japanese_bracket(3.0) == pytest.approx(3.1622776601683795, abs=1e-15)

    def test_at_least_one(self, rng):
        assert (japanese_bracket(rng.standard_normal(100) * 100) >= 1.0).all()


class TestModulation:
    @pytest.mark.parametrize("n, tau, expected",
                             [([0, 0], 0.0, 0.0), ([8, 0], -64.0, 0.0), ([1, 1], 3.0, 5.0)],
                             ids=["origin", "on_paraboloid", "signed"])
    def test_mod_array(self, n, tau, expected):
        # signed distance tau + |n|^2 from the paraboloid at the entry (n, tau)
        grid = FrequencyGrid.for_box(2, 8, 0.25)
        u = SpaceTimeField.from_columns(grid, [n], np.zeros((1, grid.n_tau)))
        assert u.mod_array()[0, grid.tau_index(tau)] == expected


class TestFrequencyGrid:
    def test_window_invariant_enforced(self):
        with pytest.raises(ValueError, match="must contain"):
            FrequencyGrid(2, 4, 10.0, 0.25)

    def test_step_divides_window(self):
        with pytest.raises(ValueError, match="finite integer multiple"):
            FrequencyGrid(1, 1, 6.01, 0.25)

    def test_tau_nodes_symmetric(self, small_grid):
        nodes = small_grid.tau_nodes
        assert np.array_equal(nodes, -nodes[::-1])
        assert nodes[small_grid.half_index] == 0.0

    def test_trapezoid_weights(self, small_grid):
        w = small_grid.tau_weights
        assert w[0] == w[-1] == small_grid.tau_step / 2
        assert np.all(w[1:-1] == small_grid.tau_step)
        assert w.sum() == pytest.approx(2 * small_grid.tau_max)

    def test_box_enumeration(self):
        g = FrequencyGrid.for_box(2, 1, 0.25)
        assert g.box_count == 9
        assert g.box_index[0].tolist() == [-1, -1]
        assert g.box_index[-1].tolist() == [1, 1]
        keys = g.flat_keys(g.box_index)
        assert np.array_equal(keys, np.arange(9))
        assert np.array_equal(g.index_from_keys(keys), g.box_index)

    def test_steps_per_unit(self):
        assert [steps_per_unit(h) for h in (1.0, 0.5, 0.25, 1 / 3)] == [1, 2, 4, 3]
        # 1 / tau_step must be a positive integer: 1/inf rounds to 0, 1/5e-324 is inf
        for tau_step in (0.3, 0.4, 2.0, math.inf, 5e-324, math.nan):
            with pytest.raises(ValueError, match="divides 1"):
                steps_per_unit(tau_step)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            FrequencyGrid(3, 2, 100.0, 0.25)


class TestFieldBasics:
    def test_finite_enforced(self, small_grid):
        # data is checked where it enters, not on every field built from fields
        data = np.full((1, small_grid.n_tau), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            SpaceTimeField.from_columns(small_grid, [[0, 0]], data)

    def test_out_of_box_rejected(self, small_grid):
        with pytest.raises(ValueError, match="outside the grid box"):
            SpaceTimeField.from_columns(small_grid, [[99, 0]],
                                        np.zeros((1, small_grid.n_tau)))

    @pytest.mark.parametrize("box, tau_step", [((2, 4), 0.25), ((1, 8), 0.25), ((2, 3), 0.5)])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_random_field_draws_the_bytes_of_a_plus_1j_b(self, box, tau_step, seed):
        # the real and imaginary parts are set from the two draws in place,
        # without the complex temporaries of a + 1j * b, and keep its bytes
        grid = FrequencyGrid.for_box(*box, tau_step=tau_step)
        for columns in (None, grid.box_index[::-2]):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            ns = grid.box_index if columns is None else columns
            want = ref.standard_normal((len(ns), grid.n_tau)) \
                + 1j * ref.standard_normal((len(ns), grid.n_tau))
            got = random_field(grid, rng, columns=columns)
            want = SpaceTimeField.from_columns(grid, ns, want)
            assert got.data.tobytes() == want.data.tobytes()
            assert np.array_equal(got.index, want.index)
            assert rng.standard_normal() == ref.standard_normal()

    def test_algebra(self, small_grid, rng):
        u = random_field(small_grid, rng)
        v = random_field(small_grid, rng)
        w = 2.0 * u - v
        assert np.allclose(w.data, 2.0 * u.data - v.data)

    def test_sparse_plus_dense_alignment(self, small_grid, rng):
        sparse = SpaceTimeField.from_columns(
            small_grid, [[2, -1]], rng.standard_normal((1, small_grid.n_tau)))
        dense = random_field(small_grid, rng)
        total = sparse + dense
        assert total.n_columns == dense.n_columns
        assert np.allclose(total.column([2, -1]),
                           sparse.column([2, -1]) + dense.column([2, -1]))

    def test_from_columns_owns_its_arrays(self, small_grid, rng):
        # sorted columns skip the argsort, but must not alias the caller's arrays
        ns = np.array([[-1, 2], [0, 0], [3, 1]])
        data = rng.standard_normal((3, small_grid.n_tau)) + 0j
        u = SpaceTimeField.from_columns(small_grid, ns, data)
        kept_ns, kept_data = ns.copy(), data.copy()
        ns[:] = 0
        data[:] = 7.0
        assert np.array_equal(u.index, kept_ns)
        assert np.array_equal(u.data, kept_data)

    def test_from_columns_without_copy_keeps_sorted_rows(self, small_grid, rng):
        # copy=False: rows in increasing key order become the field's data;
        # unsorted rows are still gathered into a new array
        ns = np.array([[-1, 2], [0, 0], [3, 1]])
        data = rng.standard_normal((3, small_grid.n_tau)) + 0j
        u = SpaceTimeField.from_columns(small_grid, ns, data, copy=False)
        assert np.shares_memory(u.data, data)
        v = SpaceTimeField.from_columns(small_grid, ns[::-1], data[::-1], copy=False)
        assert not np.shares_memory(v.data, data)
        assert np.array_equal(v.data, data)
        with pytest.raises(ValueError, match="non-finite"):
            SpaceTimeField.from_columns(small_grid, ns, np.full_like(data, np.nan), copy=False)

    def test_random_field_holds_one_field(self):
        # the draw is the field's data: the field and one float draw of its
        # parts are traced (1.50 fields), where from_columns' copy made 2.06
        grid = FrequencyGrid.for_box(1, 16, 0.25)
        field = grid.box_count * grid.n_tau * 16
        tracemalloc.start()
        try:
            u = random_field(grid, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.data.nbytes == field
        assert peak <= 1.6 * field, f"peak {peak / field:.2f} fields"

    @pytest.mark.parametrize("rows", [5, 7, 10])
    def test_random_field_draws_a_row_block_at_a_time(self, rows, monkeypatch):
        # every real part, then every imaginary part, a block of ``rows`` of
        # the 33 rows at a time: the bytes of one whole draw, and the field
        # with one block of floats (1.08-1.15 fields measured; one whole
        # float draw of a part made it 1.50)
        grid = FrequencyGrid.for_box(1, 16, 0.25)
        field = grid.box_count * grid.n_tau * 16
        whole = random_field(grid, np.random.default_rng(4))
        monkeypatch.setattr(grid_module, "_BLOCK_BYTES", rows * 8 * grid.n_tau)
        assert len(grid_module._row_blocks(grid.box_count, 8 * grid.n_tau)) > 2
        tracemalloc.start()
        try:
            u = random_field(grid, np.random.default_rng(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.data.tobytes() == whole.data.tobytes()
        assert peak <= 1.2 * field, f"peak {peak / field:.2f} fields"

    @pytest.mark.parametrize("d", [1, 2])
    def test_from_columns_shuffled_equals_sorted(self, d, rng):
        grid = FrequencyGrid.for_box(d, 3, 0.5)
        keys = np.sort(rng.choice(grid.box_count, size=min(9, grid.box_count), replace=False))
        data = rng.standard_normal((len(keys), grid.n_tau)) + 1j
        perm = rng.permutation(len(keys))
        ns = grid.index_from_keys(keys)
        shuffled = SpaceTimeField.from_columns(grid, ns[perm], data[perm])
        ordered = SpaceTimeField.from_columns(grid, ns, data)
        assert np.array_equal(shuffled.index, ordered.index)
        assert np.array_equal(shuffled.data, ordered.data)
        assert np.array_equal(ordered.data, data)

    def test_column_lookup_missing_is_zero(self, small_grid):
        u = SpaceTimeField.zero(small_grid)
        assert not u.column([1, 1]).any()


class TestDyadicProjection:
    def test_block_membership(self, small_grid):
        # mode (3,0): 2 < |n| <= 4 so block 4 keeps it
        u = SpaceTimeField.from_columns(small_grid, [[3, 0]],
                                        np.ones((1, small_grid.n_tau)))
        kept = project_dyadic(u, DyadicBlock(4))
        assert np.array_equal(kept.data, u.data)
        assert project_dyadic(u, DyadicBlock(2)).n_columns == 0

    def test_block_one_keeps_origin(self, small_grid):
        u = SpaceTimeField.from_columns(small_grid, [[0, 0]],
                                        np.ones((1, small_grid.n_tau)))
        assert np.array_equal(project_dyadic(u, DyadicBlock(1)).data, u.data)

    def test_partition_of_unity(self, small_grid, rng):
        u = random_field(small_grid, rng)
        total = SpaceTimeField.zero(small_grid)
        for blk in dyadic_blocks(small_grid):
            total = total + project_dyadic(u, blk)
        assert np.array_equal(total.index, u.index)
        assert np.array_equal(total.data, u.data)

    def test_blocks_cover_grid_diameter(self, small_grid):
        largest = dyadic_blocks(small_grid)[-1]
        assert largest.N ** 2 >= small_grid.dimension * small_grid.n_max ** 2

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError, match="dyadic"):
            DyadicBlock(3)


class TestModulationProjection:
    def test_origin_column_all_hi(self, small_grid):
        u = SpaceTimeField.from_columns(small_grid, [[0, 0]],
                                        np.ones((1, small_grid.n_tau)))
        assert project_modulation(u, "lo").max_abs() == 0.0
        assert np.array_equal(project_modulation(u, "hi").data, u.data)

    def test_on_paraboloid_is_lo(self):
        grid = FrequencyGrid.for_box(2, 64, 0.25)
        prof = np.zeros(grid.n_tau)
        prof[grid.tau_index(-64.0**2)] = 1.0
        u = SpaceTimeField.from_columns(grid, [[64, 0]], prof[None, :])
        assert np.array_equal(project_modulation(u, "lo").data, u.data)

    def test_high_modulation_is_hi(self):
        grid = FrequencyGrid.for_box(2, 64, 0.25)
        prof = np.zeros(grid.n_tau)
        prof[grid.tau_index(+64.0**2)] = 1.0  # modulation 2 N^2
        u = SpaceTimeField.from_columns(grid, [[64, 0]], prof[None, :])
        assert np.array_equal(project_modulation(u, "hi").data, u.data)

    def test_exact_partition(self, sample_field):
        lo = project_modulation(sample_field, "lo")
        hi = project_modulation(sample_field, "hi")
        back = lo + hi
        assert np.array_equal(back.data, sample_field.data)
        assert not np.abs(lo.data * hi.data).any()


class TestConjugateReflect:
    def test_involution(self, sample_field):
        twice = conjugate_reflect(conjugate_reflect(sample_field))
        assert np.array_equal(twice.index, sample_field.index)
        assert np.array_equal(twice.data, sample_field.data)

    def test_support_arithmetic(self):
        grid = FrequencyGrid.for_box(2, 8, 0.25)
        sigma = 0.75
        prof = np.zeros(grid.n_tau)
        prof[grid.tau_index(-64.0 + sigma)] = 1.0
        u = SpaceTimeField.from_columns(grid, [[8, 0]], prof[None, :])
        r = conjugate_reflect(u)
        assert r.index.tolist() == [[-8, 0]]
        col = r.column([-8, 0])
        assert col[grid.tau_index(64.0 - sigma)] == 1.0
        assert np.count_nonzero(col) == 1

    def test_real_even_fixed_point(self, small_grid):
        # a field that is real and symmetric under (n, tau) -> (-n, -tau)
        base = np.zeros((small_grid.box_count, small_grid.n_tau))
        u = SpaceTimeField(small_grid, small_grid.box_index.copy(), base + 0j)
        u.data[:] = np.arange(small_grid.n_tau)[None, :]
        sym = 0.5 * (u + conjugate_reflect(u))
        again = conjugate_reflect(sym)
        assert np.allclose(again.data, sym.data, atol=1e-15)


class TestConvolution:
    def test_grid_mismatch(self, small_grid, rng):
        other = FrequencyGrid.for_box(2, 4, 0.5)
        with pytest.raises(ValueError, match="grid mismatch"):
            spacetime_convolve(random_field(small_grid, rng), random_field(other, rng))

    def test_zero_factor(self, small_grid, rng):
        u = random_field(small_grid, rng)
        assert spacetime_convolve(u, SpaceTimeField.zero(small_grid)).n_columns == 0

    def test_single_mode_addition(self, small_grid):
        prof = np.zeros(small_grid.n_tau)
        prof[small_grid.tau_index(0.0)] = 1.0
        f = SpaceTimeField.from_columns(small_grid, [[1, 0]], prof[None, :])
        g = SpaceTimeField.from_columns(small_grid, [[2, 1]], prof[None, :])
        out = spacetime_convolve(f, g)
        assert out.index.tolist() == [[3, 1]]

    def test_commutative(self, small_grid, rng):
        f = random_field(small_grid, rng)
        g = random_field(small_grid, rng)
        d = spacetime_convolve(f, g) - spacetime_convolve(g, f)
        assert d.max_abs() < 1e-12 * spacetime_convolve(f, g).max_abs()

    def test_bilinear(self, small_grid, rng):
        f, g, h = (random_field(small_grid, rng) for _ in range(3))
        alpha = 1.7 - 0.3j
        left = spacetime_convolve(alpha * f + g, h)
        right = alpha * spacetime_convolve(f, h) + spacetime_convolve(g, h)
        assert (left - right).max_abs() <= 1e-12 * left.max_abs()

    def test_sparse_equals_dense_path(self, rng):
        # a 2-column field convolved against a full field, both code paths
        grid = FrequencyGrid.for_box(2, 2, 0.5)
        dense_a = random_field(grid, rng)
        dense_b = random_field(grid, rng)
        mask = np.zeros(dense_a.n_columns, bool)
        mask[[3, 11]] = True
        sparse_a = SpaceTimeField(grid, dense_a.index[mask], dense_a.data[mask])
        zero_fill = dense_a.data.copy()
        zero_fill[~mask] = 0.0
        dense_a_masked = SpaceTimeField(grid, dense_a.index.copy(), zero_fill)
        via_sparse = spacetime_convolve(sparse_a, dense_b)
        via_dense = spacetime_convolve(dense_a_masked, dense_b)
        diff = via_sparse - via_dense
        assert diff.max_abs() < 1e-12 * via_dense.max_abs()

    def test_dropped_masses_independent_of_stored_columns(self):
        # two (f, g) pairs land on each of several dropped output columns;
        # the masses are per output column, so zero-filling changes nothing
        grid = FrequencyGrid.for_box(2, 3, 0.5)
        f = random_field(grid, np.random.default_rng(0), columns=[[-2, 3], [-1, 3]])
        g = random_field(grid, np.random.default_rng(1),
                         columns=[[-1, 2], [0, 2], [1, 2], [3, -2]])
        got, want = {}, {}
        spacetime_convolve(f, g, got)
        spacetime_convolve(*(SpaceTimeField(grid, grid.box_index.copy(), u.box_array())
                             for u in (f, g)), want)
        for key in ("dropped_spatial_mass", "dropped_tau_mass"):
            assert want[key] > 0.0
            assert got[key] == pytest.approx(want[key], rel=1e-12)

    def test_spatial_truncation_reported(self, rng):
        grid = FrequencyGrid.for_box(2, 1, 0.5)
        prof = np.zeros(grid.n_tau)
        prof[grid.tau_index(0.0)] = 1.0
        f = SpaceTimeField.from_columns(grid, [[1, 0]], prof[None, :])
        report = {}
        out = spacetime_convolve(f, f, report)
        # 1+1 = 2 escapes the n_max=1 box entirely
        assert out.n_columns == 0
        assert report["dropped_spatial_mass"] > 0.0

    def test_tent_against_quadrature_oracle(self, rng):
        # independent oracle: explicit trapezoid quadrature of the shifted
        # product of two random compactly supported profiles
        grid = FrequencyGrid.for_box(1, 1, 0.25)
        M, h = grid.n_tau, grid.tau_step
        pa = np.zeros(M, complex)
        pb = np.zeros(M, complex)
        sl = slice(grid.tau_index(-2.0), grid.tau_index(2.0) + 1)
        pa[sl] = rng.standard_normal(sl.stop - sl.start)
        pb[sl] = rng.standard_normal(sl.stop - sl.start)
        f = SpaceTimeField.from_columns(grid, [[1]], pa[None, :])
        g = SpaceTimeField.from_columns(grid, [[-1]], pb[None, :])
        out = spacetime_convolve(f, g).column([0])
        for j in [grid.tau_index(-1.0), grid.tau_index(0.0), grid.tau_index(2.5)]:
            tau = grid.tau_nodes[j]
            shifted = np.interp(tau - grid.tau_nodes, grid.tau_nodes, pb.real,
                                left=0.0, right=0.0)
            expected = np.sum(grid.tau_weights * pa.real * shifted)
            assert out[j].real == pytest.approx(expected, abs=1e-10)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTransformsAgainstScipy:
    """rnlab's transforms run on numpy.fft; scipy.fft, the path they replaced,
    is the oracle, and the check is bitwise (the reports are byte-stable)."""

    # the transform lengths in use: the d=1 spatial workspace, the picard_1d
    # tau workspace, the tent convolution of its window and the lattice transform
    SIZES = (132, 32928, 49392, 395136)

    def test_next_fast_len(self):
        for n in list(range(1, 20001)) + list(self.SIZES):
            assert _next_fast_len(n) == sfft.next_fast_len(n), n

    @pytest.mark.parametrize("n", SIZES)
    def test_fft_and_ifft_at_lengths_in_use(self, rng, n):
        x = rng.standard_normal((2, 1500)) + 1j * rng.standard_normal((2, 1500))
        assert _same_bits(np.fft.fft(x, n=n, axis=1), sfft.fft(x, n=n, axis=1))
        y = sfft.fft(x, n=n, axis=1)
        assert _same_bits(np.fft.ifft(y, axis=1), sfft.ifft(y, axis=1))

    @pytest.mark.parametrize("shape, s", [((17, 90), (33,)), ((9, 7, 40), (20, 14)),
                                          ((5, 9, 33), (9, 18))])
    def test_padded_fftn_and_ifftn(self, rng, shape, s):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(len(s)))
        spectrum = sfft.fftn(x, s=s, axes=axes)
        assert _same_bits(_fftn(x, s), spectrum)
        assert _same_bits(_ifftn(spectrum.copy(), len(s)), sfft.ifftn(spectrum, axes=axes))

    def test_in_place_ifft_on_a_column_slice(self, rng):
        x = rng.standard_normal((30, 80)) + 1j * rng.standard_normal((30, 80))
        rows = x[:, 5:70]
        expected = sfft.ifft(rows, axis=1)
        out = np.fft.ifft(rows, axis=1, out=rows)
        assert out is rows and _same_bits(np.ascontiguousarray(rows), expected)
