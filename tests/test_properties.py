"""Property tests on random column sets and tau-supports.

Convolution paths, the convolution and norms of span-stored fields against
their full-window oracles, field algebra, reflection.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from rnlab.grid import (
    FrequencyGrid,
    SpaceTimeField,
    _padded_product,
    conjugate_reflect,
    random_field,
    spacetime_convolve,
)
from rnlab import grid as grid_module
from rnlab import norms
from rnlab.norms import (
    NormParams,
    _z_apply,
    apply_modulation_weight,
    energy_l2l1,
    xsb_norm,
    ysb_norm,
    zsb_norm,
)
from rnlab.solver import PicardPlan

from oracles import conjugate_reflect_by_argsort

# one grid per dimension, small enough for dozens of examples
GRIDS = (FrequencyGrid.for_box(1, 6, 0.5), FrequencyGrid.for_box(2, 3, 0.5))

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def fields(draw, grid, max_columns=None, min_columns=1):
    """Seeded random field on a drawn set of distinct box columns."""
    limit = grid.box_count if max_columns is None else max_columns
    keys = draw(st.lists(st.integers(0, grid.box_count - 1), min_size=min_columns,
                         max_size=limit, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_field(grid, np.random.default_rng(seed), columns=grid.box_index[keys])


@st.composite
def field_pairs(draw, max_first_columns=None):
    grid = draw(st.sampled_from(GRIDS))
    return draw(fields(grid, max_first_columns)), draw(fields(grid))


@st.composite
def tau_supports(draw, u):
    """u with each column zeroed outside its own drawn [a, b) (edges and empty likely)."""
    M = u.grid.n_tau
    lo = st.one_of(st.just(0), st.integers(0, M))
    hi = st.one_of(st.just(M), st.integers(0, M))
    for row in u.data:
        a, b = sorted((draw(lo), draw(hi)))
        row[:a] = 0.0
        row[b:] = 0.0
    return u


@st.composite
def partial_field_pairs(draw):
    f, g = draw(field_pairs(max_first_columns=8))
    return draw(tau_supports(f)), draw(tau_supports(g))


def _keys(u):
    return u.grid.flat_keys(u.index)


def _convolve_window_oracle(f, g, report):
    """Per-column convolution over the whole window, every pair at length 2M-1."""
    grid = f.grid
    if f.n_columns > g.n_columns:
        f, g = g, f
    M = grid.n_tau
    half = grid.half_index
    h = grid.tau_step
    L = sfft.next_fast_len(2 * M - 1)
    G = sfft.fft(g.data, n=L, axis=1)
    acc = {}
    dropped_spatial = 0.0
    dropped_tau = 0.0
    for i in range(f.n_columns):
        Fi = sfft.fft(f.data[i], n=L)
        conv = sfft.ifft(Fi[None, :] * G, axis=1)[:, : 2 * M - 1]
        dropped_tau += h * float(np.abs(conv[:, :half]).sum()
                                 + np.abs(conv[:, half + M:]).sum())
        core = conv[:, half: half + M]
        ns_out = f.index[i][None, :] + g.index
        inside = grid.in_box(ns_out)
        if not inside.all():
            dropped_spatial += h * float(np.abs(core[~inside]).sum())
        for key, row in zip(grid.flat_keys(ns_out[inside]), core[inside]):
            if key in acc:
                acc[key] += row
            else:
                acc[key] = row.copy()
    if report is not None:
        report["dropped_spatial_mass"] = dropped_spatial
        report["dropped_tau_mass"] = dropped_tau
    if not acc:
        return SpaceTimeField.zero(grid)
    keys = np.array(sorted(acc), dtype=np.int64)
    data = h * np.stack([acc[k] for k in keys])
    return SpaceTimeField(grid, grid.index_from_keys(keys), data)


def _convolve_both(f, g):
    new, old = {}, {}
    window = _convolve_window_oracle(f.on_window(), g.on_window(), old)
    return spacetime_convolve(f, g, new), new, window, old


class TestConvolutionPaths:
    @PROPERTY
    @given(partial_field_pairs())
    def test_padded_product_and_masses_agree_with_window_oracle(self, pair):
        f, g = pair
        # the oracle sums each pair's dropped mass and the padded product each
        # output column's; with one column in f no two pairs share a column
        f1 = SpaceTimeField(f.grid, f.index[:1], f.data[:1])
        for a, b in ((f, g), (f1, g), (f1, f1)):  # (f1, f1) squares one transform
            got_report, want_report = {}, {}
            got = _padded_product(a, b, report=got_report)
            want = _convolve_window_oracle(a, b, want_report)
            assert np.array_equal(got.data, _padded_product(a, b).data)
            scale = max(want.max_abs(), a.grid.tau_step * a.max_abs() * b.max_abs())
            assert (got - want).max_abs() <= 1e-12 * scale
            if a is f1:
                # a mass sums up to (2 side - 1)^d (2 n_tau - 1) moduli taken
                # from other transforms, so its round-off scales with the mass
                for key in ("dropped_spatial_mass", "dropped_tau_mass"):
                    assert abs(got_report[key] - want_report[key]) \
                        <= 1e-12 * max(scale, want_report[key])


class TestTrimmedConvolution:
    @PROPERTY
    @given(partial_field_pairs())
    def test_agrees_with_window_oracle(self, pair):
        f, g = pair
        got, got_report, want, want_report = _convolve_both(f, g)
        scale = max(want.max_abs(), f.grid.tau_step * f.max_abs() * g.max_abs())
        assert (got - want).max_abs() <= 1e-12 * scale
        if min(f.n_columns, g.n_columns) == 1:  # no two pairs share an output column
            for key in ("dropped_spatial_mass", "dropped_tau_mass"):
                assert abs(got_report[key] - want_report[key]) \
                    <= 1e-12 * max(scale, want_report[key])

    @PROPERTY
    @given(field_pairs(max_first_columns=8))
    def test_full_span(self, pair):
        f, g = pair
        got, _, want, _ = _convolve_both(f, g)
        assert f.stored == g.stored == (0, f.grid.n_tau)
        scale = max(want.max_abs(), f.grid.tau_step * f.max_abs() * g.max_abs())
        assert (got - want).max_abs() <= 1e-12 * scale

    M, HALF = GRIDS[1].n_tau, GRIDS[1].half_index

    @pytest.mark.parametrize("f_span, g_span, product_span", [
        # starts at (M-7) + (half+3) - half = M-4 and runs past the upper edge
        ((M - 7, M), (HALF + 3, HALF + 10), (M - 4, M)),
        # both spans at the bottom: the whole product falls below the window
        ((0, 5), (0, 5), (0, 0)),
    ])
    def test_product_zero_off_its_offset_span(self, f_span, g_span, product_span):
        grid = GRIDS[1]
        f = random_field(grid, np.random.default_rng(1), columns=[[1, 0], [0, 2]])
        g = random_field(grid, np.random.default_rng(2), columns=[[-1, 1]])
        f, g = (SpaceTimeField.from_columns(grid, u.index, u.data[:, a:b], lo=a)
                for u, (a, b) in ((f, f_span), (g, g_span)))
        got, got_report, want, want_report = _convolve_both(f, g)
        assert got.stored == product_span
        assert got_report["dropped_tau_mass"] > 0.0
        scale = max(want.max_abs(), grid.tau_step * f.max_abs() * g.max_abs())
        assert (got - want).max_abs() <= 1e-12 * scale
        assert abs(got_report["dropped_tau_mass"]
                   - want_report["dropped_tau_mass"]) <= 1e-12 * scale

    def test_empty_operands(self):
        grid = GRIDS[0]
        f = random_field(grid, np.random.default_rng(3), columns=[[2], [-1]])
        zero_data = SpaceTimeField(grid, f.index.copy(), np.zeros_like(f.data))
        for a, b in ((f, zero_data), (zero_data, f), (f, SpaceTimeField.zero(grid))):
            report = {}
            got = spacetime_convolve(a, b, report)
            assert got.max_abs() == 0.0
            assert report == {"dropped_spatial_mass": 0.0, "dropped_tau_mass": 0.0}
            assert _convolve_window_oracle(a, b, None).max_abs() == 0.0


# -- norms against their full-window formulas ---------------------------------


def _oracle_l2_tau_sq(u, mod_power):
    integrand = np.abs(u.data) ** 2
    if mod_power != 0.0:
        m = u.mod_array()
        integrand = integrand * (1.0 + m * m) ** mod_power
    return np.einsum("kl,l->k", integrand, u.grid.tau_weights)


def _oracle_xsb(u, p):
    cols = _oracle_l2_tau_sq(u, p.b)
    return float(np.sqrt(((1.0 + u.norm_sq_columns().astype(float)) ** p.s * cols).sum()))


def _oracle_energy(u, s):
    l1 = np.einsum("kl,l->k", np.abs(u.data), u.grid.tau_weights)
    return float(np.sqrt(((1.0 + u.norm_sq_columns().astype(float)) ** s * l1 * l1).sum()))


def _oracle_ysb(u, p):
    return _oracle_energy(u, p.s) + float(np.sqrt(_oracle_l2_tau_sq(u, p.s / 2.0 + p.b).sum()))


def _oracle_zsb(u, p):
    nsq = u.norm_sq_columns().astype(float)
    lo_mask = np.abs(u.mod_array()) < grid_module.MOD_THRESHOLD * nsq[:, None]
    lo = SpaceTimeField(u.grid, u.index.copy(), u.data * lo_mask)
    hi = SpaceTimeField(u.grid, u.index.copy(), u.data * ~lo_mask)
    return _oracle_xsb(lo, p) + _oracle_ysb(hi, p)


def _oracle_weight(u, power):
    m = u.mod_array()
    return u.data * (1.0 + m * m) ** (power / 2.0)


def _x_rows(u, block):
    """A grid._BLOCK_BYTES of ``block`` of u's rows in the X-norm, 16 bytes an entry."""
    return block * 16 * max(u.data.shape[1], 1)


def _x_in_blocks(u, p, block):
    """Per-column X integrals in row blocks of ``block`` columns, on the
    blocked path of fields too large for the weight cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "_BLOCK_BYTES", _x_rows(u, block))
        mp.setattr(grid_module, "_CACHED_ENTRIES", 0)
        return norms._x_columns(u, p.b)


NORM_PARAMS = st.builds(NormParams, s=st.floats(-0.9, 0.5), b=st.floats(0.0, 1.0))

# the Z-norm's split constant and two larger ones, whose lo-regions are wider
# than one tau-sample
SPLITS = st.sampled_from((2.0**-10, 2.0**-3, 0.5))


@contextlib.contextmanager
def _split_at(threshold):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "MOD_THRESHOLD", threshold)
        yield


def _norm_pairs(u, p):
    return [(xsb_norm(u, p), _oracle_xsb(u, p)), (ysb_norm(u, p), _oracle_ysb(u, p)),
            (zsb_norm(u, p), _oracle_zsb(u, p)), (energy_l2l1(u, p.s), _oracle_energy(u, p.s))]


class TestTrimmedNorms:
    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(fields).flatmap(tau_supports), NORM_PARAMS,
           SPLITS)
    def test_partial_supports_agree(self, u, p, split):
        with _split_at(split):
            pairs = _norm_pairs(u, p)
        for got, want in pairs:
            assert abs(got - want) <= 1e-13 * want
        # zero off the span and the same products on it
        assert np.array_equal(apply_modulation_weight(u, -1.0).on_window().data,
                              _oracle_weight(u, -1.0))

    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(fields), NORM_PARAMS, SPLITS)
    def test_full_span_bitwise(self, u, p, split):
        assert u.stored == (0, u.grid.n_tau)
        with _split_at(split):
            pairs = _norm_pairs(u, p)
        for got, want in pairs:
            assert got == want
        assert np.array_equal(apply_modulation_weight(u, -1.0).data, _oracle_weight(u, -1.0))

    @PROPERTY
    @given(st.sampled_from(GRIDS), st.integers(0, 2**32 - 1), NORM_PARAMS, SPLITS)
    def test_origin_column_bitwise(self, grid, seed, p, split):
        origin = np.zeros((1, grid.dimension), dtype=np.int64)
        u = random_field(grid, np.random.default_rng(seed), columns=origin)
        with _split_at(split):
            for got, want in _norm_pairs(u, p):
                assert got == want
            assert zsb_norm(u, p) == ysb_norm(u, p)  # the n = 0 column is all hi


    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(fields).flatmap(tau_supports), NORM_PARAMS,
           st.sampled_from((4, 8)))
    def test_blocked_x_norm_bitwise(self, u, p, block):
        # blocks of a few columns, the last one mostly short, against one
        # block over the span; a full-span field also against the window oracle
        full = random_field(u.grid, np.random.default_rng(0), columns=u.index)
        zero = SpaceTimeField(u.grid, u.index.copy(), np.zeros_like(u.data))
        for v in (u, full, zero, SpaceTimeField.zero(u.grid)):
            assert np.array_equal(_x_in_blocks(v, p, block), _x_in_blocks(v, p, 10**9))
        for v in (full, zero, SpaceTimeField.zero(u.grid)):
            assert np.array_equal(_x_in_blocks(v, p, block), _oracle_l2_tau_sq(v, p.b))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(grid_module, "_BLOCK_BYTES", _x_rows(v, block))
                mp.setattr(grid_module, "_CACHED_ENTRIES", 0)
                assert xsb_norm(v, p) == _oracle_xsb(v, p)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("block", [4, 8])
    def test_blocked_x_norm_on_the_box(self, grid, block):
        # 13 and 49 columns: a short last block, and where one column is
        # left over, a long one; blocking never changes a column's bits
        u = random_field(grid, np.random.default_rng(block), envelope_power=-1.0)
        assert u.n_columns % block != 0
        lo = grid.n_tau // 3
        trimmed = SpaceTimeField.from_columns(grid, u.index, u.data[:, lo:], lo=lo)
        p = NormParams(s=-0.6)
        assert np.array_equal(_x_in_blocks(u, p, block), _oracle_l2_tau_sq(u, p.b))
        assert np.array_equal(_x_in_blocks(trimmed, p, block),
                              _x_in_blocks(trimmed, p, 10**9))

    @PROPERTY
    @given(st.sampled_from(GRIDS), st.integers(0, 2**32 - 1), NORM_PARAMS, SPLITS)
    def test_plan_factors_bitwise(self, grid, seed, p, split):
        # the Picard plan's factors give zsb_norm's value on a full-box field
        u = random_field(grid, np.random.default_rng(seed))
        with _split_at(split):
            plan = PicardPlan.build(grid, p)
            fnsq = u.norm_sq_columns().astype(float)
            assert _z_apply(u.data, fnsq, plan.lo_factors, lambda s: plan.y_weight, [p.s],
                            grid.tau_weights) == [zsb_norm(u, p)]


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

    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(fields), st.integers(0, 2**32 - 1))
    def test_equal_index_path_matches_union_path(self, a, seed):
        b = random_field(a.grid, np.random.default_rng(seed), columns=a.index)
        for total, sign in ((a + b, 1.0), (a - b, -1.0)):
            # the union path: a zeroed array over the union, both operands scattered
            keys = np.union1d(_keys(a), _keys(b))
            data = np.zeros((len(keys), a.grid.n_tau), dtype=np.complex128)
            data[np.searchsorted(keys, _keys(a))] += a.data
            data[np.searchsorted(keys, _keys(b))] += sign * b.data
            assert np.array_equal(_keys(total), keys)
            assert np.array_equal(total.data, data)
            assert total.index is not a.index


class TestConjugateReflect:
    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(fields))
    def test_involution_bitwise(self, u):
        once = conjugate_reflect(u)
        assert np.array_equal(np.sort(_keys(once)), np.sort(u.grid.flat_keys(-u.index)))
        twice = conjugate_reflect(once)
        assert np.array_equal(twice.index, u.index)
        assert np.array_equal(twice.data, u.data)

    @staticmethod
    def _assert_matches_argsort_oracle(u):
        got, want = conjugate_reflect(u), conjugate_reflect_by_argsort(u)
        assert np.array_equal(got.index, want.index)
        assert np.array_equal(got.data, want.data)

    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(lambda g: fields(g, max_columns=6, min_columns=0)))
    def test_reversal_matches_argsort_on_sparse_sets(self, u):
        self._assert_matches_argsort_oracle(u)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.dimension}")
    def test_reversal_matches_argsort_on_empty_one_and_full_sets(self, grid):
        rng = np.random.default_rng(5)
        for keys in ([], [0], [grid.box_count // 2], [grid.box_count - 1], range(grid.box_count)):
            u = random_field(grid, rng, columns=grid.box_index[list(keys)])
            self._assert_matches_argsort_oracle(u)
