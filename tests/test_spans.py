"""Span-stored fields against the whole-window fields they replaced.

A family member, its reflection, the product and the Duhamel weight store
only a block of tau-samples.  Each is checked against the whole-window
construction in ``oracles`` at zero tolerance: the columns and their
whole-window rows (``box_array()`` where the box is small) compared entry
for entry, norms and report text compared with ``==``.
"""

import numpy as np
import pytest

from rnlab import sweep
from rnlab.families import FAMILY_KINDS, build_family, conjugate_product
from rnlab.grid import FrequencyGrid, SpaceTimeField, conjugate_reflect, random_field
from rnlab.norms import NormParams, apply_modulation_weight, norms_over_s
from rnlab.sweep import run_sweep, threshold_scan

import oracles

CASES = [(kind, N, step) for kind in FAMILY_KINDS for N, step in ((4, 0.25), (16, 0.5), (64, 0.5))]
CASE_IDS = [f"{kind}-N{N}-h{step}" for kind, N, step in CASES]


def _pair(kind, N, step):
    grid = FrequencyGrid.for_box(2, N, step)
    return build_family(kind, N, grid), oracles.build_family_window(kind, N, grid)


def _same(got, want):
    """The same columns and the same whole-window rows."""
    assert np.array_equal(got.index, want.index)
    assert np.array_equal(got.on_window().data, want.on_window().data)
    if got.grid.box_count * got.grid.n_tau < 10**6:
        assert np.array_equal(got.box_array(), want.box_array())


class TestGridSpans:
    @pytest.mark.parametrize("grid", [FrequencyGrid.for_box(1, 3, 0.5),
                                      FrequencyGrid.for_box(2, 4, 0.25)])
    def test_nodes_and_weights_bitwise_on_every_span(self, grid):
        M = grid.n_tau
        for a, b in [(0, M), (0, 1), (M - 1, M), (0, 0), (M, M), (3, 9), (5, M), (0, 7)]:
            assert np.array_equal(grid.nodes_on(a, b), grid.tau_nodes[a:b])
            assert np.array_equal(grid.weights_on(a, b), grid.tau_weights[a:b])

    def test_block_must_fit_the_window(self):
        grid = FrequencyGrid.for_box(1, 2, 0.5)
        with pytest.raises(ValueError, match="inside the tau-window"):
            SpaceTimeField(grid, [[0]], np.ones((1, 3)), grid.n_tau - 2)
        with pytest.raises(ValueError, match="inside the tau-window"):
            SpaceTimeField(grid, [[0]], np.ones((1, 3)), -1)


class TestFamilies:
    @pytest.mark.parametrize("kind, N, step", CASES, ids=CASE_IDS)
    def test_members_store_the_indicator_only(self, kind, N, step):
        got, want = _pair(kind, N, step)
        for g, w in ((got.u, want.u), (got.v, want.v)):
            _same(g, w)
            assert g.data.shape == (1, int(2 / step) + 1)
            assert g.tau_span() == g.stored == w.tau_span()

    @pytest.mark.parametrize("kind, N, step", CASES, ids=CASE_IDS)
    def test_product_and_weight(self, kind, N, step):
        got, want = _pair(kind, N, step)
        prod, prod_w = conjugate_product(got), oracles.conjugate_product_window(want)
        _same(prod, prod_w)
        assert prod.data.shape[1] == int(4 / step) + 1  # the offset span only
        weighted = apply_modulation_weight(prod, -1.0)
        _same(weighted, oracles.modulation_weight_window(prod_w, -1.0))
        assert weighted.stored == prod.tau_span()

    @pytest.mark.parametrize("mode, b", [("X", 0.6), ("Z", 2.0 / 3.0)])
    @pytest.mark.parametrize("kind, N, step", CASES, ids=CASE_IDS)
    def test_norms_over_s(self, kind, N, step, mode, b):
        got, want = _pair(kind, N, step)
        s_values = [-0.9, -2.0 / 3.0, -0.4, 0.0, 0.3]
        weighted = apply_modulation_weight(conjugate_product(got), -1.0)
        weighted_w = oracles.modulation_weight_window(
            oracles.conjugate_product_window(want), -1.0)
        for g, w in ((got.u, want.u), (got.v, want.v), (weighted, weighted_w)):
            assert norms_over_s(g, b, s_values, mode) \
                == oracles.norms_over_s_window(w, b, s_values, mode)


def _block(grid, columns, lo, width, seed):
    """Random field on ``columns`` storing window samples [lo, lo + width)."""
    u = random_field(grid, np.random.default_rng(seed), columns=columns)
    return SpaceTimeField(grid, u.index, u.data[:, lo:lo + width], lo)


class TestFieldAlgebra:
    GRID = FrequencyGrid.for_box(2, 2, 0.5)

    @pytest.mark.parametrize("spans", [
        ((3, 5), (20, 4)),          # disjoint
        ((3, 12), (9, 10)),         # overlapping
        ((3, 12), (3, 12)),         # equal
        ((0, 41), (40, 1)),         # whole window and the last sample
    ], ids=["disjoint", "overlapping", "equal", "window"])
    @pytest.mark.parametrize("same_columns", [True, False], ids=["same", "other"])
    def test_add_on_the_union_of_spans(self, spans, same_columns):
        grid = self.GRID
        (la, wa), (lb, wb) = spans
        a = _block(grid, [[1, 0], [0, 2]], la, wa, 1)
        b = _block(grid, [[1, 0], [0, 2]] if same_columns else [[-1, 1], [0, 2]], lb, wb, 2)
        for sign, total in ((1.0, a + b), (-1.0, a - b)):
            want = a.on_window() + sign * b.on_window()  # the whole-window sum
            assert np.array_equal(total.box_array(), want.box_array())
            assert total.stored == (min(la, lb), max(la + wa, lb + wb))

    def test_adding_the_zero_field_keeps_the_block(self):
        a = _block(self.GRID, [[1, 0]], 7, 5, 3)
        for total in (a + SpaceTimeField.zero(self.GRID), SpaceTimeField.zero(self.GRID) - a):
            assert total.stored == (7, 12)
            assert np.array_equal(np.abs(total.box_array()), np.abs(a.box_array()))

    def test_reflection_mirrors_the_block_and_is_an_involution(self):
        grid = self.GRID
        u = _block(grid, [[1, 0], [-2, 1], [0, 2]], 6, 9, 4)
        once = conjugate_reflect(u)
        assert once.stored == (grid.n_tau - 15, grid.n_tau - 6)
        _same(once, oracles.conjugate_reflect_window(u))
        twice = conjugate_reflect(once)
        assert twice.stored == u.stored
        assert np.array_equal(twice.index, u.index) and np.array_equal(twice.data, u.data)

    def test_window_readers_widen(self):
        grid = self.GRID
        u = _block(grid, [[1, 0], [0, 2]], 6, 9, 5)
        wide = u.on_window()
        assert wide.stored == (0, grid.n_tau) and wide.on_window() is wide
        assert np.array_equal(wide.data[:, 6:15], u.data)
        assert not wide.data[:, :6].any() and not wide.data[:, 15:].any()
        assert np.array_equal(u.column([1, 0]), wide.column([1, 0]))
        assert np.array_equal(u.mod_array(), wide.mod_array()[:, 6:15])


class TestReports:
    """Scan and sweep reports on span-stored points, against the same commands
    run on whole-window points normed by the whole-window norms."""

    @pytest.mark.parametrize("kind, mode, b", [("example1", "X", 0.6),
                                               ("example2", "Z", 2.0 / 3.0),
                                               ("remark_uu", "Z", 0.6)])
    def test_report_text(self, kind, mode, b, monkeypatch):
        s_values = np.round(np.arange(-0.9, -0.35, 0.05), 12)
        p = NormParams(s=-0.55, b=b)

        def reports():
            return (threshold_scan(kind, s_values, b, mode, (32, 64, 128)).to_json_text(),
                    run_sweep(kind, [4, 8, 16], p, mode).to_csv_text())

        got = reports()
        monkeypatch.setattr(sweep, "_sweep_point", oracles.sweep_point_window)
        monkeypatch.setattr(sweep, "norms_over_s", oracles.norms_over_s_window)
        assert got == reports()
