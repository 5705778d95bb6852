"""Sweep engine: fits, ratios, reports, threshold location."""

import gc
import weakref

import numpy as np
import pytest

from rnlab import sweep
from rnlab.families import FAMILY_KINDS, build_family
from rnlab.grid import FrequencyGrid
from rnlab.norms import NormParams, norms_over_s
from rnlab.sweep import (
    SweepReport,
    bilinear_lhs,
    fit_loglog,
    locate_sign_change,
    run_sweep,
    threshold_scan,
)

from oracles import norm_at_s, threshold_scan_per_s


class TestFitLoglog:
    def test_exact_power_law(self):
        ns = [4, 8, 16, 32, 64]
        vals = [2.7 * N**-1.37 for N in ns]
        slope, _, resid = fit_loglog(ns, vals)
        assert slope == pytest.approx(-1.37, rel=1e-10)
        assert resid < 1e-10

    def test_constant_rows(self):
        slope, _, resid = fit_loglog([4, 8, 16], [5.0, 5.0, 5.0])
        assert slope == pytest.approx(0.0, abs=1e-15)
        assert resid == pytest.approx(0.0, abs=1e-15)

    def test_residual_reports_max_deviation(self):
        ns = [4, 8, 16, 32]
        vals = [1.0, 2.0, 4.0, 16.0]  # not a clean power law
        _, _, resid = fit_loglog(ns, vals)
        assert resid > 0.1


class TestBilinearLhs:
    def test_zero_factor(self, small_grid):
        from rnlab.grid import SpaceTimeField, random_field
        rng = np.random.default_rng(0)
        u = SpaceTimeField.zero(small_grid)
        v = random_field(small_grid, rng)
        assert bilinear_lhs(u, v, NormParams(s=-0.6)) == 0.0

    def test_grid_mismatch(self):
        from rnlab.grid import random_field
        rng = np.random.default_rng(0)
        a = random_field(FrequencyGrid.for_box(2, 2, 0.25), rng)
        b = random_field(FrequencyGrid.for_box(2, 2, 0.5), rng)
        with pytest.raises(ValueError, match="grid mismatch"):
            bilinear_lhs(a, b, NormParams(s=-0.6))

    def test_matches_family_product_route(self):
        # generic entry point agrees with the family-specific product for the
        # conjugate families
        from rnlab.families import conjugate_product
        from rnlab.sweep import lhs_norm_of_product
        grid = FrequencyGrid.for_box(2, 4, 0.25)
        inst = build_family("example1", 4, grid)
        p = NormParams(s=-0.6)
        direct = bilinear_lhs(inst.u, inst.v, p, mode="Z")
        via_family = lhs_norm_of_product(conjugate_product(inst), p, mode="Z")
        assert direct == pytest.approx(via_family, rel=1e-12)


class TestRunSweep:
    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="three"):
            run_sweep("example1", [4, 8], NormParams(s=-0.6))

    def test_dyadic_increasing_enforced(self):
        with pytest.raises(ValueError, match="dyadic"):
            run_sweep("example1", [4, 8, 12], NormParams(s=-0.6))
        with pytest.raises(ValueError, match="increasing"):
            run_sweep("example1", [8, 8, 16], NormParams(s=-0.6))

    def test_example1_classical_divergence_flag(self):
        # s = -0.6, b = 0.51: predicted ratio slope 2b-2-2s = 0.22 > 0
        p = NormParams(s=-0.6, b=0.51)
        rep = run_sweep("example1", [4, 8, 16, 32], p, mode="X")
        assert rep.predicted_slope == pytest.approx(0.22)
        assert rep.fitted_slope == pytest.approx(0.22, abs=0.05)
        assert rep.verdict == "diverges"

    def test_example2_modified_boundedness_flag(self):
        # s = -0.6, b = 2/3 in the modified norm: slope -(2s+2b) = -2/15...
        p = NormParams(s=-0.6, b=2.0 / 3.0)
        rep = run_sweep("example2", [64, 128, 256], p, mode="Z", tau_step=0.5)
        assert rep.predicted_slope == pytest.approx(-2.0 / 15.0, abs=1e-12)
        assert rep.fitted_slope == pytest.approx(rep.predicted_slope, abs=0.05)
        assert rep.verdict == "bounded"

    def test_ratio_scale_invariance(self):
        # scaling u and v leaves each ratio unchanged
        p = NormParams(s=-0.6)
        rep = run_sweep("example1", [4, 8, 16], p, mode="X")
        grid = FrequencyGrid.for_box(2, 8, 0.25)
        inst = build_family("example1", 8, grid)
        from rnlab.norms import xsb_norm
        from rnlab.families import conjugate_product
        from rnlab.sweep import lhs_norm_of_product
        alpha, beta = 3.7, 0.04
        u, v = alpha * inst.u, beta * inst.v
        from rnlab.grid import conjugate_reflect, spacetime_convolve
        lhs = lhs_norm_of_product(
            spacetime_convolve(conjugate_reflect(u), conjugate_reflect(v)), p, "X")
        ratio = lhs / (xsb_norm(u, p) * xsb_norm(v, p))
        baseline = [r for r in rep.rows if r.N == 8][0].ratio
        assert ratio == pytest.approx(baseline, rel=1e-9)

    def test_rows_sorted_and_serialization_roundtrip(self):
        p = NormParams(s=-0.55, b=0.6)
        rep = run_sweep("remark_uu", [4, 8, 16], p, mode="X")
        assert [r.N for r in rep.rows] == [4, 8, 16]
        back = SweepReport.from_json_text(rep.to_json_text())
        assert back.rows == rep.rows
        assert back.fitted_slope == rep.fitted_slope
        assert back.predicted_slope == rep.predicted_slope
        # CSV has the fixed schema and full-precision floats
        lines = rep.to_csv_text().splitlines()
        assert lines[0] == "N,u_norm,v_norm,lhs,ratio"
        first = lines[1].split(",")
        assert int(first[0]) == 4
        assert float(first[4]) == rep.rows[0].ratio


class TestThresholdScan:
    def test_sign_change_interpolation(self):
        pts = [(-0.9, 0.5), (-0.8, 0.1), (-0.7, -0.3)]
        # linear interpolation between -0.8 and -0.7: crossing at -0.775
        assert locate_sign_change(pts) == pytest.approx(-0.775)

    def test_no_sign_change_reports_none(self):
        assert locate_sign_change([(-0.9, 0.5), (-0.8, 0.4)]) is None

    def test_exact_zero_point(self):
        assert locate_sign_change([(-0.5, 0.0), (-0.4, -0.1)]) == -0.5

    def test_remark_uu_crossing_at_zero(self):
        scan = threshold_scan("remark_uu", np.arange(-0.2, 0.21, 0.1), 2.0 / 3.0,
                              mode="X", n_list=(16, 32, 64), tau_step=0.5)
        assert scan.crossing == pytest.approx(0.0, abs=0.05)

    def test_scan_points_monotone_in_s(self):
        scan = threshold_scan("example2", [-0.9, -0.7, -0.5], 2.0 / 3.0,
                              mode="Z", n_list=(64, 128, 256), tau_step=0.5)
        slopes = [sl for _, sl in scan.points]
        assert slopes[0] > slopes[1] > slopes[2]

    def test_unsorted_s_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            threshold_scan("example1", [-0.5, -0.7], 2.0 / 3.0)


class TestOneNormPassForAllS:
    """The scan norms each field once for all s; the per-s loop it replaced
    is the oracle, at zero tolerance."""

    @pytest.mark.parametrize("mode, b", [("X", 0.6), ("Z", 2.0 / 3.0)])
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_scan_matches_per_s_loop(self, kind, mode, b):
        s_list = np.round(np.arange(-1.0, 0.01, 0.1), 10)
        args = (kind, s_list, b, mode, (8, 16, 32))
        assert threshold_scan(*args).to_json_text() == threshold_scan_per_s(*args).to_json_text()

    def test_each_field_normed_once(self, monkeypatch):
        calls = []

        def recording(u, b, s_values, mode):
            calls.append(len(s_values))
            return norms_over_s(u, b, s_values, mode)

        monkeypatch.setattr(sweep, "norms_over_s", recording)
        threshold_scan("example1", [-0.6, -0.5, -0.4, -0.3], 0.6, "X", n_list=(8, 16, 32))
        assert calls == [4] * 9  # u, v and the weighted product at each of three N

    @pytest.mark.parametrize("mode", ["X", "Z"])
    def test_sweep_rows_match_per_s_norms(self, mode):
        p = NormParams(s=-0.55, b=0.6)
        rep = run_sweep("example2", [4, 8, 16], p, mode=mode)
        for row, N in zip(rep.rows, [4, 8, 16]):
            inst, prod = sweep._sweep_point("example2", N, 0.25)
            u, v, lhs = (norm_at_s(f, p, mode) for f in (inst.u, inst.v, prod))
            assert (row.u_norm, row.v_norm, row.lhs, row.ratio) == (u, v, lhs, lhs / (u * v))


class TestSweepPoints:
    def test_points_freed_when_sweep_returns(self, monkeypatch):
        built = []

        def recording_build(kind, N, grid):
            inst = build_family(kind, N, grid)
            built.append(weakref.ref(inst.u.data))
            return inst

        monkeypatch.setattr(sweep, "build_family", recording_build)
        run_sweep("example1", [4, 8, 16], NormParams(s=-0.6), mode="X")
        gc.collect()
        assert len(built) == 3
        assert all(ref() is None for ref in built)
