"""Counterexample families: exact supports, tent products, exponent tables."""

import numpy as np
import pytest

from rnlab.families import (
    FAMILY_KINDS,
    analytic_tent,
    build_family,
    conjugate_product,
    discrete_tent,
    predicted_exponents,
    product_support,
    tent_pairs,
)
from rnlab.grid import FrequencyGrid


@pytest.fixture
def family_grid():
    return FrequencyGrid.for_box(2, 8, tau_step=0.25)


class TestBuildFamily:
    def test_example1_support_count(self, family_grid):
        # 9 nonzero tau-samples on [-17, -15] at n = (4, 0) for tau_step 1/4
        inst = build_family("example1", 4, family_grid)
        col = inst.u.column([4, 0])
        nz = np.nonzero(col)[0]
        assert len(nz) == 9
        taus = family_grid.tau_nodes[nz]
        assert taus[0] == -17.0 and taus[-1] == -15.0
        assert col[nz[0]] == 0.5 and col[nz[-1]] == 0.5
        assert np.all(col[nz[1:-1]] == 1.0)
        assert inst.v.index.tolist() == [[-4, 0]]

    def test_example2_sign_flip(self, family_grid):
        inst = build_family("example2", 4, family_grid)
        col = inst.v.column([-4, 0])
        nz = np.nonzero(col)[0]
        taus = family_grid.tau_nodes[nz]
        assert taus[0] == 15.0 and taus[-1] == 17.0

    def test_remark_uu_columns(self, family_grid):
        inst = build_family("remark_uu", 4, family_grid)
        assert inst.u.index.tolist() == [[4, 0]]
        assert inst.v.index.tolist() == [[0, 4]]

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_u_component_on_paraboloid(self, kind, family_grid):
        inst = build_family(kind, 4, family_grid)
        n = inst.u.index[0]
        center_idx = family_grid.tau_index(-float(n @ n))
        # modulation at the support center is exactly zero
        assert inst.u.column(n)[center_idx] == 1.0
        assert float(family_grid.tau_nodes[center_idx] + n @ n) == 0.0

    def test_support_escape_errors(self, family_grid):
        with pytest.raises(ValueError, match="n_max"):
            build_family("example1", 16, family_grid)
        with pytest.raises(ValueError, match="dyadic"):
            build_family("example1", 6, family_grid)
        with pytest.raises(ValueError, match="two-dimensional"):
            build_family("remark_uu", 4, FrequencyGrid.for_box(1, 8, 0.25))
        with pytest.raises(ValueError, match="unknown family"):
            build_family("example3", 4, family_grid)

    def test_inexact_tau_samples_rejected(self):
        # no window is built: 2^24 is the largest N whose samples are exact at 1/4
        build_family("example1", 2**24, FrequencyGrid.for_box(2, 2**24, 0.25))
        with pytest.raises(ValueError, match="exact float64"):
            build_family("example1", 2**25, FrequencyGrid.for_box(2, 2**25, 0.25))

    def test_coarse_step_rejected(self):
        grid = FrequencyGrid(2, 4, 40.0, 0.4)
        with pytest.raises(ValueError, match="divides 1"):
            build_family("example1", 4, grid)


class TestConjugateProduct:
    @pytest.mark.parametrize("kind,center_sign", [
        ("example1", +2.0), ("example2", 0.0), ("remark_uu", -2.0)])
    def test_support_and_center(self, kind, center_sign, family_grid):
        N = 4
        inst = build_family(kind, N, family_grid)
        prod = conjugate_product(inst)
        col, center = product_support(kind, N, 2)
        assert center == center_sign * N * N
        assert prod.n_columns == 1
        assert tuple(prod.index[0]) == col
        profile = np.abs(prod.column(np.array(col)))
        peak_tau = family_grid.tau_nodes[np.argmax(profile)]
        assert peak_tau == center

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_tent_values_exact(self, kind, N, family_grid):
        inst = build_family(kind, N, family_grid)
        prod = conjugate_product(inst)
        col, center = product_support(kind, N, 2)
        vals = prod.column(np.array(col))
        expected = discrete_tent(family_grid.tau_nodes - center, family_grid.tau_step)
        denom = np.maximum(np.abs(expected), 1.0)
        assert (np.abs(vals - expected) / denom).max() < 1e-12

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    @pytest.mark.parametrize("N, step", [(4, 0.25), (16, 0.5)])
    def test_tent_pairs_give_the_window_maximum(self, kind, N, step):
        # on the product's block and the tent's support the deviation's
        # maximum is the whole window's, bit for bit; off-center tents and
        # an absent column make it large
        grid = FrequencyGrid.for_box(2, N, step)
        prod = conjugate_product(build_family(kind, N, grid))
        col, center = product_support(kind, N, 2)
        for c, n in ((center, col), (center + 3.0, col), (-center - 0.5, col),
                     (center, (1, 1))):
            window = np.abs(prod.column(n) - discrete_tent(grid.tau_nodes - c, step)).max()
            assert max(np.abs(v - t).max() for v, t in tent_pairs(prod, n, c)) == window

    def test_example1_product_entirely_hi(self, family_grid):
        from rnlab.grid import project_modulation
        inst = build_family("example1", 4, family_grid)
        prod = conjugate_product(inst)
        hi = project_modulation(prod, "hi")
        assert np.array_equal(hi.box_array(), prod.box_array())

    def test_discrete_tent_mass_is_exact(self, family_grid):
        # step-weighted mass of the product equals mass(u) * mass(v) = 4
        inst = build_family("example1", 8, family_grid)
        prod = conjugate_product(inst)
        mass = float((np.abs(prod.column(prod.index[0])) * family_grid.tau_weights).sum())
        assert mass == pytest.approx(4.0, rel=1e-12)


class TestAnalyticTent:
    def test_matches_paper_min_form(self):
        # max{0, min{2 - x, 2 + x}} agrees with the folded form
        x = np.linspace(-3, 3, 61)
        direct = np.maximum(0.0, np.minimum(2.0 - x, 2.0 + x))
        assert np.array_equal(analytic_tent(x), direct)

    def test_discrete_corrections_localized(self):
        x = np.arange(-2.5, 2.6, 0.25)
        d = discrete_tent(x, 0.25) - analytic_tent(x)
        nz = {xx: dd for xx, dd in zip(x, d) if dd != 0}
        assert nz == {-2.0: 0.0625, 0.0: -0.125, 2.0: 0.0625}


class TestPredictedExponents:
    def test_example1_table(self):
        pe = predicted_exponents("example1", -0.6, 2.0 / 3.0)
        assert pe.u_norm_slope == -0.6
        assert pe.product_slope == pytest.approx(2 * (2.0 / 3.0) - 2)
        assert pe.ratio_slope == pytest.approx(2 * (2.0 / 3.0) - 2 + 1.2)

    def test_example2_threshold_case(self):
        b = 0.71
        pe = predicted_exponents("example2", -b, b)
        assert pe.ratio_slope == pytest.approx(0.0)
        assert pe.v_norm_slope == pytest.approx(b)

    def test_remark_uu_flat_at_zero(self):
        pe = predicted_exponents("remark_uu", 0.0, 2.0 / 3.0)
        assert (pe.u_norm_slope, pe.v_norm_slope, pe.product_slope,
                pe.ratio_slope) == (0, 0, 0, 0)

    def test_mode_variants(self):
        z = predicted_exponents("example1", -0.6, 2.0 / 3.0, mode="Z")
        assert z.ratio_slope == pytest.approx(2 * (2.0 / 3.0) - 2 + 0.6)
        x2 = predicted_exponents("example2", -0.6, 2.0 / 3.0, mode="X")
        assert x2.ratio_slope == pytest.approx(-(2 * -0.6 + 4.0 / 3.0))
