"""Restriction norms: frozen values, inequalities, structural identities."""

import numpy as np
import pytest

from rnlab.cutoffs import free_evolution_data
from rnlab.grid import (
    FrequencyGrid,
    SpaceTimeField,
    dyadic_blocks,
    project_dyadic,
    random_field,
)
from rnlab.norms import (
    NormParams,
    apply_modulation_weight,
    ct_hs_norm,
    dyadic_norm_profile,
    energy_l2l1,
    l4_spacetime_norm,
    spatial_hs_norm,
    xsb_norm,
    ysb_norm,
    zsb_norm,
)

from oracles import indicator_profile

P_DEFAULT = NormParams(s=-0.6, b=2.0 / 3.0)


def single_mode(grid, n, center):
    return SpaceTimeField.from_columns(grid, [n], [indicator_profile(grid, center)])


class TestXsb:
    def test_zero_field(self, small_grid):
        assert xsb_norm(SpaceTimeField.zero(small_grid), P_DEFAULT) == 0.0

    def test_zero_iff_zero(self, sample_field):
        assert xsb_norm(sample_field, P_DEFAULT) > 0.0

    def test_single_mode_against_quadrature_oracle(self, small_grid):
        # oracle: test-local trapezoid quadrature of <sigma>^{4/3} over the
        # stored indicator samples (jump samples at 1/2)
        u = single_mode(small_grid, [1, 0], -1.0)
        p = NormParams(s=0.0, b=2.0 / 3.0)
        sigma = small_grid.tau_nodes + 1.0
        prof = np.abs(u.column([1, 0]))
        oracle = np.sqrt(np.sum(small_grid.tau_weights * (1 + sigma**2) ** (2.0 / 3.0)
                                * prof**2))
        assert xsb_norm(u, p) == pytest.approx(oracle, rel=1e-14)

    def test_family_scaling_slope(self):
        # || u_N ||_{X^{s,b}} ~ N^s across N = 4..128
        from rnlab.sweep import fit_loglog
        s = -0.6
        p = NormParams(s=s, b=2.0 / 3.0)
        ns = [4, 8, 16, 32, 64, 128]
        vals = []
        for N in ns:
            grid = FrequencyGrid.for_box(2, N, 0.25)
            vals.append(xsb_norm(single_mode(grid, [N, 0], -float(N * N)), p))
        slope, _, _ = fit_loglog(ns, vals)
        assert slope == pytest.approx(s, abs=0.05)


class TestYsb:
    def test_zero(self, small_grid):
        assert ysb_norm(SpaceTimeField.zero(small_grid), P_DEFAULT) == 0.0

    def test_origin_indicator_frozen_value(self, small_grid):
        # first term exactly 2 <0>^s = 2; second by test-local quadrature
        p = NormParams(s=-0.6, b=2.0 / 3.0)
        u = single_mode(small_grid, [0, 0], 0.0)
        tau = small_grid.tau_nodes
        prof = np.abs(u.column([0, 0]))
        second = np.sqrt(np.sum(small_grid.tau_weights
                                * (1 + tau**2) ** (p.s / 2 + p.b) * prof**2))
        assert energy_l2l1(u, p.s) == pytest.approx(2.0, rel=1e-14)
        assert ysb_norm(u, p) == pytest.approx(2.0 + second, rel=1e-14)

    def test_high_modulation_family_slope(self):
        # || v_N ||_{Y^{s,b}} ~ N^{s+2b} for the modulation-2N^2 family
        from rnlab.sweep import fit_loglog
        p = NormParams(s=-0.6, b=2.0 / 3.0)
        ns = [4, 8, 16, 32, 64, 128]
        vals = []
        for N in ns:
            grid = FrequencyGrid.for_box(2, N, 0.25)
            vals.append(ysb_norm(single_mode(grid, [-N, 0], float(N * N)), p))
        slope, _, _ = fit_loglog(ns, vals)
        assert slope == pytest.approx(p.s + 2 * p.b, abs=0.05)


class TestZsb:
    def test_lo_supported_equals_xsb(self):
        grid = FrequencyGrid.for_box(2, 64, 0.25)
        u = single_mode(grid, [64, 0], -float(64 * 64))  # modulation within +-1
        assert zsb_norm(u, P_DEFAULT) == pytest.approx(xsb_norm(u, P_DEFAULT), rel=1e-14)

    def test_hi_supported_equals_ysb(self, small_grid):
        u = single_mode(small_grid, [0, 0], 0.0)  # n=0 column is always hi
        assert zsb_norm(u, P_DEFAULT) == pytest.approx(ysb_norm(u, P_DEFAULT), rel=1e-14)

    def test_embeds_in_xsb_for_negative_s(self, small_grid, rng):
        # two-pass: calibrate C on 50 fields, validate with 2x headroom on 50
        ratios = []
        for _ in range(100):
            u = random_field(small_grid, rng, envelope_power=-1.0)
            ratios.append(zsb_norm(u, P_DEFAULT) / xsb_norm(u, P_DEFAULT))
        C = max(ratios[:50])
        assert max(ratios[50:]) <= 2.0 * C


class TestEnergyAndCt:
    def test_unit_mass_mode(self, small_grid):
        u = single_mode(small_grid, [2, 1], -5.0)
        assert energy_l2l1(u, -0.6) == pytest.approx(2.0 * 6.0 ** -0.3, rel=1e-12)

    def test_energy_bounded_by_zsb(self, small_grid, rng):
        ratios = []
        for _ in range(60):
            u = random_field(small_grid, rng, envelope_power=-1.0)
            ratios.append(energy_l2l1(u, -0.6) / zsb_norm(u, P_DEFAULT))
        assert max(ratios[30:]) <= 2.0 * max(ratios[:30])

    def test_ct_bounded_by_energy(self, small_grid, rng):
        for _ in range(10):
            u = random_field(small_grid, rng, envelope_power=-1.0)
            assert ct_hs_norm(u, -0.6, (-0.5, 0.5)) <= energy_l2l1(u, -0.6) * (1 + 1e-9)

    def test_empty_window_rejected(self, sample_field):
        with pytest.raises(ValueError, match="empty"):
            ct_hs_norm(sample_field, -0.6, (0.5, 0.5))

    def test_free_evolution_recovers_hs(self):
        # eta == 1 on [-1,1]: sup_t ||u(t)||_{H^s} = ||phi||_{H^s} up to the
        # window tail of the bump transform
        grid = FrequencyGrid.for_box(2, 3, 0.25, tau_pad=300.0)
        rng = np.random.default_rng(5)
        ns = grid.box_index
        vals = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
        u = free_evolution_data(grid, (ns, vals))
        target = spatial_hs_norm(ns, vals, -0.6)
        assert ct_hs_norm(u, -0.6, (-0.9, 0.9)) == pytest.approx(target, rel=1e-6)


class TestL4:
    def test_zero(self, small_grid):
        assert l4_spacetime_norm(small_grid, [SpaceTimeField.zero(small_grid)], (-1, 1)) == 0.0

    def test_constant_modulus_mode(self):
        # free single mode of amplitude a on a window where eta == 1:
        # |u| = a so the norm is a ((2 pi)^d |window|)^{1/4}
        grid = FrequencyGrid.for_box(2, 2, 0.25, tau_pad=300.0)
        a = 0.7
        u = free_evolution_data(grid, (np.array([[1, 0]]), np.array([a + 0j])))
        val = l4_spacetime_norm(grid, [u], (-0.5, 0.5))
        expected = a * ((2 * np.pi) ** 2 * 1.0) ** 0.25
        assert val == pytest.approx(expected, rel=1e-5)

    def test_amplitude_scaling(self, sample_field):
        grid = sample_field.grid
        assert l4_spacetime_norm(grid, [3.0 * sample_field], (-1, 1)) == pytest.approx(
            3.0 * l4_spacetime_norm(grid, [sample_field], (-1, 1)), rel=1e-12)

    def test_norm_of_the_sum_of_the_fields(self, sample_field):
        # fields sharing columns add: u given twice is 2u
        grid = sample_field.grid
        assert l4_spacetime_norm(grid, [sample_field, sample_field], (-1, 1)) == pytest.approx(
            l4_spacetime_norm(grid, [2.0 * sample_field], (-1, 1)), rel=1e-12)


class TestDyadicProfile:
    def test_single_block_field(self, small_grid):
        u = single_mode(small_grid, [3, 0], -9.0)
        profile = dyadic_norm_profile(u, P_DEFAULT)
        nonzero = [(N, v) for N, v in profile if v > 0]
        assert len(nonzero) == 1
        assert nonzero[0][0] == 4
        assert nonzero[0][1] == pytest.approx(zsb_norm(u, P_DEFAULT), rel=1e-14)

    def test_xsb_pythagoras_exact(self, small_grid, rng):
        for _ in range(5):
            u = random_field(small_grid, rng)
            total = xsb_norm(u, P_DEFAULT) ** 2
            parts = sum(xsb_norm(project_dyadic(u, blk), P_DEFAULT) ** 2
                        for blk in dyadic_blocks(small_grid))
            assert parts == pytest.approx(total, rel=1e-12)

    def test_zsb_two_sided_equivalence(self, small_grid, rng):
        for _ in range(20):
            u = random_field(small_grid, rng, envelope_power=-1.0)
            total = zsb_norm(u, P_DEFAULT) ** 2
            parts = sum(zsb_norm(project_dyadic(u, blk), P_DEFAULT) ** 2
                        for blk in dyadic_blocks(small_grid))
            assert total / 3.0 - 1e-12 <= parts <= 3.0 * total + 1e-12


class TestWeights:
    def test_modulation_weight_power(self, sample_field):
        w = apply_modulation_weight(sample_field, -1.0)
        mod = sample_field.mod_array()
        expected = sample_field.data / np.sqrt(1.0 + mod * mod)
        assert np.allclose(w.data, expected, rtol=1e-14)

    def test_hi_region_weight_inequality(self):
        # <sigma>^{s/2+b} <= C <n>^s <sigma>^b pointwise on the hi region
        from rnlab.grid import japanese_bracket
        grid = FrequencyGrid.for_box(2, 4, 0.25)
        u = SpaceTimeField.full(grid)
        s = -0.6
        mod = u.mod_array()
        nsq = u.norm_sq_columns().astype(float)
        hi = np.abs(mod) >= 2.0**-10 * nsq[:, None]
        C = float((japanese_bracket(2.0**-10 * nsq) ** (s / 2)
                   / japanese_bracket(np.sqrt(nsq)) ** s).max())
        lhs = japanese_bracket(mod[hi]) ** (s / 2)
        rhs = np.broadcast_to(japanese_bracket(np.sqrt(nsq))[:, None] ** s,
                              mod.shape)[hi]
        assert (lhs <= C * rhs * (1 + 1e-12)).all()

    def test_cauchy_schwarz_energy_constant(self, small_grid, rng):
        # energy <= sqrt(Int <sigma>^{-2b}) xsb with the grid quadrature value
        p = P_DEFAULT
        for _ in range(10):
            u = random_field(small_grid, rng)
            mod = u.mod_array()
            c_sq = ((1.0 + mod * mod) ** (-p.b) * small_grid.tau_weights).sum(axis=1)
            C = np.sqrt(c_sq.max())
            assert energy_l2l1(u, p.s) <= C * xsb_norm(u, p) * (1 + 1e-12)


class TestNormAxioms:
    @pytest.mark.parametrize("fn", [
        lambda u: xsb_norm(u, P_DEFAULT),
        lambda u: ysb_norm(u, P_DEFAULT),
        lambda u: zsb_norm(u, P_DEFAULT),
        lambda u: energy_l2l1(u, -0.6),
    ])
    def test_homogeneity_and_triangle(self, small_grid, rng, fn):
        for _ in range(15):
            u = random_field(small_grid, rng)
            v = random_field(small_grid, rng)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            assert fn(alpha * u) == pytest.approx(abs(alpha) * fn(u), rel=1e-12)
            assert fn(u + v) <= (fn(u) + fn(v)) * (1 + 1e-12)

    def test_zsb_monotone_under_masks(self, small_grid, rng):
        for _ in range(15):
            u = random_field(small_grid, rng)
            mask = rng.uniform(0, 1, u.data.shape)
            masked = SpaceTimeField(small_grid, u.index.copy(), u.data * mask)
            assert zsb_norm(masked, P_DEFAULT) <= zsb_norm(u, P_DEFAULT) * (1 + 1e-14)
