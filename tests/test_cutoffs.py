"""The bump, lattice transforms, free evolution, time cutoffs."""

import numpy as np
import pytest

from rnlab.cutoffs import (
    _spatial_pairs,
    apply_time_cutoff,
    free_evolution_data,
    gather_profile,
    sigma_lattice,
    standard_bump,
    _transform_on_lattice,
    transform_on_lattice,
)
from rnlab.grid import FrequencyGrid, SpaceTimeField, time_slices
from rnlab.norms import NormParams, xsb_norm
from rnlab.solver import SolverParams, picard_solve

import oracles


class TestBumpProfile:
    def test_plateau_and_support(self):
        t = np.array([-2.5, -2.0, -1.0, 0.0, 0.7, 1.0, 2.0, 3.0])
        vals = standard_bump(t)
        assert np.array_equal(vals[2:6], np.ones(4))
        assert vals[0] == vals[1] == vals[6] == vals[7] == 0.0

    def test_range_and_symmetry(self, rng):
        t = rng.uniform(-3, 3, 200)
        v = standard_bump(t)
        assert ((v >= 0) & (v <= 1)).all()
        assert np.allclose(standard_bump(-t), v)

    def test_smooth_transition_monotone(self):
        t = np.linspace(1.0, 2.0, 100)
        v = standard_bump(t)
        assert (np.diff(v) <= 1e-12).all()


class TestTransformOnLattice:
    def test_periodization_recovers_bump(self):
        # trapezoid synthesis of the lattice samples must reproduce the bump
        h = 0.25
        J = 4000
        T0 = transform_on_lattice(h, J)
        js = np.arange(-J, J + 1) * h
        for t in (0.0, 0.8, 1.3, 1.9, 2.2):
            recon = (h * T0 * np.exp(1j * js * t)).sum()
            assert recon.real == pytest.approx(float(standard_bump(t)), abs=5e-9)
            assert abs(recon.imag) < 5e-9

    def test_moment_matches_quadrature(self):
        # k-th transform at omega=0 is the (1/2pi) integral of t^k eta(t)
        from scipy.integrate import quad
        for k in (1, 4):
            val = transform_on_lattice(0.5, 10, t_power=k)[10]
            ref = quad(lambda t: standard_bump(t) * t**k, -2, 2, limit=200)[0] / (2 * np.pi)
            assert val.real == pytest.approx(ref, abs=1e-11)
            assert abs(val.imag) < 1e-12

    def test_cache_returns_readonly(self):
        arr = transform_on_lattice(0.5, 4)
        assert not arr.flags.writeable

    @pytest.mark.parametrize("box", [(1, 32, 0.25), (2, 4, 0.25), (1, 6, 1 / 3)],
                             ids=["picard_1d", "d2-n4", "d1-n6-third"])
    def test_real_fft_matches_the_complex_fft(self, box):
        # the real FFT reads j < 0 as conjugates; the complex FFT of the same
        # samples reads every bin: 5.2e-16 of the lattice's maximum measured
        grid = FrequencyGrid.for_box(*box[:2], tau_step=box[2])
        for k in range(25):
            got, j_max = sigma_lattice(grid, t_power=k)
            want = oracles.transform_on_lattice_complex(grid.tau_step, j_max, k)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_cache_key_and_size(self):
        # j_max is keyed as an int, so 8.0 and 8 share one entry
        assert transform_on_lattice(0.5, 8.0) is transform_on_lattice(0.5, 8)
        assert _transform_on_lattice.cache_info().maxsize >= 128


class TestFreeEvolution:
    def test_zero_data(self, small_grid):
        u = free_evolution_data(small_grid, np.zeros((9, 9), complex))
        assert u.n_columns == 0

    def test_shape_mismatch(self, small_grid):
        with pytest.raises(ValueError, match="shape"):
            free_evolution_data(small_grid, np.zeros((3, 3), complex))

    def test_non_finite_rejected(self, small_grid):
        phi = np.zeros((9, 9), complex)
        phi[4, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            free_evolution_data(small_grid, phi)

    def test_single_mode_column_profile(self, small_grid):
        phi = np.zeros((9, 9), complex)
        phi[small_grid.n_max + 2, small_grid.n_max + 0] = 1.0  # n0 = (2, 0)
        u = free_evolution_data(small_grid, phi)
        assert u.index.tolist() == [[2, 0]]
        profile = np.abs(u.column([2, 0]))
        # profile is the bump transform centered at tau = -|n0|^2
        center = small_grid.tau_nodes[np.argmax(profile)]
        assert center == -4.0
        lattice = transform_on_lattice(small_grid.tau_step, 2)
        assert u.column([2, 0])[small_grid.tau_index(-4.0 + small_grid.tau_step * 2)] \
            == pytest.approx(lattice[4])  # entry j=+2 of j=-2..2

    def test_xsb_bound_uniform_in_frequency(self):
        # || eta e^{it Lap} phi ||_{X^{s,b}} / <n0>^s is n0-independent (k=0
        # homogeneous linear estimate); window effects stay tiny
        grid = FrequencyGrid.for_box(2, 6, 0.25, tau_pad=60.0)
        p = NormParams(s=-0.6, b=2.0 / 3.0)
        ratios = []
        for n0 in ([0, 0], [2, 1], [4, 0], [6, 6]):
            ns = np.array([n0])
            u = free_evolution_data(grid, (ns, np.array([1.0 + 0j])))
            nsq = float(ns[0] @ ns[0])
            ratios.append(xsb_norm(u, p) / (1.0 + nsq) ** (p.s / 2))
        assert max(ratios) / min(ratios) < 1.0 + 1e-6

    def test_unit_mass_recovery_in_time(self):
        # synthesis at t in [-1, 1] (where eta = 1) recovers phi_hat; the
        # error is the window tail of the bump transform, so pad generously
        grid = FrequencyGrid.for_box(2, 4, 0.25, tau_pad=200.0)
        ns = np.array([[1, -1]])
        u = free_evolution_data(grid, (ns, np.array([0.3 - 0.4j])))
        vals = time_slices(u, [0.0, 0.5])
        expected = (0.3 - 0.4j) * np.exp(-1j * 2.0 * np.array([0.0, 0.5]))
        assert np.allclose(vals[0], expected, atol=1e-7)

    def test_recovery_error_shrinks_with_window(self):
        # grid-refinement check: the tau-window pad, not the step, controls
        # the fidelity of the smooth-cutoff data on the lattice
        errs = []
        for pad in (8.0, 50.0, 200.0):
            grid = FrequencyGrid.for_box(2, 4, 0.25, tau_pad=pad)
            ns = np.array([[1, -1]])
            u = free_evolution_data(grid, (ns, np.array([1.0 + 0j])))
            val = time_slices(u, [0.25])[0, 0]
            errs.append(abs(val - np.exp(-1j * 2.0 * 0.25)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-7


def _free_evolution_oracle(grid, phi_hat, prune=True):
    """The construction free_evolution_data replaced: scaled copy, then sorted
    copy; ``prune=False`` keeps the zero coefficients' columns."""
    ns, vals = _spatial_pairs(grid, phi_hat)
    if prune:
        keep = vals != 0
        ns, vals = ns[keep], vals[keep]
    lattice, j_max = sigma_lattice(grid)
    rows = gather_profile(grid, FrequencyGrid.norm_sq(ns), lattice, j_max)
    return SpaceTimeField.from_columns(grid, ns, vals[:, None] * rows)


_INPUT_GRIDS = pytest.mark.parametrize("grid", [FrequencyGrid.for_box(2, 4, 0.25),
                                                 FrequencyGrid.for_box(1, 8, 0.25)])
_INPUT_CASES = pytest.mark.parametrize("case", ["box_order", "box_array", "shuffled", "zeros",
                                                "all_zero"])


class TestFreeEvolutionInPlace:
    def _pairs(self, grid, seed):
        rng = np.random.default_rng(seed)
        ns = grid.box_index.copy()
        vals = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
        return ns, vals

    def _phi(self, grid, case):
        ns, vals = self._pairs(grid, 7)
        perm = np.random.default_rng(8).permutation(len(ns))
        if case == "box_array":
            return vals.reshape((grid.box_side,) * grid.dimension)
        if case == "shuffled":
            return ns[perm], vals[perm]
        if case == "zeros":
            vals[::3] = 0.0
            return ns[perm], vals[perm]
        if case == "all_zero":
            vals[:] = 0.0
        return ns, vals

    @_INPUT_GRIDS
    @_INPUT_CASES
    def test_bitwise_equal_to_old_construction(self, grid, case):
        phi = self._phi(grid, case)
        got = free_evolution_data(grid, phi)
        want = _free_evolution_oracle(grid, phi)
        assert np.array_equal(got.index, want.index)
        assert np.array_equal(got.data, want.data)
        assert got.data.flags.writeable and got.data.flags.c_contiguous

    @_INPUT_GRIDS
    @_INPUT_CASES
    def test_solve_puts_the_dropped_columns_back(self, grid, case):
        # a solve's iterate 0 is the unpruned construction on the whole box
        phi = self._phi(grid, case)
        seen = []
        params = SolverParams(s=-0.6, T=0.125, max_iterations=1)
        picard_solve(phi, params, grid, on_iterate=lambda k, u: seen.append((k, u)))
        unpruned = _free_evolution_oracle(grid, phi, prune=False)
        want = SpaceTimeField(grid, grid.box_index.copy(), unpruned.box_array())
        k, first = seen[0]
        assert k == 0
        assert np.array_equal(first.index, want.index)
        assert np.array_equal(first.data, want.data)

    def test_duplicate_columns_rejected(self, small_grid):
        ns = np.array([[1, 0], [0, 2], [1, 0]])
        with pytest.raises(ValueError, match="duplicate"):
            free_evolution_data(small_grid, (ns, np.ones(3, complex)))

    def test_cached_lattice_not_scaled(self, small_grid):
        # the rows are scaled in place; the cached transform they were
        # gathered from must come through unchanged and read-only
        lattice, _ = sigma_lattice(small_grid)
        before = lattice.copy()
        free_evolution_data(small_grid, self._pairs(small_grid, 10))
        after, _ = sigma_lattice(small_grid)
        assert after is lattice
        assert not lattice.flags.writeable
        assert np.array_equal(lattice, before)


class TestApplyTimeCutoff:
    def test_preserves_columns(self, small_grid, rng):
        from rnlab.grid import random_field
        u = random_field(small_grid, rng, envelope_power=-1.0)
        v = apply_time_cutoff(u, 0.5)
        assert np.array_equal(v.index, u.index)

    def test_acts_as_multiplication_in_time(self):
        # synthesis after the cutoff equals profile(t/scale) times the
        # original synthesis; needs scale * window large enough for the
        # dilated kernel to fit
        grid = FrequencyGrid.for_box(2, 4, 0.25, tau_pad=1000.0)
        ns = np.array([[1, 0]])
        u = free_evolution_data(grid, (ns, np.array([1.0 + 0j])))
        scale = 0.5
        v = apply_time_cutoff(u, scale)
        times = np.array([0.0, 0.2, 0.4, 0.6, 1.2])
        orig = time_slices(u, times)[0]
        cut = time_slices(v, times)[0]
        factor = standard_bump(times / scale)
        # accuracy is set by the real (slow) tail of the bump transform
        # escaping the window, not by the step
        assert np.allclose(cut, factor * orig, atol=1e-7)
