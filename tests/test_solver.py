"""Duhamel operators, Picard iteration, reference integrator, field dumps."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft

import rnlab
from rnlab import cutoffs
from rnlab.cutoffs import apply_time_cutoff, free_evolution_data, standard_bump
from rnlab.grid import (
    FrequencyGrid,
    SpaceTimeField,
    _workspace,
    conjugate_reflect,
    spacetime_convolve,
    time_slices,
)
from rnlab.norms import NormParams, spatial_hs_norm, zsb_norm
from rnlab.solver import (
    DivergenceError,
    PicardPlan,
    SolverParams,
    dump_field,
    duhamel_n1,
    duhamel_n2,
    duhamel_n3,
    duhamel_rhs,
    load_field,
    nonlinear_fourier_data,
    peak_bytes,
    picard_solve,
    rough_initial_data,
)

from oracles import continuous_dependence, duhamel_time_integral, reference_integrate


@pytest.fixture
def duhamel_grid():
    # generous window so the cutoff-transform tails stay below the tolerances
    return FrequencyGrid(2, 2, 240.0, 0.25)


def smooth_pair(grid, seed, decay=2.0):
    rng = np.random.default_rng(seed)
    ns = grid.box_index
    mk = lambda: (rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))) \
        * (1.0 + FrequencyGrid.norm_sq(ns).astype(float)) ** -decay
    u = free_evolution_data(grid, (ns, mk()))
    v = free_evolution_data(grid, (ns, mk()))
    return u, v


def _plan(grid):
    return PicardPlan.build(grid, NormParams(s=-0.6))


def _n1_taylor_oracle(fhat):
    """N1 as a full-window Taylor loop: per term, the sigma^{k-1}-moment of
    psi F over every stored entry times a gathered F(t^k eta) profile,
    truncated when max|term| falls below 1e-12 of max|sum| twice in a row."""
    grid = fhat.grid
    mod = fhat.mod_array()
    weighted = fhat.data * standard_bump(mod)
    nsq = fhat.norm_sq_columns()
    out = np.zeros_like(fhat.data)
    sigma_pow = np.ones_like(mod)
    coef = 1.0
    below = 0
    for k in range(1, 61):
        moments = (weighted * sigma_pow) @ grid.tau_weights
        lattice, j_max = cutoffs.sigma_lattice(grid, t_power=k)
        coef *= 1j / k
        term = (-coef) * cutoffs.gather_profile(grid, nsq, lattice, j_max) * moments[:, None]
        out += term
        if np.abs(term).max() <= 1e-12 * max(np.abs(out).max(), 1e-300):
            below += 1
            if below >= 2:
                break
        else:
            below = 0
        sigma_pow = sigma_pow * mod
    return out


def _truncated_product_oracle(u, v, T):
    """The cut-off product through a window-truncated kernel: each reflected
    factor is convolved in tau with the cutoff kernel on [-(M-1), M-1] and
    cropped to the window, then the two are convolved in space-time."""
    a = apply_time_cutoff(conjugate_reflect(u), 2.0 * T)
    b = apply_time_cutoff(conjugate_reflect(v), 2.0 * T)
    return spacetime_convolve(a, b)


def _workspace_product(u, v, T, P):
    """The fused (x, t) product with tau length P, on every workspace sample:
    the cut-off factor's tail aliases at the period P h."""
    grid = u.grid
    d, M, half = grid.dimension, grid.n_tau, grid.half_index
    shape = (sfft.next_fast_len(2 * grid.box_side - 1),) * d + (P,)
    l = np.arange(P)
    t = 2.0 * math.pi * np.where(l > P // 2, l - P, l) / (grid.tau_step * P)
    eta = standard_bump(t / (2.0 * T))
    prod = np.ones(shape, dtype=np.complex128)
    for f in (u, v):
        prod *= sfft.fftn(conjugate_reflect(f).box_array(), s=shape) * eta
    conv = sfft.ifftn(prod)
    core = conv[(slice(grid.n_max, 3 * grid.n_max + 1),) * d + (slice(half, half + M),)]
    return grid.tau_step * core.reshape(-1, M)


def _high_modulation_oracle(fhat):
    """(1 - psi(sigma)) / (i sigma) with psi evaluated on every stored entry."""
    mod = fhat.mod_array()
    psi = standard_bump(mod)
    out = np.zeros_like(mod, dtype=np.complex128)
    mask = psi < 1.0
    out[mask] = (1.0 - psi[mask]) / (1j * mod[mask])
    return out


def _product_pair(box):
    grid = FrequencyGrid(2, 2, 240.0, 0.25) if box == "duhamel" \
        else FrequencyGrid.for_box(*box, tau_step=0.25)
    u, v = (free_evolution_data(grid, rough_initial_data(grid, -0.6, seed)) for seed in (1, 2))
    return u, v, 0.125


class TestFastPathsAgainstOracles:
    # d=1 n_max=8 (17 columns) and d=2 n_max=4 (81 columns)
    @pytest.fixture(params=[(1, 8), (2, 4)], ids=["line_grid", "box_2_4"])
    def pair(self, request):
        return _product_pair(request.param)

    def test_n1_matches_taylor_oracle(self, pair):
        u, v, T = pair
        for a, b in ((u, v), (u, u)):
            fhat = nonlinear_fourier_data(a, b, T)
            old = _n1_taylor_oracle(fhat)
            new = duhamel_n1(fhat, _plan(a.grid))
            assert np.array_equal(new.index, fhat.index)
            assert np.abs(new.data - old).max() <= 1e-12 * np.abs(old).max()

    def test_n2_n3_bitwise_against_full_window_multiplier(self, pair):
        u, v, T = pair
        fhat = nonlinear_fourier_data(u, v, T)
        mult = _high_modulation_oracle(fhat)
        plan = _plan(u.grid)
        assert np.array_equal(duhamel_n3(fhat, plan).data, -1j * fhat.data * mult)
        sums = np.einsum("kl,l->k", fhat.data * mult, fhat.grid.tau_weights)
        lattice, j_max = cutoffs.sigma_lattice(fhat.grid, 0)
        rows = cutoffs.gather_profile(fhat.grid, fhat.norm_sq_columns(), lattice, j_max)
        assert np.array_equal(duhamel_n2(fhat, plan).data, 1j * rows * sums[:, None])

    def test_self_product_bitwise(self, pair):
        u, _, T = pair
        shared = nonlinear_fourier_data(u, u, T)
        separate = nonlinear_fourier_data(u, u.copy(), T)
        assert np.array_equal(shared.index, separate.index)
        assert np.array_equal(shared.data, separate.data)
        f = apply_time_cutoff(conjugate_reflect(u), 2.0 * T)
        shared = spacetime_convolve(f, f)
        separate = spacetime_convolve(f, f.copy())
        assert np.array_equal(shared.index, separate.index)
        assert np.array_equal(shared.data, separate.data)


SHORT_WINDOWS = pytest.mark.parametrize("box", [(1, 8), (2, 4), "duhamel"],
                                        ids=["line_8", "box_2_4", "duhamel_grid"])


class TestFusedProduct:
    def test_agrees_with_truncated_oracle(self):
        # the two differ by the kernel tail the oracle truncates (2.3e-8 and
        # 9.5e-9 of max), which is small only on a window this wide
        u, v, T = _product_pair((1, 32))
        for a, b in ((u, v), (u, u)):
            new = nonlinear_fourier_data(a, b, T)
            old = _truncated_product_oracle(a, b, T)
            assert np.array_equal(new.index, old.index)
            assert np.abs(new.data - old.data).max() <= 1e-7 * np.abs(old.data).max()

    @SHORT_WINDOWS
    def test_matches_every_workspace_sample(self, box):
        # carrying only the t-nodes where eta is non-zero changes no value
        u, v, T = _product_pair(box)
        P = _workspace(u.grid)[0][-1]
        for a, b in ((u, v), (u, u)):
            want = _workspace_product(a, b, T, P)
            got = nonlinear_fourier_data(a, b, T).data
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @SHORT_WINDOWS
    def test_closer_than_oracle_to_oversampled_product(self, box):
        u, v, T = _product_pair(box)
        for a, b in ((u, v), (u, u)):
            fine = _workspace_product(a, b, T, sfft.next_fast_len(16 * a.grid.n_tau))
            fused = np.abs(nonlinear_fourier_data(a, b, T).data - fine).max()
            truncated = np.abs(_truncated_product_oracle(a, b, T).data - fine).max()
            assert fused <= 0.1 * truncated

    @SHORT_WINDOWS
    def test_symmetric_in_its_factors(self, box):
        u, v, T = _product_pair(box)
        uv = nonlinear_fourier_data(u, v, T)
        vu = nonlinear_fourier_data(v, u, T)
        assert np.array_equal(uv.index, vu.index)
        assert np.abs(uv.data - vu.data).max() <= 1e-13 * np.abs(uv.data).max()

    def test_span_stored_operands_match_their_window_twins(self):
        # a field zero off window samples [20, 60), stored as that block and
        # on the whole window: the product reads both the same
        grid = FrequencyGrid.for_box(1, 4, 0.25)
        rng = np.random.default_rng(3)
        full, other = (rng.standard_normal((grid.box_count, grid.n_tau))
                       + 1j * rng.standard_normal((grid.box_count, grid.n_tau))
                       for _ in range(2))
        u = SpaceTimeField.from_columns(grid, grid.box_index, full[:, 20:60], lo=20)
        v = SpaceTimeField.from_columns(grid, grid.box_index, other)
        assert u.stored == (20, 60)
        twin = u.on_window()
        T = 0.125
        for (a, b), (wa, wb) in (((u, u), (twin, twin)), ((u, v), (twin, v))):
            got, want = nonlinear_fourier_data(a, b, T), nonlinear_fourier_data(wa, wb, T)
            assert np.array_equal(got.index, want.index) and got.stored == want.stored
            assert np.abs(got.data - want.data).max() <= 1e-13 * np.abs(want.data).max()

    @SHORT_WINDOWS
    def test_empty_operand_gives_zero_field(self, box):
        u, _, T = _product_pair(box)
        empty = SpaceTimeField.zero(u.grid)
        zeros = SpaceTimeField(u.grid, u.index.copy(), np.zeros_like(u.data))
        for a, b in ((u, empty), (empty, u), (empty, empty), (u, zeros), (zeros, zeros)):
            assert nonlinear_fourier_data(a, b, T).n_columns == 0


def _picard_oracle(u0, params, grid):
    """The Picard loop as fields: linear + N1 + N2 + N3 summed per step, each
    Z-norm by zsb_norm; returns (Z-norms, successive differences)."""
    p = params.norm_params()
    plan = PicardPlan.build(grid, p)
    linear = free_evolution_data(grid, u0)
    current = linear
    z_norms, diffs = [zsb_norm(current, p)], []
    for _ in range(params.max_iterations):
        fhat = nonlinear_fourier_data(current, current, params.T)
        nxt = linear + duhamel_n1(fhat, plan) + duhamel_n2(fhat, plan) + duhamel_n3(fhat, plan)
        z_norms.append(zsb_norm(nxt, p))
        diffs.append(zsb_norm(nxt - current, p))
        current = nxt
    return z_norms, diffs


def _solve_seen(u0, params, grid, **kwargs):
    """(trace, every (k, iterate) picard_solve handed to on_iterate, in order)."""
    seen = []
    trace = picard_solve(u0, params, grid, on_iterate=lambda k, u: seen.append((k, u)),
                         **kwargs)
    return trace, seen


def _assert_same_trace(a, b):
    (ta, seen_a), (tb, seen_b) = a, b
    assert ta.z_norms == tb.z_norms
    assert ta.successive_diffs == tb.successive_diffs
    assert [k for k, _ in seen_a] == [k for k, _ in seen_b] == list(range(len(ta.z_norms)))
    assert seen_a[-1][1] is ta.final and seen_b[-1][1] is tb.final
    for (_, x), (_, y) in zip(seen_a, seen_b):
        assert np.array_equal(x.index, y.index)
        assert np.array_equal(x.data, y.data)


class TestPicardPlan:
    @SHORT_WINDOWS
    def test_rhs_is_the_sum_of_the_pieces(self, box):
        u, v, T = _product_pair(box)
        plan = _plan(u.grid)
        fhat = nonlinear_fourier_data(u, v, T)
        # the full box, and one column, which takes the plan's row by its key
        for f in (fhat, SpaceTimeField(fhat.grid, fhat.index[1:2], fhat.data[1:2])):
            pieces = duhamel_n1(f, plan) + duhamel_n2(f, plan) + duhamel_n3(f, plan)
            rhs = duhamel_rhs(f, plan)
            assert np.array_equal(rhs.index, pieces.index)
            assert np.abs(rhs.data - pieces.data).max() <= 1e-13 * np.abs(pieces.data).max()
        assert duhamel_rhs(SpaceTimeField.zero(u.grid), plan).n_columns == 0

    @pytest.mark.parametrize("seed", [3, 7])
    def test_solve_matches_field_oracle(self, seed):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed)
        params = SolverParams(s=-0.6, T=0.125, max_iterations=8, contraction_tolerance=0.0)
        trace = picard_solve(u0, params, grid)
        z_norms, diffs = _picard_oracle(u0, params, grid)
        assert np.max(np.abs(np.subtract(trace.z_norms, z_norms)) / z_norms) <= 1e-13
        assert np.max(np.abs(np.subtract(trace.successive_diffs, diffs)) / diffs) <= 1e-11

    def test_arrays_are_read_only(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        plan = _plan(grid)
        lo, *weights = plan.z
        arrays = [plan.cols, plan.sigma, plan.psi, plan.r, plan.offsets, *lo, *weights]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0
        with pytest.raises(AttributeError):
            plan.r = plan.r.copy()

    def test_two_solves_give_the_same_trace(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, 3)
        params = SolverParams(s=-0.6, T=0.125, max_iterations=4, contraction_tolerance=0.0)
        _assert_same_trace(_solve_seen(u0, params, grid), _solve_seen(u0, params, grid))

    def test_initial_on_another_grid_rejected_before_any_transform(self, monkeypatch):
        import rnlab.solver

        def fail(*args, **kwargs):
            raise AssertionError("transform reached")

        monkeypatch.setattr(rnlab.solver, "nonlinear_fourier_data", fail)
        monkeypatch.setattr(rnlab.solver, "free_evolution_data", fail)
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        other = FrequencyGrid.for_box(1, 4, 0.25)
        params = SolverParams(s=-0.6, T=0.125, max_iterations=2)
        with pytest.raises(ValueError, match="grid mismatch"):
            picard_solve(rough_initial_data(grid, -0.6, 3), params, grid,
                         initial=SpaceTimeField.full(other))

    def test_initial_on_column_subset_is_scattered(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, 3)
        linear = free_evolution_data(grid, u0)
        subset = SpaceTimeField(grid, linear.index[::3], linear.data[::3])
        on_box = SpaceTimeField(grid, grid.box_index.copy(), subset.box_array())
        params = SolverParams(s=-0.6, T=0.125, max_iterations=4, contraction_tolerance=0.0)
        scattered = _solve_seen(u0, params, grid, initial=subset)
        _assert_same_trace(scattered, _solve_seen(u0, params, grid, initial=on_box))
        assert scattered[0].z_norms[0] == pytest.approx(
            zsb_norm(subset, params.norm_params()), rel=1e-14)


class TestSolverParams:
    def test_regularity_floor(self):
        with pytest.raises(ValueError, match="-2/3"):
            SolverParams(s=-0.7, T=0.1)

    def test_time_scale(self):
        assert SolverParams(s=-0.6, T=0.25).T == 0.25
        for T in (0.3, 0.0):
            with pytest.raises(ValueError, match="1/4"):
                SolverParams(s=-0.6, T=T)

    def test_product_checks_the_scale(self, duhamel_grid):
        u, _ = smooth_pair(duhamel_grid, seed=42)
        for T in (0.0, 0.5, -0.125):
            with pytest.raises(ValueError, match="1/4"):
                nonlinear_fourier_data(u, u, T)


class TestDuhamelOperators:
    def test_zero_inputs(self, duhamel_grid):
        T = 0.125
        z = SpaceTimeField.zero(duhamel_grid)
        for op in (duhamel_n1, duhamel_n2, duhamel_n3):
            assert op(nonlinear_fourier_data(z, z, T), _plan(duhamel_grid)).max_abs() == 0.0

    def test_n1_output_columns_single_mode(self, duhamel_grid):
        # conjugates add frequencies negatively: u = v at n0 -> column -2 n0
        T = 0.125
        ns = np.array([[1, 0]])
        u = free_evolution_data(duhamel_grid, (ns, np.array([1.0 + 0j])))
        out = duhamel_n1(nonlinear_fourier_data(u, u, T), _plan(duhamel_grid))
        out_index = out.index[np.abs(out.data).max(axis=1) > 1e-14]
        assert out_index.tolist() == [[-2, 0]]

    def test_n2_n3_vanish_on_low_modulation_product(self, duhamel_grid):
        # a product supported where |sigma| <= 1 is annihilated by 1 - psi
        prof = np.zeros(duhamel_grid.n_tau, complex)
        j0 = duhamel_grid.tau_index(-2.0)
        j1 = duhamel_grid.tau_index(-1.0)  # sigma = tau + 2 in [0, 1]
        prof[j0:j1 + 1] = 1.0
        fhat = SpaceTimeField.from_columns(duhamel_grid, [[1, 1]], [prof])
        z = SpaceTimeField.zero(duhamel_grid)
        assert duhamel_n2(fhat, _plan(duhamel_grid)).max_abs() == 0.0
        assert duhamel_n3(fhat, _plan(duhamel_grid)).max_abs() == 0.0

    def test_n3_multiplier_values(self, duhamel_grid):
        prof = np.zeros(duhamel_grid.n_tau, complex)
        j = duhamel_grid.tau_index(3.0)  # sigma = 3 + 2 = 5 on column (1,1)
        prof[j] = 2.0
        fhat = SpaceTimeField.from_columns(duhamel_grid, [[1, 1]], [prof])
        z = SpaceTimeField.zero(duhamel_grid)
        out = duhamel_n3(fhat, _plan(duhamel_grid))
        # -i * F * (1 - psi(5)) / (i 5) = -F / 5 since psi(5) = 0
        assert out.column([1, 1])[j] == pytest.approx(-2.0 / 5.0, rel=1e-12)

    def test_series_handles_zero_modulation(self, duhamel_grid):
        # data exactly on the paraboloid: sigma = 0 must stay finite
        prof = np.zeros(duhamel_grid.n_tau, complex)
        prof[duhamel_grid.tau_index(-1.0)] = 1.0  # sigma = 0 at n = (1, 0)
        fhat = SpaceTimeField.from_columns(duhamel_grid, [[1, 0]], [prof])
        z = SpaceTimeField.zero(duhamel_grid)
        out = duhamel_n1(fhat, _plan(duhamel_grid))
        assert np.isfinite(out.data).all()
        assert out.max_abs() > 0.0

    def test_duhamel_identity_against_quadrature(self, duhamel_grid):
        # N1+N2+N3 synthesized in time equals the adaptive-quadrature Duhamel
        # integral of the same product data, on [-T, T]
        T = 0.125
        u, v = smooth_pair(duhamel_grid, seed=42)
        fhat = nonlinear_fourier_data(u, v, T)
        plan = _plan(duhamel_grid)
        total = duhamel_n1(fhat, plan) + duhamel_n2(fhat, plan) + duhamel_n3(fhat, plan)
        times = np.linspace(-T, T, 7)
        lhs = time_slices(total, times)
        rhs = duhamel_time_integral(fhat, times)
        assert np.abs(lhs - rhs).max() <= 1e-6 * np.abs(rhs).max()


def test_import_leaves_test_oracles_out():
    # the quadrature and RK4 references live in tests/oracles.py and every
    # transform runs on numpy.fft, so the package runs with scipy unimportable
    src = str(Path(rnlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = """
import sys, tempfile
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import rnlab, rnlab.checks
from rnlab.cli import main
from rnlab.grid import FrequencyGrid, random_field, spacetime_convolve
from rnlab.norms import l4_spacetime_norm
with tempfile.TemporaryDirectory() as out:
    codes = [main(["solve", "--d", "1", "--n-max", "4", "--T", "0.0625",
                   "--max-iterations", "2", "--out", out]),
             main(["norm", "--d", "2", "--n-max", "3", "--seed", "1", "--out", out])]
grid = FrequencyGrid.for_box(2, 3)
u = random_field(grid, np.random.default_rng(0), envelope_power=-1.0)
print(rnlab.__file__)
print(codes, spacetime_convolve(u, u).n_columns, l4_spacetime_norm(grid, [u], (-0.5, 0.5)) > 0)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[-2:] == [rnlab.__file__, "[0, 0] 49 True"]


class TestPicard:
    def test_zero_data_fixed_at_zero(self, duhamel_grid):
        params = SolverParams(s=-0.6, T=0.125, max_iterations=3)
        ns = duhamel_grid.box_index
        trace = picard_solve((ns, np.zeros(len(ns), complex)), params, duhamel_grid)
        assert trace.converged
        assert all(z == 0.0 for z in trace.z_norms)

    def test_contraction_on_rough_data(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed=7)
        params = SolverParams(s=-0.6, T=0.0625, max_iterations=8,
                              contraction_tolerance=1e-12)
        trace = picard_solve(u0, params, grid)
        ratios = trace.contraction_ratios()
        assert len(ratios) >= 5
        assert all(r < 1.0 for r in ratios)

    def test_fixed_point_residual(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed=7)
        params = SolverParams(s=-0.6, T=0.0625, max_iterations=25,
                              contraction_tolerance=1e-9)
        trace = picard_solve(u0, params, grid)
        assert trace.converged
        # converged iterate satisfies || u - Gamma[u] || <= tolerance
        linear = free_evolution_data(grid, u0)
        u = trace.final
        rhs = duhamel_rhs(nonlinear_fourier_data(u, u, params.T), _plan(grid))
        resid = zsb_norm(linear + rhs - u, params.norm_params())
        assert resid <= params.contraction_tolerance

    def test_uniqueness_under_perturbed_initialization(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed=3)
        params = SolverParams(s=-0.6, T=0.0625, max_iterations=30,
                              contraction_tolerance=1e-10)
        t1 = picard_solve(u0, params, grid)
        linear = free_evolution_data(grid, u0)
        rng = np.random.default_rng(5)
        bump = SpaceTimeField(grid, linear.index.copy(),
                              0.05 * (rng.standard_normal(linear.data.shape)
                                      + 1j * rng.standard_normal(linear.data.shape))
                              * np.exp(-np.abs(linear.mod_array()) / 4.0))
        t2 = picard_solve(u0, params, grid, initial=linear + bump)
        assert t1.converged and t2.converged
        from rnlab.norms import ct_hs_norm
        gap = ct_hs_norm(t1.final - t2.final, params.s,
                         (-params.T, params.T))
        assert gap <= 10.0 * params.contraction_tolerance

    def test_time_restriction_consistency(self):
        # the T-solve restricted to [-T/2, T/2] matches the T/2-solve there;
        # the two canonical extensions differ outside the common interval, so
        # agreement is limited by the window tail of the cutoff transforms
        # (measured ~3e-4 at pad 8, ~3e-6 at pad 100), not by the contraction
        # tolerance
        grid = FrequencyGrid.for_box(1, 8, 0.25, tau_pad=100.0)
        u0 = rough_initial_data(grid, -0.6, seed=13)
        tol = 1e-9
        big = picard_solve(u0, SolverParams(s=-0.6, T=0.125, max_iterations=30,
                                            contraction_tolerance=tol), grid)
        small = picard_solve(u0, SolverParams(s=-0.6, T=0.0625, max_iterations=30,
                                              contraction_tolerance=tol), grid)
        assert big.converged and small.converged
        times = np.linspace(-0.0625, 0.0625, 9)
        a = time_slices(big.final, times)
        b = time_slices(small.final, times)
        w = (1.0 + big.final.norm_sq_columns().astype(float)) ** -0.6
        gap = np.sqrt((w[:, None] * np.abs(a - b) ** 2).sum(axis=0)).max()
        scale = np.sqrt((w[:, None] * np.abs(a) ** 2).sum(axis=0)).max()
        assert gap <= 1e-4 * scale

    def test_benchmark_reference_trace(self):
        # the benchmark's picard_1d workload on seed 0 against its stored trace
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "picard_1d.json"
        with open(path) as f:
            stored = json.load(f)
        cfg = stored["config"]
        grid = FrequencyGrid.for_box(cfg["d"], cfg["n_max"], cfg["tau_step"])
        params = SolverParams(s=cfg["s"], T=cfg["T"], max_iterations=cfg["iterations"],
                              contraction_tolerance=0.0)
        trace = picard_solve(rough_initial_data(grid, cfg["s"], 0), params, grid)
        want = np.asarray(stored["z_norms"]["0"])
        got = np.asarray(trace.z_norms)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8

    def test_divergence_raises_with_trace(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        ns, vals = rough_initial_data(grid, -0.6, seed=1)
        params = SolverParams(s=-0.6, T=0.25, max_iterations=25,
                              contraction_tolerance=1e-12)
        with pytest.raises(DivergenceError) as err:
            picard_solve((ns, 40.0 * vals), params, grid)
        assert len(err.value.trace.z_norms) >= 2

    def test_non_finite_iterate_raises_with_trace(self):
        # NaN > 10 * radius is False, so the Z-norm is checked for finiteness
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed=1)
        initial = free_evolution_data(grid, u0)
        initial.data[3, 100] = np.nan
        params = SolverParams(s=-0.6, T=0.125, max_iterations=5)
        with pytest.raises(DivergenceError, match="nan") as err:
            picard_solve(u0, params, grid, initial=initial)
        assert len(err.value.trace.z_norms) == 2
        assert math.isnan(err.value.trace.z_norms[-1])

    def test_trace_json_schema(self):
        import json
        grid = FrequencyGrid.for_box(1, 4, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed=2)
        trace = picard_solve(u0, SolverParams(s=-0.6, T=0.0625, max_iterations=3,
                                              contraction_tolerance=1e-12), grid)
        obj = json.loads(trace.to_json_text())
        assert set(obj) == {"z_norms", "successive_diffs", "contraction_ratios",
                            "converged", "iterations"}
        assert obj["iterations"] == len(obj["z_norms"])


class TestContinuousDependence:
    def test_identical_data(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed=9)
        params = SolverParams(s=-0.6, T=0.0625, max_iterations=6,
                              contraction_tolerance=1e-12)
        din, dout, q = continuous_dependence(u0, u0, params, grid)
        assert din == 0.0 and dout == 0.0

    def test_small_perturbation_quotient(self):
        grid = FrequencyGrid.for_box(1, 8, 0.25)
        ns, vals = rough_initial_data(grid, -0.6, seed=9)
        rng = np.random.default_rng(1)
        pert = rng.standard_normal(len(vals)) + 1j * rng.standard_normal(len(vals))
        pert *= 1e-3 / spatial_hs_norm(ns, pert, -0.6)
        params = SolverParams(s=-0.6, T=0.0625, max_iterations=8,
                              contraction_tolerance=1e-12)
        din, dout, q = continuous_dependence((ns, vals), (ns, vals + pert),
                                             params, grid)
        assert din == pytest.approx(1e-3, rel=1e-9)
        assert 0.2 < q < 5.0

    def test_quotient_stable_under_lattice_refinement(self):
        # grid-refinement consistency: the Lipschitz quotient stays bounded
        # as the spatial truncation doubles 8 -> 16 -> 32
        params = SolverParams(s=-0.6, T=0.0625, max_iterations=7,
                              contraction_tolerance=1e-12)
        quotients = []
        for n_max in (8, 16, 32):
            grid = FrequencyGrid.for_box(1, n_max, 0.25)
            ns, vals = rough_initial_data(grid, -0.6, seed=21)
            rng = np.random.default_rng(2)
            pert = rng.standard_normal(len(vals)) + 1j * rng.standard_normal(len(vals))
            pert *= 1e-3 / spatial_hs_norm(ns, pert, -0.6)
            _, _, q = continuous_dependence((ns, vals), (ns, vals + pert),
                                            params, grid)
            quotients.append(q)
        assert max(quotients) <= 3.0 * min(quotients)
        assert max(quotients) < 10.0


class TestReferenceIntegrator:
    def test_zero_data(self):
        grid = FrequencyGrid.for_box(1, 4, 0.25)
        ns = grid.box_index
        traj = reference_integrate((ns, np.zeros(len(ns), complex)), grid,
                                   T=0.1, steps=8)
        assert traj.reliable
        assert np.abs(traj.states).max() == 0.0

    def test_linear_flow_mass_conserved(self):
        grid = FrequencyGrid.for_box(1, 4, 0.25)
        rng = np.random.default_rng(4)
        ns = grid.box_index
        vals = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
        traj = reference_integrate((ns, vals), grid, T=0.2, steps=16,
                                   include_nonlinearity=False)
        mass = np.linalg.norm(traj.states, axis=1)
        assert np.abs(mass - mass[0]).max() <= 1e-10 * mass[0]

    def test_first_picard_iterate_matches_reference(self):
        # single small mode: the first iterate agrees with the true solution
        # to O(a^3) + discretization, inside 1e-6 relative
        grid = FrequencyGrid(2, 2, 400.0, 0.25)
        a = 1e-3
        n0 = np.array([[1, 0]])
        params = SolverParams(s=0.0, T=0.125, max_iterations=1,
                              contraction_tolerance=1e-15)
        trace = picard_solve((n0, np.array([a + 0j])), params, grid)
        first = trace.final
        traj = reference_integrate((n0, np.array([a + 0j])), grid,
                                   T=params.T, steps=24)
        assert traj.reliable
        sel = np.linspace(-params.T, params.T, 9)
        approx = time_slices(first, sel)
        box_rows = grid.flat_keys(first.index)
        idx = [int(np.argmin(np.abs(traj.times - t))) for t in sel]
        exact = traj.states[idx][:, box_rows].T
        err = np.abs(approx - exact).max()
        assert err <= 1e-6 * np.abs(exact).max()


class TestPeakBytes:
    @pytest.mark.parametrize("box", [(1, 8), (2, 4), (2, 8)],
                             ids=["line_8", "box_2_4", "box_2_8"])
    def test_estimate_bounds_the_traced_peak(self, box):
        # the estimate leaves out the cutoff transforms cached per process,
        # so a first solve fills that cache before the traced one
        grid = FrequencyGrid.for_box(*box)
        params = SolverParams(s=-0.6, T=0.125, max_iterations=3, contraction_tolerance=0.0)
        u0 = rough_initial_data(grid, params.s, seed=4)
        picard_solve(u0, params, grid)
        tracemalloc.start()
        try:
            trace = picard_solve(u0, params, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.z_norms) == 4
        estimate = peak_bytes(grid, params)
        # measured: 1.49x on line_8 (17 columns, where N1's lattice rows
        # weigh most), 1.15x on box_2_4 and 1.05x on box_2_8; on d=2 the
        # peak is the Duhamel step, with the plan's r and Z weight alive
        assert peak <= estimate <= 1.5 * peak, f"estimate {estimate / peak:.2f}x the peak"

    def test_peak_does_not_grow_with_iterations(self):
        grid = FrequencyGrid.for_box(1, 8)
        u0 = rough_initial_data(grid, -0.6, seed=4)

        def traced_peak(iterations):
            params = SolverParams(s=-0.6, T=0.125, max_iterations=iterations,
                                  contraction_tolerance=0.0)
            tracemalloc.start()
            try:
                trace = picard_solve(u0, params, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(trace.z_norms) == iterations + 1
            return peak

        traced_peak(2)  # fills the per-process cutoff-transform cache
        short, long = traced_peak(2), traced_peak(8)
        assert long <= 1.1 * short, f"8 iterations peak at {long / short:.2f}x 2 iterations"


class TestFieldDumps:
    def test_roundtrip(self, tmp_path):
        grid = FrequencyGrid.for_box(1, 4, 0.25)
        u0 = rough_initial_data(grid, -0.6, seed=2)
        u = free_evolution_data(grid, u0)
        path = tmp_path / "field.bin"
        dump_field(u, path)
        back = load_field(path)
        assert back.grid == grid
        # payload is complex64, so round-trip is exact at single precision
        assert np.abs(back.data - u.data).max() <= 1e-6 * np.abs(u.data).max()

    def test_load_rejects_non_finite(self, tmp_path):
        grid = FrequencyGrid.for_box(1, 4, 0.25)
        u = free_evolution_data(grid, rough_initial_data(grid, -0.6, seed=2))
        u.data[1, 5] = np.inf
        path = tmp_path / "field.bin"
        dump_field(u, path)
        with pytest.raises(ValueError, match="non-finite"):
            load_field(path)
