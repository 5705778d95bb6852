"""Picard fixed-point scheme for i u_t + Laplacian u = conj(u)^2.

The Duhamel map is realized entirely on space-time Fourier data.  With
F = eta_{2T} conj(u) * eta_{2T} conj(v) (data: one dealiased product of the
reflected factors' (x, t) samples times eta_{2T}) and sigma = tau + |n|^2,
the three nonlinear pieces are

  N1: psi(sigma)-localized part of the Duhamel multiplier, realized through
      the Taylor series (e^{it sigma}-1)/(i sigma) = sum_k (it)^k sigma^{k-1}/k!
      whose k-th term is a t^k eta(t) free evolution, i.e. a column profile
      F(t^k eta)(sigma) times the sigma^{k-1}-moment of F;
  N2: the stationary-phase remainder collapsed in tau and freely evolved:
      i * F(eta)(sigma) * Int F (1-psi)/(i sigma) dtau;
  N3: the pointwise multiplier -i (1-psi(sigma))/(i sigma) applied to F.

With the real r = (1-psi(sigma))/sigma, N2 = F(eta)(sigma) Int F r dtau and
N3 = -r F.  Everything that depends only on the grid, the cutoffs and the
norm parameters lives in a PicardPlan built once per solve.  The fixed-point
iterate is Gamma[u] = eta(t) e^{it Lap} u0 + N1 + N2 + N3 applied with v = u,
where N2 enters N1's series as its k = 0 term.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.integrate import quad_vec

from . import cutoffs
from .cutoffs import CutoffSpec, free_evolution_data
from .grid import FrequencyGrid, SpaceTimeField, _padded_product, _workspace, conjugate_reflect
from .norms import NormParams, _z_apply, _z_factors, ct_hs_norm, spatial_hs_norm

_SERIES_TOL = 1e-12
_SERIES_MAX_TERMS = 60


@dataclass(frozen=True)
class SolverParams:
    """Picard iteration parameters; b is pinned to 2/3 by the bilinear estimate."""

    s: float
    T: float
    b: float = 2.0 / 3.0
    max_iterations: int = 12
    contraction_tolerance: float = 1e-10
    ball_radius: float | None = None
    mod_threshold: float = 2.0**-10

    def __post_init__(self):
        if not self.s > -2.0 / 3.0:
            raise ValueError("regularity must satisfy s > -2/3")
        if not 0.0 < self.T <= 0.25:
            raise ValueError("localization scale must satisfy 0 < T <= 1/4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def norm_params(self):
        return NormParams(s=self.s, b=self.b, mod_threshold=self.mod_threshold)


@dataclass
class IterationTrace:
    """Iterates, their Z-norms, successive differences, and contraction ratios."""

    iterates: list = field(default_factory=list)
    z_norms: list = field(default_factory=list)
    successive_diffs: list = field(default_factory=list)
    converged: bool = False

    def contraction_ratios(self, floor=1e-14):
        out = []
        for a, b in zip(self.successive_diffs, self.successive_diffs[1:]):
            if a > floor:
                out.append(b / a)
        return out

    def to_json_text(self):
        obj = {
            "z_norms": self.z_norms,
            "successive_diffs": self.successive_diffs,
            "contraction_ratios": self.contraction_ratios(),
            "converged": self.converged,
            "iterations": len(self.iterates),
        }
        return json.dumps(obj, indent=2) + "\n"


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the contraction ball; carries the trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def nonlinear_fourier_data(u, v, cutoff):
    """Data of (eta_{2T} conj(u)) * (eta_{2T} conj(v)) as one dealiased (x, t) product.

    The reflected factors go through ``grid._padded_product`` weighted by
    eta(t / 2T), which vanishes off |t| < 4T, so only those t-nodes pass
    the spatial transforms.  The cut-off factor is not truncated to the
    tau-window: its transform tail aliases at the workspace period.  When
    ``v is u`` the one reflected factor is passed twice and squared.
    """
    u.grid.assert_compatible(v.grid)
    if not (u.data.any() and v.data.any()):
        return SpaceTimeField.zero(u.grid)
    fu = conjugate_reflect(u)
    fv = fu if v is u else conjugate_reflect(v)
    return _padded_product(fu, fv, _eta_weight(cutoff))


def _eta_weight(cutoff):
    """eta(t / 2T), the product's weight on its t-nodes."""
    return lambda t: cutoff.eta(t / (2.0 * cutoff.T))


def _psi_band(grid, nsq, cutoff):
    """(tau-indices, sigma, psi(sigma)) on each column's supp-psi band, shape (K, B).

    psi vanishes for |sigma| >= support, so column n needs only the samples
    from tau = -|n|^2 - support upward, located in closed form; off the band
    psi(sigma) is exactly zero.  The band holds one sample more than the
    2 support / tau_step + 1 of an exact fit, so a start that rounds one
    sample low still covers it.
    """
    support = cutoff.psi.support
    width = min(int(math.floor(2.0 * support / grid.tau_step)) + 2, grid.n_tau)
    start = np.floor((-support - nsq) / grid.tau_step).astype(np.int64) + grid.half_index
    cols = np.clip(start, 0, grid.n_tau - width)[:, None] + np.arange(width)
    # the same float operations as mod_array, so sigma matches it bitwise
    sigma = grid.tau_nodes[cols] + nsq[:, None].astype(float)
    return cols, sigma, cutoff.psi(sigma)


@dataclass(frozen=True)
class PicardPlan:
    """What no Picard step changes, built once per solve on every box column.

    ``cols``, ``sigma``, ``psi``: each column's supp-psi band (``_psi_band``).
    ``r``: the real high-modulation multiplier (1 - psi(sigma)) / sigma on
    every entry, zero where psi = 1, so (1 - psi) / (i sigma) = -i r.
    ``offsets``: each column's sigma-lattice position of tau_0,
    |n|^2 / tau_step - half + j_max.  ``z``: the Z-norm factors of the box
    (``norms._z_factors``).  Every array is read-only.  A field's columns
    take the rows at their flat keys.
    """

    grid: FrequencyGrid
    cutoff: CutoffSpec
    cols: np.ndarray
    sigma: np.ndarray
    psi: np.ndarray
    r: np.ndarray
    offsets: np.ndarray
    z: tuple

    @classmethod
    def build(cls, grid, cutoff, p):
        """The plan of ``grid`` for the cutoff pair and the Z-norm parameters ``p``."""
        nsq = FrequencyGrid.norm_sq(grid.box_index)
        cols, sigma, psi = _psi_band(grid, nsq, cutoff)
        # the float operations of mod_array, so the Z factors are zsb_norm's
        mod = grid.tau_nodes[None, :] + nsq[:, None].astype(float)
        z = _z_factors(mod, nsq.astype(float), p)
        np.put_along_axis(mod, cols, 1.0, axis=1)  # keeps sigma = 0 out of the division
        r = 1.0 / mod
        band = np.zeros(sigma.shape)
        keep = psi < 1.0
        # (1 - psi) * (1 / sigma): the rounding of the complex (1 - psi) / (i sigma)
        band[keep] = (1.0 - psi[keep]) * (1.0 / sigma[keep])
        np.put_along_axis(r, cols, band, axis=1)
        _, j_max = cutoffs.sigma_lattice(grid, t_power=0, profile=cutoff.eta)
        offsets = cutoffs.profile_offsets(grid, nsq, j_max)
        arrays = (cols, sigma, psi, r, offsets) + z[0] + z[1:]
        for a in arrays:
            a.setflags(write=False)
        return cls(grid, cutoff, cols, sigma, psi, r, offsets, z)


def _n1_terms(fhat, plan, rows):
    """N1's Taylor coefficients a_k (K,) and sigma-lattices F(t^k eta), k = 1, 2, ...

    a_k = -(i^k / k!) g_k with the moment g_k(n) = Int F psi sigma^{k-1} dtau,
    taken over the supp-psi band of each column only.  The series is
    truncated on the coefficients: the bound max|a_k| * max|F(t^k eta)| on
    the largest entry of term k must fall below 1e-12 of the largest bound
    so far twice in a row.  |sigma| <= 2 on supp psi keeps the terms bounded
    by 4^k / k!, so the sigma -> 0 limit is removable by construction.
    """
    grid = plan.grid
    cols, sigma = plan.cols[rows], plan.sigma[rows]
    weighted = (np.take_along_axis(fhat.data, cols, axis=1) * plan.psi[rows]
                * grid.tau_weights[cols])
    sigma_pow = np.ones_like(sigma)
    coefs, lattices = [], []
    coef = 1.0
    largest = 0.0
    below = 0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        coef *= 1j / k  # builds i^k / k!
        a = (-coef) * (weighted * sigma_pow).sum(axis=1)
        lattice, _ = cutoffs.sigma_lattice(grid, t_power=k, profile=plan.cutoff.eta)
        coefs.append(a)
        lattices.append(lattice)
        bound = np.abs(a).max() * np.abs(lattice).max()
        largest = max(largest, bound)
        if bound <= _SERIES_TOL * max(largest, 1e-300):
            below += 1
            if below >= 2:
                break
        else:
            below = 0
        sigma_pow = sigma_pow * sigma
    return coefs, lattices


def _rows(fhat):
    """fhat's rows in a plan's box arrays; on the whole box a slice, so they are views."""
    if fhat.n_columns == fhat.grid.box_count:
        return slice(None)
    return fhat.grid.flat_keys(fhat.index)


def _gather(series, offsets, n_tau):
    """Row i of ``series`` from offsets[i] on, n_tau long: its sigma-lattice at column i."""
    return sliding_window_view(series, n_tau, axis=1)[np.arange(len(offsets)), offsets]


def _eta_lattice(plan):
    return cutoffs.sigma_lattice(plan.grid, t_power=0, profile=plan.cutoff.eta)


def duhamel_n1(fhat, plan):
    """psi-localized Duhamel piece via the convergent Taylor construction.

    Term k is a_k(n) F(t^k eta)(sigma) (``_n1_terms``).  The output is one
    (columns x terms) @ (terms x lattice) contraction of the cached
    sigma-lattice rows, gathered at each column's |n|^2 shift.
    """
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    rows = _rows(fhat)
    coefs, lattices = _n1_terms(fhat, plan, rows)
    series = np.stack(coefs, axis=1) @ np.stack(lattices)
    return SpaceTimeField(fhat.grid, fhat.index.copy(),
                          _gather(series, plan.offsets[rows], fhat.grid.n_tau))


def duhamel_n2(fhat, plan):
    """Collapsed high-modulation piece i F(eta)(sigma) Int F (1-psi)/(i sigma) dtau.

    Written with the multiplier as -i r, which rounds as the complex
    (1-psi)/(i sigma) does.
    """
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    grid = fhat.grid
    column_sums = -1j * ((fhat.data * plan.r[_rows(fhat)]) @ grid.tau_weights)
    profile = cutoffs.gather_profile(grid, fhat.norm_sq_columns(), *_eta_lattice(plan))
    return SpaceTimeField(grid, fhat.index.copy(), 1j * profile * column_sums[:, None])


def duhamel_n3(fhat, plan):
    """Stationary high-modulation piece: -r F, the multiplier -i (1-psi)/(i sigma)."""
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    return SpaceTimeField(fhat.grid, fhat.index.copy(), -fhat.data * plan.r[_rows(fhat)])


def duhamel_rhs(fhat, plan):
    """N1 + N2 + N3 of the product data ``fhat`` in one array.

    N2 is the k = 0 term of N1's series, with coefficient Int F r dtau and
    the F(eta) lattice; one contraction and one gather give N1 + N2, and
    N3 = -r F is subtracted in place.
    """
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    rows = _rows(fhat)
    high = fhat.data * plan.r[rows]
    coefs, lattices = _n1_terms(fhat, plan, rows)
    series = (np.stack([high @ plan.grid.tau_weights] + coefs, axis=1)
              @ np.stack([_eta_lattice(plan)[0]] + lattices))
    out = _gather(series, plan.offsets[rows], plan.grid.n_tau)
    out -= high
    return SpaceTimeField(fhat.grid, fhat.index.copy(), out)


def duhamel_time_integral(fhat, times):
    """Adaptive-quadrature oracle -i Int_0^t e^{-i(t-t')|n|^2} F(n, t') dt'.

    F(n, t') is synthesized from the same discrete data the operators see, so
    the comparison isolates the psi-split, multiplier, and series machinery.
    """
    grid = fhat.grid
    nsq = fhat.norm_sq_columns().astype(float)
    tau = grid.tau_nodes
    wdata = fhat.data * grid.tau_weights[None, :]

    def f_of_t(t):
        return wdata @ np.exp(1j * t * tau)

    out = np.zeros((fhat.n_columns, len(times)), dtype=np.complex128)
    for j, t in enumerate(times):
        if t == 0.0:
            continue

        def integrand(tp, t=t):
            return -1j * np.exp(-1j * (t - tp) * nsq) * f_of_t(tp)

        val, _ = quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-10)
        out[:, j] = val
    return out


# -- Picard iteration --------------------------------------------------------


def rough_initial_data(grid, s, seed):
    """Unit-H^s random data: <n>^{-s-1}-enveloped complex Gaussians, normalized.

    Returns (columns, values) over the whole box.
    """
    rng = np.random.default_rng(seed)
    ns = grid.box_index.copy()
    g = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
    vals = (1.0 + FrequencyGrid.norm_sq(ns).astype(float)) ** ((-s - 1.0) / 2.0) * g
    vals /= spatial_hs_norm(ns, vals, s)
    return ns, vals


def peak_bytes(grid, params):
    """Estimated peak bytes of ``picard_solve`` on ``grid``, without building anything.

    With K box columns: max_iterations + 1 iterate fields, the plan (r, the
    Z weight, the psi band), and the larger step transient, the product
    (reflected factor, result, (K, P) rows, spatial workspace at eta's
    t-nodes) or the Duhamel step (F, F r, N1's series of K plus at most
    _SERIES_MAX_TERMS + 1 lattice rows).  Cached cutoff transforms are not counted.
    """
    cutoff = CutoffSpec(T=params.T)
    K, M = grid.box_count, grid.n_tau
    shape, _, n_live, _ = _workspace(grid, _eta_weight(cutoff))
    lattice = M + 2 * grid.dimension * grid.n_max**2 / grid.tau_step
    band = 24 * K * (2.0 * cutoff.psi.support / grid.tau_step + 2)
    product = 32 * K * M + 16 * (K * shape[-1] + math.prod(shape[:-1]) * n_live)
    series = 32 * K * M + 16 * (K + _SERIES_MAX_TERMS + 1) * lattice
    return int(16 * K * M * (params.max_iterations + 2) + band + max(product, series))


def picard_solve(u0, params, grid, cutoff=None, initial=None):
    """Iterate Gamma[u] = eta e^{it Lap} u0 + N(u, u) from the linear solution.

    ``u0`` is spatial data as a (columns, values) pair or box array;
    ``initial``, a field on ``grid``, replaces the linear solution as the
    first iterate.  Both are taken onto every box column, where the
    ``PicardPlan`` lives.  Raises DivergenceError (trace attached) when an
    iterate's Z-norm is not finite or exceeds ten times the ball radius.
    """
    cutoff = cutoff if cutoff is not None else CutoffSpec(T=params.T)
    if abs(cutoff.T - params.T) > 1e-12:
        raise ValueError("cutoff scale and solver T must agree")
    if initial is not None:
        grid.assert_compatible(initial.grid)
    plan = PicardPlan.build(grid, cutoff, params.norm_params())
    w = grid.tau_weights
    linear = _on_box(free_evolution_data(grid, u0, cutoff.eta, prune=False))
    trace = IterationTrace()
    current = linear
    z0 = _z_apply(current.data, plan.z, w)
    radius = params.ball_radius if params.ball_radius is not None else max(z0, 1e-12)
    if initial is not None:
        current = _on_box(initial)
        z0 = _z_apply(current.data, plan.z, w)
    trace.iterates.append(current)
    trace.z_norms.append(z0)
    for _ in range(params.max_iterations):
        # the product is not held through the norms and the next product
        nxt = duhamel_rhs(nonlinear_fourier_data(current, current, cutoff), plan)
        if nxt.n_columns:
            nxt.data += linear.data
        else:
            nxt = linear.copy()
        z = _z_apply(nxt.data, plan.z, w)
        diff = _z_apply(nxt.data - current.data, plan.z, w)
        trace.iterates.append(nxt)
        trace.z_norms.append(z)
        trace.successive_diffs.append(diff)
        current = nxt
        if not math.isfinite(z) or z > 10.0 * radius:
            raise DivergenceError(
                f"iterate Z-norm {z:.3e} exceeded 10x ball radius {radius:.3e}", trace
            )
        if diff < params.contraction_tolerance:
            trace.converged = True
            break
    return trace


def _on_box(u):
    """u on every box column, in box order."""
    if u.n_columns == u.grid.box_count:
        return u
    return SpaceTimeField(u.grid, u.grid.box_index.copy(), u.box_array())


def continuous_dependence(u0a, u0b, params, grid, cutoff=None, samples_per_unit=8):
    """(input H^s distance, output C_t H^s distance on [-T, T], quotient)."""
    ta = picard_solve(u0a, params, grid, cutoff)
    tb = picard_solve(u0b, params, grid, cutoff)
    nsa, va = cutoffs._spatial_pairs(grid, u0a)
    nsb, vb = cutoffs._spatial_pairs(grid, u0b)
    if not np.array_equal(nsa, nsb):
        raise ValueError("initial data must live on the same columns")
    input_dist = spatial_hs_norm(nsa, va - vb, params.s)
    diff = ta.iterates[-1] - tb.iterates[-1]
    output_dist = ct_hs_norm(diff, params.s, (-params.T, params.T), samples_per_unit)
    if input_dist == 0.0:
        return 0.0, output_dist, float("nan")
    return input_dist, output_dist, output_dist / input_dist


# -- classical reference integrator ------------------------------------------


@dataclass
class ReferenceTrajectory:
    """Fourth-order reference trajectory with a step-halving reliability flag."""

    times: np.ndarray
    states: np.ndarray  # (len(times), box_count) spatial coefficients
    reliable: bool
    halving_error: float


def _nonlinear_coefficients(vals, grid, pad):
    """F_x(conj(u)^2)(n) from box coefficients via dealiased padded FFTs."""
    side = grid.box_side
    d = grid.dimension
    emb = np.zeros((pad,) * d, dtype=np.complex128)
    idx = np.ix_(*[np.arange(-grid.n_max, grid.n_max + 1) % pad] * d)
    emb[idx] = vals.reshape((side,) * d)
    phys = sfft.ifftn(emb) * pad**d
    sq = np.conj(phys) ** 2
    back = sfft.fftn(sq) / pad**d
    return back[idx].reshape(-1)


def reference_integrate(u0, grid, T, steps, include_nonlinearity=True):
    """Lawson-RK4 exponential integrator for the Duhamel form, both time signs.

    Used only as a cross-validation oracle on smooth data; integrates
    d/dt u_hat = -i |n|^2 u_hat - i F_x(conj(u)^2) with the linear part
    removed exactly by the integrating factor.
    """
    ns, vals = cutoffs._spatial_pairs(grid, u0)
    if not np.array_equal(ns, grid.box_index):
        full = np.zeros(grid.box_count, dtype=np.complex128)
        full[grid.flat_keys(ns)] = vals
        vals = full
    pad = sfft.next_fast_len(2 * grid.box_side - 1)
    nsq = FrequencyGrid.norm_sq(grid.box_index).astype(float)

    def rhs(t, w):
        # w = e^{i nsq t} u_hat(t);  dw/dt = -i e^{i nsq t} N(u_hat)
        if not include_nonlinearity:
            return np.zeros_like(w)
        u = np.exp(-1j * nsq * t) * w
        return -1j * np.exp(1j * nsq * t) * _nonlinear_coefficients(u, grid, pad)

    def run(n_steps):
        # integrate both time directions from 0; returns states at
        # times = linspace(-T, T, 2 n_steps + 1)
        states = [None] * (2 * n_steps + 1)
        states[n_steps] = vals.copy()
        for sign in (1.0, -1.0):
            dt = sign * T / n_steps
            w = vals.copy()
            t = 0.0
            for step in range(1, n_steps + 1):
                k1 = rhs(t, w)
                k2 = rhs(t + dt / 2, w + dt * k1 / 2)
                k3 = rhs(t + dt / 2, w + dt * k2 / 2)
                k4 = rhs(t + dt, w + dt * k3)
                w = w + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
                t = step * dt
                states[n_steps + int(sign) * step] = np.exp(-1j * nsq * t) * w
        return np.stack(states)

    coarse = run(steps)
    fine = run(2 * steps)
    err = float(np.abs(coarse - fine[::2]).max())
    times = np.linspace(-T, T, 4 * steps + 1)
    return ReferenceTrajectory(times, fine, err <= 1e-6, err)


# -- flat binary field dumps --------------------------------------------------

_HEADER = struct.Struct("<iiddd")  # dimension, n_max, tau_min, tau_max, tau_step


def dump_field(u, path):
    """Write a field as header + little-endian complex64 in row-major (n, tau) order."""
    box = u.box_array().reshape(u.grid.box_count, u.grid.n_tau)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(u.grid.dimension, u.grid.n_max,
                             u.grid.tau_min, u.grid.tau_max, u.grid.tau_step))
        f.write(np.ascontiguousarray(box.astype(np.complex64)).tobytes())


def load_field(path):
    """Read a field written by dump_field (complex64 payload widens to complex128)."""
    with open(path, "rb") as f:
        dim, n_max, tau_min, tau_max, tau_step = _HEADER.unpack(f.read(_HEADER.size))
        grid = FrequencyGrid(dim, n_max, tau_max, tau_step)
        payload = np.frombuffer(f.read(), dtype="<c8")
    return SpaceTimeField.from_columns(grid, grid.box_index, payload)
