"""Reference solutions that only the tests use: the quadrature Duhamel
integral, the Lawson-RK4 integrator of i u_t + Laplacian u = conj(u)^2,
and the replaced argsort reflection and per-s threshold scan.

They live outside the package, so ``import rnlab`` does not load
``scipy.integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.integrate import quad_vec

from rnlab import cutoffs, norms, sweep
from rnlab.grid import FrequencyGrid, SpaceTimeField
from rnlab.norms import NormParams


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


# -- replaced paths of the reflection and the threshold scan -----------------


def conjugate_reflect_by_argsort(u):
    """conj(u(-n, -tau)), its reflected index put in order by an argsort."""
    ns, data = -u.index, np.conj(u.data[:, ::-1])
    order = np.argsort(u.grid.flat_keys(ns), kind="stable")
    return SpaceTimeField(u.grid, ns[order], data[order])


def norm_at_s(u, p, mode):
    """X^{s,b} or Z^{s,b} norm of u at one s, each call finding u's span anew."""
    if mode == "X":
        nsq = u.norm_sq_columns().astype(float)
        return float(np.sqrt(((1.0 + nsq) ** p.s * norms._x_columns(u, p.b)).sum()))
    data, mod, w, nsq = norms._on_span(u)
    return norms._z_apply(data, norms._z_factors(mod, nsq, p), w)


def threshold_scan_per_s(kind, s_list, b, mode, n_list, tau_step=sweep.SCAN_TAU_STEP):
    """``sweep.threshold_scan`` as a loop over s that re-norms every field per s."""
    ns = [int(N) for N in n_list]
    points = [sweep._sweep_point(kind, N, tau_step) for N in ns]
    scan = sweep.ThresholdScan(kind, b, mode)
    for s in (float(s) for s in s_list):
        p = NormParams(s=s, b=b)
        ratios = [norm_at_s(prod, p, mode) / (norm_at_s(inst.u, p, mode) * norm_at_s(inst.v, p, mode))
                  for inst, prod in points]
        scan.points.append((s, sweep.fit_loglog(ns, ratios)[0]))
    scan.crossing = sweep.locate_sign_change(scan.points)
    return scan
