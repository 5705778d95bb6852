"""Reference solutions that only the tests use: the quadrature Duhamel
integral, the Lawson-RK4 integrator of i u_t + Laplacian u = conj(u)^2,
the replaced argsort reflection and per-s threshold scan, the
whole-window family fields, product, weight and norms that the span-stored
ones replaced, the norms that built their weights on every call, the
random field's envelope formula, the solver's continuous-dependence
measurement, the Picard plan's weights on every box entry, the Picard
product, Duhamel step and loop on whole arrays, the L^4 norm
synthesized on one whole spectral array, and the bump's lattice
transform by a complex FFT.

They live outside the package, so ``import rnlab`` does not load
``scipy.integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy.integrate import quad_vec

from rnlab import cutoffs, families, sweep
from rnlab.grid import (
    _DENSE_ENTRY_LIMIT,
    FrequencyGrid,
    SpaceTimeField,
    _fftn,
    _ifftn,
    _next_fast_len,
    _workspace,
    japanese_bracket,
    low_modulation_mask,
    spacetime_convolve,
    time_slices,
)
from rnlab.norms import _L4_TIMES_PER_UNIT, NormParams, ct_hs_norm, spatial_hs_norm
from rnlab.solver import (
    DivergenceError,
    IterationTrace,
    PicardPlan,
    _eta_lattice,
    _n1_terms,
    _on_box,
    _psi_band,
    _rows,
    nonlinear_fourier_data,
    picard_solve,
)


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
    """X^{s,b} or Z^{s,b} norm of u at one s, each call building its weights anew."""
    return (xsb_uncached if mode == "X" else zsb_uncached)(u, p)


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


# -- whole-window fields, the storage the span-stored fields replaced --------


def indicator_profile(grid, center):
    """Samples of 1_[center-1, center+1] over the whole window, with
    half-values at the two endpoints."""
    j0 = grid.tau_index(center - 1.0)
    j1 = grid.tau_index(center + 1.0)
    prof = np.zeros(grid.n_tau, dtype=np.complex128)
    prof[j0: j1 + 1] = 1.0
    prof[j0] = 0.5
    prof[j1] = 0.5
    return prof


def build_family_window(kind, N, grid):
    """``families.build_family`` with each member on the whole window."""
    families._validate(kind, N, grid)
    nsq = float(N) ** 2
    e1 = [N] if grid.dimension == 1 else [N, 0]
    minus = [-c for c in e1]
    v_col, v_center = {"example1": (minus, -nsq), "example2": (minus, nsq),
                       "remark_uu": ([0, N], -nsq)}[kind]
    u = SpaceTimeField.from_columns(grid, [e1], [indicator_profile(grid, -nsq)])
    v = SpaceTimeField.from_columns(grid, [v_col], [indicator_profile(grid, v_center)])
    return families.FamilyInstance(kind, int(N), u, v)


def nonzero_span(u):
    """Half-open window range [a, b) holding every nonzero entry of u; (0, 0) if none."""
    nz = np.flatnonzero(u.data.any(axis=0))
    return (u.lo + int(nz[0]), u.lo + int(nz[-1]) + 1) if len(nz) else (0, 0)


def _trimmed(u):
    """u stored on the nonzero span of its whole-window rows."""
    a, b = nonzero_span(u)
    return SpaceTimeField.from_columns(u.grid, u.index, u.on_window().data[:, a:b], lo=a)


def conjugate_reflect_window(u):
    """conj(u(-n, -tau)) by reversing u's whole-window rows."""
    u = u.on_window()
    return SpaceTimeField(u.grid, -u.index[::-1], np.conj(u.data[::-1, ::-1]))


def conjugate_product_window(inst):
    """``families.conjugate_product`` of whole-window members, each convolved on
    its nonzero span, on the whole window."""
    if inst.kind == "remark_uu":
        u, v = inst.u, inst.v
    else:
        u, v = conjugate_reflect_window(inst.u), conjugate_reflect_window(inst.v)
    return spacetime_convolve(_trimmed(u), _trimmed(v)).on_window()


def modulation_weight_window(u, power):
    """<tau + |n|^2>^power u on its nonzero span, written into a zero-filled window."""
    u = u.on_window()
    a, b = nonzero_span(u)
    mod = u.grid.tau_nodes[None, a:b] + u.norm_sq_columns()[:, None].astype(float)
    out = np.zeros_like(u.data)
    out[:, a:b] = u.data[:, a:b] * _bracket_sq(mod) ** (power / 2.0)
    return SpaceTimeField(u.grid, u.index.copy(), out)


def norms_over_s_window(u, b, s_values, mode):
    """``norms.norms_over_s`` reading the span out of u's whole-window rows
    and the window's nodes and weights."""
    u = u.on_window()
    lo, hi = nonzero_span(u)
    data, w = u.data[:, lo:hi], u.grid.tau_weights[lo:hi]
    nsq = u.norm_sq_columns().astype(float)
    mod = u.grid.tau_nodes[None, lo:hi] + nsq[:, None]
    if mode == "X":
        cols = np.empty(len(nsq))
        bounds = [*range(0, len(nsq), _X_BLOCK), len(nsq)]
        for i, j in zip(bounds[:-1], bounds[1:]):
            cols[i:j] = _l2_tau_sq(data[i:j], _bracket_sq(mod[i:j]), w, b)
        return [float(np.sqrt(((1.0 + nsq) ** s * cols).sum())) for s in s_values]
    return [_z_apply(data, _z_factors(mod, nsq, NormParams(s, b)), w) for s in s_values]


def sweep_point_window(kind, N, tau_step):
    """``sweep._sweep_point`` on whole-window fields."""
    inst = build_family_window(kind, N, FrequencyGrid.for_box(2, N, tau_step))
    return inst, modulation_weight_window(conjugate_product_window(inst), -1.0)


# -- norms that build every weight on every call, the path the cached factors replaced --


_X_BLOCK = 32


def _on_block(u):
    return (u.data, u.mod_array(), u.grid.weights_on(*u.stored),
            u.norm_sq_columns().astype(float))


def _bracket_sq(mod):
    return 1.0 + mod * mod


def _tau_integral(a, weights):
    return np.einsum("kl,l...->k...", a, weights)


def _l2_tau_sq(data, bracket_sq, weights, mod_power):
    integrand = np.abs(data) ** 2
    if mod_power != 0.0:
        integrand = integrand * bracket_sq ** mod_power
    return _tau_integral(integrand, weights)


def _energy(data, weights, nsq, s):
    l1 = _tau_integral(np.abs(data), weights)
    return float(np.sqrt(((1.0 + nsq) ** s * l1 * l1).sum()))


def _x_columns(u, b):
    w = u.grid.weights_on(*u.stored)
    nodes = u.grid.nodes_on(*u.stored)[None, :]
    nsq = u.norm_sq_columns().astype(float)
    cols = np.empty(len(nsq))
    bounds = [*range(0, len(nsq), _X_BLOCK), len(nsq)]
    for i, j in zip(bounds[:-1], bounds[1:]):
        mod = nodes + nsq[i:j, None]
        cols[i:j] = _l2_tau_sq(u.data[i:j], _bracket_sq(mod), w, b)
    return cols


def _z_factors(mod, nsq, p):
    lo = np.nonzero(low_modulation_mask(mod, nsq))
    bracket_sq = _bracket_sq(mod)
    return lo, bracket_sq[lo] ** p.b, bracket_sq ** (p.s / 2.0 + p.b), (1.0 + nsq) ** p.s


def _z_apply(data, factors, weights):
    lo, x_weight, y_weight, col_weight = factors
    hi = np.abs(data)
    x_integrand = np.zeros_like(hi)
    x_integrand[lo] = hi[lo] ** 2 * x_weight
    hi[lo] = 0.0
    x = float(np.sqrt((col_weight * _tau_integral(x_integrand, weights)).sum()))
    l1 = _tau_integral(hi, weights)
    energy = float(np.sqrt((col_weight * l1 * l1).sum()))
    return x + (energy + float(np.sqrt(_tau_integral(hi ** 2 * y_weight, weights).sum())))


def norms_over_s_uncached(u, b, s_values, mode):
    """``norms.norms_over_s`` building its weights on every call, Z for every s."""
    if mode == "X":
        nsq = u.norm_sq_columns().astype(float)
        cols = _x_columns(u, b)
        return [float(np.sqrt(((1.0 + nsq) ** s * cols).sum())) for s in s_values]
    data, mod, w, nsq = _on_block(u)
    return [_z_apply(data, _z_factors(mod, nsq, NormParams(s, b)), w) for s in s_values]


def xsb_uncached(u, p):
    return norms_over_s_uncached(u, p.b, [p.s], "X")[0]


def zsb_uncached(u, p):
    return norms_over_s_uncached(u, p.b, [p.s], "Z")[0]


def ysb_uncached(u, p):
    data, mod, w, nsq = _on_block(u)
    return _energy(data, w, nsq, p.s) + float(
        np.sqrt(_l2_tau_sq(data, _bracket_sq(mod), w, p.s / 2.0 + p.b).sum()))


def energy_uncached(u, s):
    data, _, w, nsq = _on_block(u)
    return _energy(data, w, nsq, s)


def random_field_uncached(grid, rng, columns=None, envelope_power=0.0):
    """``grid.random_field`` with its envelope built on every call."""
    ns = grid.box_index if columns is None else \
        np.asarray(columns, dtype=np.int64).reshape(-1, grid.dimension)
    data = rng.standard_normal((len(ns), grid.n_tau)) \
        + 1j * rng.standard_normal((len(ns), grid.n_tau))
    field = SpaceTimeField.from_columns(grid, ns, data)
    if envelope_power != 0.0:
        field.data *= japanese_bracket(field.mod_array()) ** envelope_power
    return field


def l4_integrals_whole(grid, fields, t_window):
    """Per t-sample Int |u(x, t)|^4 dx of ``norms.l4_spacetime_norm``, with
    every field's time slices added into one (P, ..., P, count) spectral
    array, synthesized whole; and the t quadrature weights."""
    t0, t1 = float(t_window[0]), float(t_window[1])
    count = max(3, int(np.ceil((t1 - t0) * _L4_TIMES_PER_UNIT)) + 1)
    times = np.linspace(t0, t1, count)
    tw = np.full(count, (t1 - t0) / (count - 1))
    tw[[0, -1]] *= 0.5
    P = _next_fast_len(2 * grid.box_side)
    spectral = np.zeros((P,) * grid.dimension + (count,), dtype=np.complex128)
    for u in fields:
        spectral[tuple(u.index.T % P)] += time_slices(u, times)
    phys = _ifftn(spectral, grid.dimension) * P**grid.dimension
    cell = (2.0 * np.pi / P) ** grid.dimension
    integrand = (np.abs(phys) ** 4).reshape(-1, count)
    return integrand.sum(axis=0) * cell, tw


def l4_spacetime_norm_whole(grid, fields, t_window):
    """``norms.l4_spacetime_norm`` synthesized on one whole spectral array."""
    integrals, tw = l4_integrals_whole(grid, fields, t_window)
    return float((integrals * tw).sum() ** 0.25)


def transform_on_lattice_complex(spacing, j_max, t_power=0):
    """``cutoffs.transform_on_lattice`` by a complex FFT of the bump samples,
    read at every bin j mod P."""
    band = j_max * spacing
    min_len = max(2 * j_max + 1, int(math.ceil((band + cutoffs._ALIAS_MARGIN) / spacing)))
    P = _next_fast_len(16 * min_len)
    delta = 2.0 * math.pi / (spacing * P)
    n_samples = int(math.floor(2.0 * cutoffs.SUPPORT / delta)) + 1
    t = -cutoffs.SUPPORT + delta * np.arange(n_samples)
    bump = cutoffs.standard_bump(t)
    vals = (bump * t**t_power if t_power else bump).astype(np.complex128)
    if n_samples > P:
        vals = np.pad(vals, (0, -n_samples % P)).reshape(-1, P).sum(axis=0)
    spectrum = np.fft.fft(vals, n=P)
    js = np.arange(-j_max, j_max + 1)
    out = (delta / (2.0 * math.pi)) * np.exp(1j * cutoffs.SUPPORT * js * spacing)
    return out * spectrum[js % P]


def continuous_dependence(u0a, u0b, params, grid):
    """(input H^s distance, output C_t H^s distance on [-T, T], quotient)."""
    ta = picard_solve(u0a, params, grid)
    tb = picard_solve(u0b, params, grid)
    nsa, va = cutoffs._spatial_pairs(grid, u0a)
    nsb, vb = cutoffs._spatial_pairs(grid, u0b)
    if not np.array_equal(nsa, nsb):
        raise ValueError("initial data must live on the same columns")
    input_dist = spatial_hs_norm(nsa, va - vb, params.s)
    diff = ta.final - tb.final
    output_dist = ct_hs_norm(diff, params.s, (-params.T, params.T))
    if input_dist == 0.0:
        return 0.0, output_dist, float("nan")
    return input_dist, output_dist, output_dist / input_dist


# -- the Picard plan's weights on every box entry -------------------------------
# ``solver.PicardPlan.build`` as it was before r and the Z weight were
# gathered per row block from the sigma-lattice.


def plan_r_box(grid):
    """The real multiplier r = (1 - psi(sigma)) / sigma on every box entry,
    zero where psi = 1: ``1 / mod`` off each column's psi band, the band's
    values on it."""
    nsq = FrequencyGrid.norm_sq(grid.box_index)
    cols, sigma, psi = _psi_band(grid, nsq)
    mod = grid.tau_nodes[None, :] + nsq.astype(float)[:, None]
    np.put_along_axis(mod, cols, 1.0, axis=1)  # keeps sigma = 0 out of the division
    r = 1.0 / mod
    band = np.zeros(sigma.shape)
    keep = psi < 1.0
    # (1 - psi) * (1 / sigma): the rounding of the complex (1 - psi) / (i sigma)
    band[keep] = (1.0 - psi[keep]) * (1.0 / sigma[keep])
    np.put_along_axis(r, cols, band, axis=1)
    return r


def plan_z_box(grid, p):
    """The Z-norm's factors of the box, (lo entries, <sigma>^{2b} on them,
    <sigma>^{s+2b} on every entry, (1 + |n|^2)^s), from the whole modulations."""
    fnsq = FrequencyGrid.norm_sq(grid.box_index).astype(float)
    return _z_factors(grid.tau_nodes[None, :] + fnsq[:, None], fnsq, p)


# -- the Picard step on whole arrays ---------------------------------------------
# ``grid._padded_product`` and ``solver.duhamel_rhs`` as they were before
# their tau passes and their series ran in blocks: the product on whole
# (rows, P) arrays, the Duhamel step on the whole (K, lattice) series.  The
# bodies are unchanged; the blocked ones must match them bit for bit.


def padded_product_whole(f, g, weight=None, report=None):
    """h (f * g) on the box and window as one padded (x, t) product.

    The workspace holds the linear convolution of the operands' column
    bounding boxes and stored blocks; with a ``weight``, which spreads the
    product over the whole window, the operands are taken on the whole
    window and the t-nodes are those of ``_workspace``.  Each operand's
    rows are tau-transformed at length P, weighted, and taken through the
    spatial axes; the pointwise product (one transform squared when
    ``g is f``) goes back and is cropped to the box and window.  The result
    holds the box columns of the product's support box and stores only the
    offset span, the window samples the linear convolution reaches (the
    whole window with a ``weight``).  An operand with no stored entry gives
    the zero field.  A ``report`` dict receives the masses
    ``spacetime_convolve`` documents.
    """
    grid, d = f.grid, f.grid.dimension
    M, h = grid.n_tau, grid.tau_step
    if weight is not None:
        f, g = (f.on_window(), g.on_window()) if g is not f else (f.on_window(),) * 2
    if report is not None:
        report["dropped_spatial_mass"] = 0.0
        report["dropped_tau_mass"] = 0.0
    if not (f.data.size and g.data.size):
        return SpaceTimeField.zero(grid)
    length = f.data.shape[1] + g.data.shape[1] - 1
    if weight is None:
        P = _next_fast_len(length)
        live, n_live, w = slice(None), P, None
    else:
        (*_, P), live, n_live, w = _workspace(grid, weight)
    lo_f, lo_g = f.index.min(axis=0), g.index.min(axis=0)
    ext_f, ext_g = f.index.max(axis=0) - lo_f + 1, g.index.max(axis=0) - lo_g + 1
    full = tuple(int(n) for n in ext_f + ext_g - 1)  # the linear convolution's range
    shape = tuple(_next_fast_len(n) for n in full)
    if math.prod(shape) * n_live > _DENSE_ENTRY_LIMIT:
        raise MemoryError("padded product workspace is too large; reduce n_max or the tau-window")

    def samples(u, lo, ext):
        rows = np.fft.fft(u.data, n=P, axis=1)
        box = np.zeros((math.prod(ext), n_live), dtype=np.complex128)
        box[np.ravel_multi_index((u.index - lo).T, ext)] = rows if w is None else rows[:, live] * w
        box = box.reshape(tuple(ext) + (n_live,))
        return _fftn(box, shape)

    conv = samples(f, lo_f, ext_f)
    conv *= conv if g is f else samples(g, lo_g, ext_g)
    conv = _ifftn(conv, d)
    lo = lo_f + lo_g  # the lattice point at the workspace origin
    first = np.maximum(lo, -grid.n_max)  # lattice corners of the crop to the box
    last = np.maximum(np.minimum(lo + full, grid.n_max + 1), first) - 1
    core = tuple(slice(a - c, b + 1 - c) for a, b, c in zip(first, last, lo))
    kept = conv[core] if report is None else conv[tuple(slice(0, n) for n in full)]
    rows = np.zeros((kept[..., 0].size, P), dtype=np.complex128)
    rows[:, live] = kept.reshape(len(rows), n_live)
    del conv, kept
    out = np.fft.ifft(rows, axis=1, out=rows)
    # samples [k0, k1) of the linear convolution land inside the window
    start = f.lo + g.lo - grid.half_index
    k0 = min(max(0, -start), length)
    k1 = max(k0, min(length, M - start))
    if report is not None:
        out = out.reshape(full + (P,))
        spatial = np.abs(out[..., k0:k1])
        report["dropped_spatial_mass"] = h * float(spatial.sum() - spatial[core].sum())
        tau = np.abs(out[..., :length])
        report["dropped_tau_mass"] = h * float(tau[..., :k0].sum() + tau[..., k1:].sum())
        out = out[core].reshape(-1, P)
    ns = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(first, last)), indexing="ij")
    return SpaceTimeField(grid, np.stack([n.ravel() for n in ns], axis=1),
                          h * out[:, k0:k1], start + k0 if k1 > k0 else 0)


def _gather(series, offsets, n_tau):
    """Row i of ``series`` from offsets[i] on, n_tau long: its sigma-lattice at column i."""
    return sliding_window_view(series, n_tau, axis=1)[np.arange(len(offsets)), offsets]


def duhamel_rhs_whole(fhat, plan):
    """N1 + N2 + N3 of the product data ``fhat`` in one array.

    N2 is the k = 0 term of N1's series, with coefficient Int F r dtau and
    the F(eta) lattice; one contraction and one gather give N1 + N2, and
    N3 = -r F is subtracted in place.
    """
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    rows = _rows(fhat)
    high = fhat.data * plan_r_box(plan.grid)[rows]
    coefs, lattices = _n1_terms(fhat, plan, rows)
    # a BLAS product (K x terms) @ (terms x lattice): einsum took 0.42 s against
    # 0.035 s at d=1, n_max=32, and solve reports match on 1 and 2 BLAS threads
    series = (np.stack([_tau_integral(high, plan.grid.tau_weights)] + coefs, axis=1)
              @ np.stack([_eta_lattice(plan)[0]] + lattices))
    out = _gather(series, plan.offsets[rows], plan.grid.n_tau)
    out -= high
    return SpaceTimeField(fhat.grid, fhat.index.copy(), out)


def picard_solve_whole(u0, params, grid, initial=None, on_iterate=None):
    """``solver.picard_solve`` as it was before it stopped holding the linear
    solution: the linear solution is held and added whole, the Duhamel step
    and the Z-norms run on whole arrays (``duhamel_rhs_whole``, ``_z_apply``
    above, on the factors of ``plan_z_box``), and the difference of two
    iterates is formed whole."""
    if initial is not None:
        grid.assert_compatible(initial.grid)
    plan = PicardPlan.build(grid, params.norm_params())
    w = grid.tau_weights
    linear = _on_box(cutoffs.free_evolution_data(grid, u0))
    trace = IterationTrace()
    current = linear
    z_factors = plan_z_box(grid, params.norm_params())
    z0 = _z_apply(current.data, z_factors, w)
    radius = max(z0, 1e-12)
    if initial is not None:
        current = _on_box(initial)
        z0 = _z_apply(current.data, z_factors, w)
    emit = on_iterate or (lambda k, u: None)
    trace.final = current
    trace.z_norms.append(z0)
    emit(0, current)
    for k in range(1, params.max_iterations + 1):
        nxt = duhamel_rhs_whole(nonlinear_fourier_data(current, current, params.T), plan)
        if nxt.n_columns:
            nxt.data += linear.data
        else:
            nxt = linear.copy()
        z = _z_apply(nxt.data, z_factors, w)
        diff = _z_apply(nxt.data - current.data, z_factors, w)
        trace.final = current = nxt
        trace.z_norms.append(z)
        trace.successive_diffs.append(diff)
        emit(k, nxt)
        if not math.isfinite(z) or z > 10.0 * radius:
            raise DivergenceError(
                f"iterate Z-norm {z:.3e} exceeded 10x ball radius {radius:.3e}", trace
            )
        if diff < params.contraction_tolerance:
            trace.converged = True
            break
    return trace
