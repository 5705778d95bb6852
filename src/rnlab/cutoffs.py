"""The smooth time cutoff, its transforms on frequency lattices, free evolution.

The forward time transform used throughout is
F(f)(omega) = (1/2pi) Int f(t) e^{-i omega t} dt, matching the synthesis
convention f(t) = Int F(f)(omega) e^{i t omega} domega of the field model.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import FrequencyGrid, SpaceTimeField, _next_fast_len, _row_blocks, steps_per_unit

# Frequency headroom between the evaluated band and the first aliasing image
# of the sampled-bump transform; the bump transform decays like
# exp(-c |omega|^(1/2)), and this margin pushes the image below 1e-16.
_ALIAS_MARGIN = 1200.0

# The bump is 1 on [-1, 1] and vanishes off [-SUPPORT, SUPPORT].
SUPPORT = 2.0


def standard_bump(t):
    """Even smooth bump: 1 on [-1,1], exp(1 - 1/(1-(|t|-1)^2)) on 1<|t|<2, 0 beyond.

    The one time cutoff: the paper's eta and psi are both this bump.
    """
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    mid = (a > 1.0) & (a < SUPPORT)
    r = a[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - r * r))
    return out if out.shape else float(out)


def transform_on_lattice(spacing, j_max, t_power=0):
    """F(t^k eta)(j * spacing) for j = -j_max .. j_max (length 2 j_max + 1).

    One zero-padded real FFT of the sampled bump; the rectangle rule on the
    compactly supported smooth integrand is spectrally accurate and the pad
    keeps the periodization images outside the evaluated band.  The samples
    are real, so the transform at -j is the conjugate of that at j.  Results
    are cached read-only, keyed by the lattice and the power.
    """
    return _transform_on_lattice(float(spacing), int(j_max), int(t_power))


# A Picard solve on one grid holds about 24 entries (N1's t-powers and the
# cutoff kernel); the bound keeps many grids in one process from growing it.
@functools.lru_cache(maxsize=128)
def _transform_on_lattice(spacing, j_max, t_power):
    band = j_max * spacing
    min_len = max(2 * j_max + 1, int(math.ceil((band + _ALIAS_MARGIN) / spacing)))
    # 16x oversampling of the bump brings the per-sample rectangle-rule error
    # to ~1e-13, so sums over tens of thousands of lattice samples stay ~1e-9.
    P = _next_fast_len(16 * min_len)
    delta = 2.0 * math.pi / (spacing * P)
    n_samples = int(math.floor(2.0 * SUPPORT / delta)) + 1
    t = -SUPPORT + delta * np.arange(n_samples)
    vals = standard_bump(t) * t**t_power if t_power else standard_bump(t)
    del t
    if n_samples > P:
        # evaluating the length-P DFT on more samples means folding, not cropping
        vals = np.pad(vals, (0, -n_samples % P)).reshape(-1, P).sum(axis=0)
    spectrum = np.fft.rfft(vals, n=P)  # bins 0 .. P // 2, and P > 2 j_max
    del vals
    js = np.arange(-j_max, j_max + 1)
    values = spectrum[np.abs(js)]
    del spectrum
    np.conjugate(values[:j_max], out=values[:j_max])  # bin P - j of a real signal
    out = (delta / (2.0 * math.pi)) * np.exp(1j * SUPPORT * js * spacing)
    out = out * values
    out.setflags(write=False)
    return out


def sigma_lattice(grid, t_power=0):
    """Transform samples on the sigma = tau + |n|^2 lattice covering the grid.

    Returns (values, j_max); entry j + j_max holds F(t^k eta)(j * tau_step)
    for every shift tau_index - half + |n|^2 / tau_step the grid can produce.
    """
    per_unit = steps_per_unit(grid.tau_step)
    j_max = grid.half_index + grid.dimension * grid.n_max**2 * per_unit
    return transform_on_lattice(grid.tau_step, j_max, t_power), j_max


def profile_offsets(grid, norm_sq, j_max):
    """Lattice position of sigma = tau_0 + |n|^2 for the given |n|^2, shape (K,)."""
    per_unit = steps_per_unit(grid.tau_step)
    return np.asarray(norm_sq, dtype=np.int64) * per_unit - grid.half_index + j_max


def gather_profile(grid, norm_sq, lattice, j_max):
    """Per-column rows L(tau_j + |n|^2) for the given |n|^2 values, shape (K, n_tau)."""
    return sliding_window_view(lattice, grid.n_tau)[profile_offsets(grid, norm_sq, j_max)]


def window_sums(grid, norm_sq, j_max, columns, count):
    """Per column with these |n|^2, the window's trapezoid sums
    Sum_tau w_tau f(tau + |n|^2) of ``count`` functions f on the sigma-lattice
    of half-width j_max, shape (K, count): ``columns(t)`` gives the functions
    of the slice t as a new (2 j_max + 1, len) array, which is overwritten.

    Each sum is the difference of the lattice's prefix sums (np.cumsum, in
    place) at the window's last sample and just before its first, less half
    its two end samples; the windows of ``sigma_lattice`` start d n_max^2 /
    tau_step samples in.  The functions are taken in the t-chunks of
    ``grid._row_blocks`` at 32 bytes a lattice sample: a complex function and
    the gathers of its sums.
    """
    first = profile_offsets(grid, norm_sq, j_max)
    last = first + grid.n_tau - 1
    out = None
    for t in _row_blocks(count, 32 * (2 * j_max + 1)):
        f = columns(t)
        ends = f[first] + f[last]
        np.cumsum(f, axis=0, out=f)
        if out is None:
            out = np.empty((len(first), count), dtype=f.dtype)
        out[:, t] = grid.tau_step * (f[last] - f[first - 1] - 0.5 * ends)
    return out


def free_evolution_data(grid, phi_hat):
    """Space-time data of eta(t) e^{it Laplacian} phi:

    u_hat(n, tau) = F(eta)(tau + |n|^2) * phi_hat(n), concentrated on the
    paraboloid tau = -|n|^2.  ``phi_hat`` is either a box-shaped coefficient
    array or a pair (columns, values); its zero coefficients get no column.

    The pairs are put in field order before the gather, so the gathered rows
    are the field's data (``free_evolution_rows``).
    """
    ns, vals = _spatial_pairs(grid, phi_hat)
    if not np.isfinite(vals).all():  # spatial data enters the field model here
        raise ValueError("spatial data contains non-finite coefficients")
    keep = vals != 0
    ns, vals = ns[keep], vals[keep]
    order = np.argsort(grid.flat_keys(ns), kind="stable")
    ns, vals = ns[order], vals[order]
    return SpaceTimeField(grid, ns, free_evolution_rows(grid, FrequencyGrid.norm_sq(ns), vals))


def free_evolution_rows(grid, norm_sq, vals):
    """Rows F(eta)(tau + |n|^2) phi_hat(n) of the free evolution's data at
    the columns with these |n|^2 and coefficients: one (K, n_tau) array,
    gathered and scaled in place."""
    lattice, j_max = sigma_lattice(grid)
    rows = gather_profile(grid, norm_sq, lattice, j_max)
    # the out= form keeps the operand order of vals[:, None] * rows, and with
    # it the rounding; `rows *= vals[:, None]` differs in the last bit
    return np.multiply(vals[:, None], rows, out=rows)


def _spatial_pairs(grid, phi_hat):
    if isinstance(phi_hat, tuple) and len(phi_hat) == 2:
        ns = np.asarray(phi_hat[0], dtype=np.int64).reshape(-1, grid.dimension)
        vals = np.asarray(phi_hat[1], dtype=np.complex128).reshape(len(ns))
        return ns, vals
    arr = np.asarray(phi_hat, dtype=np.complex128)
    expected = (grid.box_side,) * grid.dimension
    if arr.shape != expected:
        raise ValueError(
            f"spatial coefficient array has shape {arr.shape}, expected {expected}"
        )
    return grid.box_index.copy(), arr.reshape(-1)


# Only tests call this; it stays because perfbench/tracer.py wraps it by name.
def apply_time_cutoff(u, scale):
    """Multiply a field by eta(t / scale) in time (tau-convolution per column).

    The kernel samples F(eta(./scale))(tau) = scale * F(eta)(scale tau)
    at every tau-difference j * tau_step, j = -(n_tau-1) .. n_tau-1.
    """
    grid = u.grid
    M = grid.n_tau
    kernel = scale * transform_on_lattice(scale * grid.tau_step, M - 1)
    L = _next_fast_len(3 * M - 2)
    K = np.fft.fft(kernel, n=L)
    U = np.fft.fft(u.on_window().data, n=L, axis=1)
    conv = np.fft.ifft(U * K[None, :], axis=1)
    # kernel index j - (M-1) pairs with data index k: output m = k + j - (M-1)
    core = conv[:, M - 1: 2 * M - 1] * grid.tau_step
    return SpaceTimeField(grid, u.index.copy(), core)
