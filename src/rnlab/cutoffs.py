"""Smooth time cutoffs, their transforms on frequency lattices, free evolution.

The forward time transform used throughout is
F(f)(omega) = (1/2pi) Int f(t) e^{-i omega t} dt, matching the synthesis
convention f(t) = Int F(f)(omega) e^{i t omega} domega of the field model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft

from .grid import FrequencyGrid, SpaceTimeField

# Frequency headroom between the evaluated band and the first aliasing image
# of the sampled-bump transform; the bump transform decays like
# exp(-c |omega|^(1/2)), and this margin pushes the image below 1e-16.
_ALIAS_MARGIN = 1200.0


@dataclass(frozen=True)
class BumpProfile:
    """Even smooth bump: 1 on [-1,1], exp(1 - 1/(1-(|t|-1)^2)) on 1<|t|<2, 0 beyond.

    A frozen dataclass without fields: profiles hash and compare by class, so
    the transform cache is keyed by value, and a subclass with another shape
    never shares an entry with this one.
    """

    support: ClassVar[float] = 2.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t)
        out = np.zeros_like(a)
        out[a <= 1.0] = 1.0
        mid = (a > 1.0) & (a < 2.0)
        r = a[mid] - 1.0
        out[mid] = np.exp(1.0 - 1.0 / (1.0 - r * r))
        return out if out.shape else float(out)


standard_bump = BumpProfile()


@dataclass(frozen=True)
class CutoffSpec:
    """Time-cutoff pair (eta, psi) and the localization scale T in (0, 1/4]."""

    T: float
    eta: BumpProfile = field(default=standard_bump)
    psi: BumpProfile = field(default=standard_bump)

    def __post_init__(self):
        if not 0.0 < self.T <= 0.25:
            raise ValueError("cutoff scale T must lie in (0, 1/4]")


def transform_on_lattice(spacing, j_max, t_power=0, profile=standard_bump):
    """F(t^k profile)(j * spacing) for j = -j_max .. j_max (length 2 j_max + 1).

    One zero-padded FFT of the sampled bump; the rectangle rule on the
    compactly supported smooth integrand is spectrally accurate and the pad
    keeps the periodization images outside the evaluated band.  Results are
    cached read-only, keyed by the profile's value and the lattice.
    """
    return _transform_on_lattice(profile, float(spacing), int(j_max), int(t_power))


# A Picard solve on one grid holds about 24 entries (N1's t-powers and the
# cutoff kernel); the bound keeps many grids in one process from growing it.
@functools.lru_cache(maxsize=128)
def _transform_on_lattice(profile, spacing, j_max, t_power):
    band = j_max * spacing
    min_len = max(2 * j_max + 1, int(math.ceil((band + _ALIAS_MARGIN) / spacing)))
    # 16x oversampling of the bump brings the per-sample rectangle-rule error
    # to ~1e-13, so sums over tens of thousands of lattice samples stay ~1e-9.
    P = sfft.next_fast_len(16 * min_len)
    delta = 2.0 * math.pi / (spacing * P)
    n_samples = int(math.floor(2.0 * profile.support / delta)) + 1
    t = -profile.support + delta * np.arange(n_samples)
    vals = (profile(t) * t**t_power if t_power else profile(t)).astype(np.complex128)
    if n_samples > P:
        # evaluating the length-P DFT on more samples means folding, not cropping
        vals = np.pad(vals, (0, -n_samples % P)).reshape(-1, P).sum(axis=0)
    spectrum = sfft.fft(vals, n=P)
    js = np.arange(-j_max, j_max + 1)
    out = (delta / (2.0 * math.pi)) * np.exp(1j * profile.support * js * spacing)
    out = out * spectrum[js % P]
    out.setflags(write=False)
    return out


def _require_unit_step_ratio(grid):
    ratio = 1.0 / grid.tau_step
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(
            "this operation needs integer |n|^2 to land on the tau-grid; "
            "use a tau_step that divides 1"
        )
    return int(round(ratio))


def sigma_lattice(grid, t_power=0, profile=standard_bump):
    """Transform samples on the sigma = tau + |n|^2 lattice covering the grid.

    Returns (values, j_max); entry j + j_max holds F(t^k profile)(j * tau_step)
    for every shift tau_index - half + |n|^2 / tau_step the grid can produce.
    """
    per_unit = _require_unit_step_ratio(grid)
    j_max = grid.half_index + grid.dimension * grid.n_max**2 * per_unit
    return transform_on_lattice(grid.tau_step, j_max, t_power, profile), j_max


def profile_offsets(grid, norm_sq, j_max):
    """Lattice position of sigma = tau_0 + |n|^2 for the given |n|^2, shape (K,)."""
    per_unit = _require_unit_step_ratio(grid)
    return np.asarray(norm_sq, dtype=np.int64) * per_unit - grid.half_index + j_max


def gather_profile(grid, norm_sq, lattice, j_max):
    """Per-column rows L(tau_j + |n|^2) for the given |n|^2 values, shape (K, n_tau)."""
    return sliding_window_view(lattice, grid.n_tau)[profile_offsets(grid, norm_sq, j_max)]


def free_evolution_data(grid, phi_hat, profile=standard_bump, prune=True):
    """Space-time data of profile(t) e^{it Laplacian} phi:

    u_hat(n, tau) = F(profile)(tau + |n|^2) * phi_hat(n), concentrated on the
    paraboloid tau = -|n|^2.  ``phi_hat`` is either a box-shaped coefficient
    array or a pair (columns, values); ``profile`` may be a CutoffSpec, whose
    eta is used.

    The pairs are put in field order before the gather, so the gathered rows
    are the field's data: one (K, n_tau) array, scaled in place.
    """
    if isinstance(profile, CutoffSpec):
        profile = profile.eta
    ns, vals = _spatial_pairs(grid, phi_hat)
    if not np.isfinite(vals).all():  # spatial data enters the field model here
        raise ValueError("spatial data contains non-finite coefficients")
    if prune:
        keep = vals != 0
        ns, vals = ns[keep], vals[keep]
    order = np.argsort(grid.flat_keys(ns), kind="stable")
    ns, vals = ns[order], vals[order]
    lattice, j_max = sigma_lattice(grid, 0, profile)
    rows = gather_profile(grid, FrequencyGrid.norm_sq(ns), lattice, j_max)
    # the out= form keeps the operand order of vals[:, None] * rows, and with
    # it the rounding; `rows *= vals[:, None]` differs in the last bit
    np.multiply(vals[:, None], rows, out=rows)
    return SpaceTimeField(grid, ns, rows)


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


def cutoff_kernel(grid, scale, profile=standard_bump):
    """Tau-convolution kernel of multiplication by profile(t / scale).

    Samples of F(profile(./scale))(tau) = scale * F(profile)(scale tau) at
    every tau-difference j * tau_step, j = -(n_tau-1) .. n_tau-1.
    """
    j_max = grid.n_tau - 1
    lattice = transform_on_lattice(scale * grid.tau_step, j_max, 0, profile)
    return scale * lattice


def apply_time_cutoff(u, scale, profile=standard_bump):
    """Multiply a field by profile(t / scale) in time (tau-convolution per column)."""
    grid = u.grid
    kernel = cutoff_kernel(grid, scale, profile)
    M = grid.n_tau
    L = sfft.next_fast_len(3 * M - 2)
    K = sfft.fft(kernel, n=L)
    U = sfft.fft(u.data, n=L, axis=1)
    conv = sfft.ifft(U * K[None, :], axis=1)
    # kernel index j - (M-1) pairs with data index k: output m = k + j - (M-1)
    core = conv[:, M - 1: 2 * M - 1] * grid.tau_step
    return SpaceTimeField(grid, u.index.copy(), core)
