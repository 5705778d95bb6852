"""Closed-form counterexample families and their predicted scaling exponents.

Three high-frequency families, each a pair of single-column fields with a
unit-indicator tau-profile:

  example1:  u at N*e1 with profile 1_[-1,1](tau + N^2), v the same at -N*e1
             ("high-high to low" frequencies, "low-low to high" modulations).
  example2:  u as above, v at -N*e1 with 1_[-1,1](-tau + N^2)
             ("low-high to low" modulations).
  remark_uu: u at N*e1, v at N*e2, both on the paraboloid; their plain
             product is the obstruction for the u^2 nonlinearity
             ("high-high to high", "low-low to low").

Indicator endpoints sit exactly on tau-samples and carry the value 1/2
(the jump average), which makes the grid quadrature of every product of an
indicator with a continuous piecewise-linear function exact.  Each member
stores only its indicator's 2 / tau_step + 1 samples, whatever the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SpaceTimeField, conjugate_reflect, spacetime_convolve

FAMILY_KINDS = ("example1", "example2", "remark_uu")


@dataclass(frozen=True)
class FamilyInstance:
    """One dyadic member of a counterexample family."""

    kind: str
    N: int
    u: SpaceTimeField
    v: SpaceTimeField

    @property
    def grid(self):
        return self.u.grid


@dataclass(frozen=True)
class PredictedExponents:
    """Closed-form log2-slopes in N of the family norms and their ratio."""

    u_norm_slope: float
    v_norm_slope: float
    product_slope: float
    ratio_slope: float


def _validate(kind, N, grid):
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError("family frequency N must be a dyadic integer")
    if kind == "remark_uu" and grid.dimension != 2:
        raise ValueError("remark_uu needs a two-dimensional grid (it uses e2)")
    if N > grid.n_max:
        raise ValueError(f"family frequency N={N} exceeds the spatial box n_max={grid.n_max}")
    if grid.tau_max < N**2 + 1:
        raise ValueError(f"tau window must contain +-(N^2+1)={N**2 + 1}")
    check_tau_step(grid.tau_step)
    check_frequency(N, grid.tau_step)


def check_tau_step(tau_step):
    """Raise unless tau_step divides 1, so the indicator endpoints are samples."""
    per_unit = 1.0 / tau_step
    if abs(per_unit - round(per_unit)) > 1e-9:
        raise ValueError("family indicators need a tau_step that divides 1")


def check_frequency(N, tau_step):
    """Raise unless every tau-sample out to +-2(N^2+1), where the products
    reach, is exact in float64; beyond that the indicators lose samples."""
    if (N * N + 1) / tau_step >= 2.0**52:
        raise ValueError(f"family frequency N={N} puts the indicators beyond the "
                         f"exact float64 tau-samples of tau_step={tau_step}")


def _member(grid, n, center):
    """Field at column n holding 1_[center-1, center+1] on the indicator's samples,
    with half-values at the two endpoints."""
    j0 = grid.tau_index(center - 1.0)
    prof = np.ones(grid.tau_index(center + 1.0) - j0 + 1, dtype=np.complex128)
    prof[0] = 0.5
    prof[-1] = 0.5
    return SpaceTimeField.from_columns(grid, [n], [prof], lo=j0)


def _e1(grid, N):
    return [N] if grid.dimension == 1 else [N, 0]


def _e2(N):
    return [0, N]


def build_family(kind, N, grid):
    """Exact indicator data of one family member; no interpolation anywhere."""
    _validate(kind, N, grid)
    nsq = float(N) ** 2
    u = _member(grid, _e1(grid, N), -nsq)
    if kind == "example1":
        v = _member(grid, [-c for c in _e1(grid, N)], -nsq)
    elif kind == "example2":
        v = _member(grid, [-c for c in _e1(grid, N)], nsq)
    else:
        v = _member(grid, _e2(N), -nsq)
    return FamilyInstance(kind, int(N), u, v)


def conjugate_product(inst):
    """Fourier data of conj(u) * conj(v) (plain u * v for remark_uu)."""
    if inst.kind == "remark_uu":
        return spacetime_convolve(inst.u, inst.v)
    return spacetime_convolve(conjugate_reflect(inst.u), conjugate_reflect(inst.v))


def product_support(kind, N, dimension):
    """Predicted product column and tau-center of its tent profile."""
    if kind == "example1":
        col = (0,) if dimension == 1 else (0, 0)
        return col, 2.0 * N**2
    if kind == "example2":
        col = (0,) if dimension == 1 else (0, 0)
        return col, 0.0
    return (N, N), -2.0 * N**2


def analytic_tent(offsets):
    """Continuum tent max{0, min{2 - x, 2 + x}} = (1_[-1,1] * 1_[-1,1])(x)."""
    x = np.asarray(offsets, dtype=float)
    return np.maximum(0.0, 2.0 - np.abs(x))


def discrete_tent(offsets, tau_step):
    """Tent values the grid convolution of two half-endpoint indicators produces.

    Identical to the continuum tent except where indicator jumps collide:
    at the center the trapezoid jump-average defect removes tau_step/2, and at
    the two base endpoints the single corner sample contributes tau_step/4.
    """
    x = np.asarray(offsets, dtype=float)
    vals = analytic_tent(x)
    vals = vals + (tau_step / 4.0) * (np.abs(np.abs(x) - 2.0) < 1e-12)
    vals = vals - (tau_step / 2.0) * (np.abs(x) < 1e-12)
    return vals


def tent_pairs(prod, col, center):
    """The product's column ``col`` and the discrete tent about ``center``, on
    each window range where either can be nonzero: the product's stored block
    and the tent's support [center - 2, center + 2].  Off both, both are zero,
    so a deviation's maximum over the ranges is its maximum over the window.
    """
    grid = prod.grid
    a = max(0, math.floor((center - 2.0 - grid.tau_min) / grid.tau_step))
    b = min(grid.n_tau, math.ceil((center + 2.0 - grid.tau_min) / grid.tau_step) + 1)
    for span in (prod.stored, (a, b)):
        if span[0] < span[1]:
            yield (prod.column(col, span),
                   discrete_tent(grid.nodes_on(*span) - center, grid.tau_step))


def predicted_exponents(kind, s, b, mode=None):
    """Exponent table for sweep validation.

    ``mode`` selects whether the product is normed classically (X^{s,b-1} of
    the product; 'X') or through the Duhamel-weighted Z-norm ('Z').  The
    default mode is the one each family is used with: example1 classical,
    example2 modified, remark_uu either (its exponents agree).
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if mode is None:
        mode = {"example1": "X", "example2": "Z", "remark_uu": "X"}[kind]
    if mode not in ("X", "Z"):
        raise ValueError("mode must be 'X' or 'Z'")
    if kind == "example1":
        if mode == "X":
            return PredictedExponents(s, s, 2 * b - 2, 2 * b - 2 - 2 * s)
        # hi-modulation product measured through the Y part of the Z-norm
        return PredictedExponents(s, s, s + 2 * b - 2, 2 * b - 2 - s)
    if kind == "example2":
        return PredictedExponents(s, s + 2 * b, 0.0, -(2 * s + 2 * b))
    return PredictedExponents(s, s, s, -s)
