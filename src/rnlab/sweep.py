"""Scaling-exponent measurement: dyadic sweeps, log-log fits, threshold scans.

A sweep builds one family member per dyadic N, forms the product data, and
measures the ratio

    lhs / (u_norm * v_norm)

where the left side carries the Duhamel weight <tau+|n|^2>^{-1} and is then
measured either classically (mode 'X': this reproduces the X^{s,b-1} norm of
the product) or in the modified space (mode 'Z').  The fitted log2-log2 slope
of the ratio against N is the measured divergence exponent; a threshold scan
locates its sign change over a range of regularities s.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .families import build_family, conjugate_product, predicted_exponents
from .grid import FrequencyGrid, conjugate_reflect, spacetime_convolve
from .norms import NormParams, apply_modulation_weight, norm_for_mode

# fitted-slope thresholds separating numerical noise from genuine growth
DIVERGENCE_SLOPE = 0.02

# Scans run in the clean asymptotic regime: below N = 32 the hard lo/hi split
# at 2^-10 |n|^2 crosses the unit-width family supports and the Z-norms of
# on-paraboloid members are not yet power laws.
SCAN_N_DEFAULT = (64, 128, 256, 512)
SCAN_TAU_STEP = 0.5


def fit_loglog(n_values, values):
    """Least-squares slope of log2(values) against log2(N).

    Returns (slope, intercept, residual) with residual the maximum absolute
    deviation of the fit in log2 units.
    """
    x = np.log2(np.asarray(n_values, dtype=float))
    y = np.log2(np.asarray(values, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.abs(A @ coef - y).max())
    return float(coef[0]), float(coef[1]), resid


@dataclass(frozen=True)
class SweepRow:
    N: int
    u_norm: float
    v_norm: float
    lhs: float
    ratio: float


@dataclass
class SweepReport:
    """Per-N norms and the fitted ratio exponent for one family and mode."""

    kind: str
    s: float
    b: float
    mode: str
    rows: list = field(default_factory=list)
    fitted_slope: float = float("nan")
    fit_residual: float = float("nan")
    predicted_slope: float = float("nan")

    @property
    def verdict(self):
        if self.fitted_slope > DIVERGENCE_SLOPE:
            return "diverges"
        if self.fitted_slope < -DIVERGENCE_SLOPE:
            return "bounded"
        return "inconclusive"

    def to_json_text(self):
        obj = {
            "kind": self.kind,
            "s": self.s,
            "b": self.b,
            "mode": self.mode,
            "rows": [[r.N, r.u_norm, r.v_norm, r.lhs, r.ratio] for r in self.rows],
            "fitted_slope": self.fitted_slope,
            "fit_residual": self.fit_residual,
            "predicted_slope": self.predicted_slope,
            "verdict": self.verdict,
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text):
        obj = json.loads(text)
        rep = cls(obj["kind"], obj["s"], obj["b"], obj["mode"])
        rep.rows = [SweepRow(int(r[0]), r[1], r[2], r[3], r[4]) for r in obj["rows"]]
        rep.fitted_slope = obj["fitted_slope"]
        rep.fit_residual = obj["fit_residual"]
        rep.predicted_slope = obj["predicted_slope"]
        return rep

    def to_csv_text(self):
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["N", "u_norm", "v_norm", "lhs", "ratio"])
        for r in self.rows:
            w.writerow([r.N, repr(r.u_norm), repr(r.v_norm), repr(r.lhs), repr(r.ratio)])
        return out.getvalue()


def lhs_norm_of_product(product, p, mode):
    """Norm of <tau+|n|^2>^{-1} * product data in the chosen hat-norm.

    In mode 'X' this equals the classical X^{s,b-1} norm of the product since
    <mod>^b <mod>^{-1} = <mod>^{b-1}.
    """
    return norm_for_mode(apply_modulation_weight(product, -1.0), p, mode)


def bilinear_lhs(u, v, p, mode="Z"):
    """Duhamel-weighted norm of the data of conj(u)*conj(v).

    No time cutoff is applied: the families are already time-localized (the
    cut-off product of the solver is ``solver.nonlinear_fourier_data``).
    """
    u.grid.assert_compatible(v.grid)
    product = spacetime_convolve(conjugate_reflect(u), conjugate_reflect(v))
    return lhs_norm_of_product(product, p, mode)


def _validate_n_list(n_list):
    ns = [int(N) for N in n_list]
    if len(ns) < 3:
        raise ValueError("need at least three N values for a slope fit")
    if any(ns[i] >= ns[i + 1] for i in range(len(ns) - 1)):
        raise ValueError("N values must be strictly increasing")
    if any(N < 1 or (N & (N - 1)) for N in ns):
        raise ValueError("N values must be dyadic")
    return ns


def _family_grid(N, tau_step):
    return FrequencyGrid.for_box(2, N, tau_step)


def _sweep_point(kind, N, tau_step):
    """Family member plus its Duhamel-weighted product data on a minimal per-N grid.

    The fields, the weight <tau+|n|^2>^{-1} included, are s-independent: a
    sweep or scan builds each point once and re-norms it for every s.
    """
    inst = build_family(kind, N, _family_grid(N, tau_step))
    return inst, apply_modulation_weight(conjugate_product(inst), -1.0)


def _row_from_point(inst, weighted_product, p, mode):
    u_norm = norm_for_mode(inst.u, p, mode)
    v_norm = norm_for_mode(inst.v, p, mode)
    lhs = norm_for_mode(weighted_product, p, mode)
    if u_norm <= 0 or v_norm <= 0:
        raise ValueError("family norms must be positive to form the ratio")
    return SweepRow(inst.N, u_norm, v_norm, lhs, lhs / (u_norm * v_norm))


def run_sweep(kind, n_list, p, mode="Z", tau_step=0.25):
    """Full scaling sweep of one family across dyadic N."""
    ns = _validate_n_list(n_list)
    points = [_sweep_point(kind, N, tau_step) for N in ns]
    report = SweepReport(kind, p.s, p.b, mode)
    report.rows = [_row_from_point(inst, prod, p, mode) for inst, prod in points]
    slope, _, resid = fit_loglog(ns, [r.ratio for r in report.rows])
    report.fitted_slope = slope
    report.fit_residual = resid
    report.predicted_slope = predicted_exponents(kind, p.s, p.b, mode).ratio_slope
    return report


@dataclass
class ThresholdScan:
    """Fitted ratio slopes across s and the interpolated zero crossing."""

    kind: str
    b: float
    mode: str
    points: list = field(default_factory=list)  # (s, fitted_slope)
    crossing: float | None = None

    def to_json_text(self):
        obj = {
            "kind": self.kind,
            "b": self.b,
            "mode": self.mode,
            "points": [[s, sl] for s, sl in self.points],
            "crossing": self.crossing,
        }
        return json.dumps(obj, indent=2) + "\n"


def locate_sign_change(points):
    """First sign change among (s, slope) pairs, located by linear interpolation."""
    for (s0, f0), (s1, f1) in zip(points, points[1:]):
        if f0 == 0.0:
            return s0
        if f0 * f1 < 0.0:
            return s0 - f0 * (s1 - s0) / (f1 - f0)
    if points and points[-1][1] == 0.0:
        return points[-1][0]
    return None


def threshold_scan(kind, s_list, b, mode="Z", n_list=SCAN_N_DEFAULT,
                   tau_step=SCAN_TAU_STEP, mod_threshold=2.0**-10):
    """Ratio-slope sign change across regularities s.

    The family data and products are built once per N and re-normed for every
    s (the fields do not depend on s).  A missing sign change is reported as
    ``crossing=None``, not an error.
    """
    s_values = [float(s) for s in s_list]
    if any(s_values[i] >= s_values[i + 1] for i in range(len(s_values) - 1)):
        raise ValueError("s values must be strictly increasing")
    ns = _validate_n_list(n_list)
    points = [_sweep_point(kind, N, tau_step) for N in ns]
    scan = ThresholdScan(kind, b, mode)
    for s in s_values:
        p = NormParams(s=s, b=b, mod_threshold=mod_threshold)
        rows = [_row_from_point(inst, prod, p, mode) for inst, prod in points]
        slope, _, _ = fit_loglog(ns, [r.ratio for r in rows])
        scan.points.append((s, slope))
    scan.crossing = locate_sign_change(scan.points)
    return scan
