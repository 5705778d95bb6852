"""Space-time frequency lattice, fields, projectors, and convolution.

The computational model: complex Fourier data u_hat(n, tau) lives on the
integer box {-n_max, ..., n_max}^d times a uniform tau-window symmetric about
zero.  A field stores only the spatial columns it occupies; any column absent
from its index is identically zero.  All tau-integrals are trapezoid sums on
the window (the endpoint half-weights matter only for data touching the
window edge, which well-resolved fields never do).

Conventions (the 2*pi-free normalization): synthesis is
u(x, t) = sum_n Int u_hat(n, tau) e^{i(n.x + t tau)} dtau, so multiplication
of two functions corresponds to plain convolution of their coefficient data,
with no extra constants anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

# Pair-count boundary between the per-column convolution path and the padded
# FFT path, and a guard on the padded FFT workspace.
_SPARSE_COLUMN_LIMIT = 32
_DENSE_ENTRY_LIMIT = 180_000_000  # complex entries, ~2.9 GB


def japanese_bracket(x):
    """<x> = (1 + x^2)^(1/2), elementwise; >= 1 and even in x."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


def modulation(n, tau):
    """Signed distance tau + |n|^2 of a space-time frequency from the paraboloid."""
    n = np.atleast_1d(np.asarray(n))
    return np.asarray(tau, dtype=float) + float(np.dot(n, n))


@dataclass(frozen=True)
class FrequencyGrid:
    """Truncated lattice {-n_max..n_max}^d times a symmetric uniform tau-window."""

    dimension: int
    n_max: int
    tau_max: float
    tau_step: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError("n_max must be an integer >= 1")
        if not self.tau_step > 0:
            raise ValueError("tau_step must be positive")
        if not self.tau_max > 0:
            raise ValueError("tau_max must be positive (window is [-tau_max, tau_max])")
        steps = 2.0 * self.tau_max / self.tau_step
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("window length must be an integer multiple of tau_step")
        required = 2.0 * self.n_max**2 + 4.0
        if self.tau_max < required - 1e-9:
            raise ValueError(
                f"tau window [{-self.tau_max}, {self.tau_max}] must contain "
                f"[-{required}, {required}] for n_max={self.n_max}"
            )

    @classmethod
    def for_box(cls, dimension, n_max, tau_step=0.25, tau_pad=8.0):
        """Grid with the default window [-(2 n_max^2 + pad), 2 n_max^2 + pad]."""
        target = 2.0 * n_max**2 + tau_pad
        tau_max = math.ceil(target / tau_step - 1e-9) * tau_step
        return cls(dimension, n_max, tau_max, tau_step)

    # -- tau axis ---------------------------------------------------------

    @property
    def tau_min(self):
        return -self.tau_max

    @cached_property
    def n_tau(self):
        return int(round(2.0 * self.tau_max / self.tau_step)) + 1

    @cached_property
    def half_index(self):
        return (self.n_tau - 1) // 2

    @cached_property
    def tau_nodes(self):
        # (j - half)*step is exactly antisymmetric under j -> n_tau-1-j.
        return (np.arange(self.n_tau) - self.half_index) * self.tau_step

    @cached_property
    def tau_weights(self):
        w = np.full(self.n_tau, self.tau_step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def tau_index(self, tau):
        """Index of an on-grid tau value; raises if tau is not a sample point."""
        j = (float(tau) - self.tau_min) / self.tau_step
        jr = int(round(j))
        if not 0 <= jr < self.n_tau or abs(j - jr) > 1e-8:
            raise ValueError(f"tau={tau} is not a sample of the tau-grid")
        return jr

    # -- spatial box ------------------------------------------------------

    @property
    def box_side(self):
        return 2 * self.n_max + 1

    @property
    def box_count(self):
        return self.box_side**self.dimension

    @cached_property
    def box_index(self):
        """All lattice points of the box, row-major, shape (box_count, d)."""
        r = np.arange(-self.n_max, self.n_max + 1)
        if self.dimension == 1:
            return r.reshape(-1, 1).astype(np.int64)
        a, b = np.meshgrid(r, r, indexing="ij")
        return np.stack([a.ravel(), b.ravel()], axis=1).astype(np.int64)

    def flat_keys(self, ns):
        """Row-major flat index of lattice points inside the box."""
        ns = np.asarray(ns, dtype=np.int64)
        shifted = ns + self.n_max
        if self.dimension == 1:
            return shifted[:, 0]
        return shifted[:, 0] * self.box_side + shifted[:, 1]

    def index_from_keys(self, keys):
        """Lattice points of row-major flat keys, shape (len(keys), d); inverts flat_keys."""
        keys = np.asarray(keys, dtype=np.int64)
        if self.dimension == 1:
            return (keys - self.n_max).reshape(-1, 1)
        return np.stack([keys // self.box_side - self.n_max,
                         keys % self.box_side - self.n_max], axis=1)

    @staticmethod
    def norm_sq(ns):
        ns = np.asarray(ns, dtype=np.int64)
        return (ns * ns).sum(axis=1)

    def in_box(self, ns):
        ns = np.asarray(ns, dtype=np.int64)
        return (np.abs(ns) <= self.n_max).all(axis=1)

    def assert_compatible(self, other):
        if self != other:
            raise ValueError("grid mismatch between fields")


def _sorted_rows(grid, ns, data):
    order = np.argsort(grid.flat_keys(ns), kind="stable")
    return ns[order], data[order]


@dataclass
class SpaceTimeField:
    """Complex coefficients u_hat(n, tau) on a set of occupied spatial columns.

    ``index`` has shape (K, d) and is sorted (row-major key) with unique rows;
    ``data`` has shape (K, n_tau).  Columns outside ``index`` are zero.
    """

    grid: FrequencyGrid
    index: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.int64).reshape(-1, self.grid.dimension)
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128).reshape(
            len(self.index), self.grid.n_tau
        )
        if len(self.index) and not self.grid.in_box(self.index).all():
            raise ValueError("field has columns outside the grid box")
        keys = self.grid.flat_keys(self.index)
        if len(keys) > 1:
            d = np.diff(keys)
            if (d < 0).any():
                raise ValueError("field index must be sorted")
            if (d == 0).any():
                raise ValueError("field index must not contain duplicate columns")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros((0, grid.dimension), dtype=np.int64),
                   np.zeros((0, grid.n_tau), dtype=np.complex128))

    @classmethod
    def full(cls, grid):
        """Zero field materialized on every box column (guarded by size)."""
        return cls(grid, grid.box_index.copy(), cls.zero(grid).box_array())

    @classmethod
    def from_columns(cls, grid, ns, profiles):
        """Field occupying the given lattice points with the given tau-profiles."""
        ns = np.asarray(ns, dtype=np.int64).reshape(-1, grid.dimension)
        profiles = np.asarray(profiles, dtype=np.complex128).reshape(len(ns), grid.n_tau)
        if not np.isfinite(profiles).all():  # data enters here; derived fields are not rechecked
            raise ValueError("field contains non-finite coefficients")
        ns, profiles = _sorted_rows(grid, ns, profiles)
        return cls(grid, ns, profiles)

    # -- basic queries ----------------------------------------------------

    @property
    def n_columns(self):
        return len(self.index)

    def norm_sq_columns(self):
        return FrequencyGrid.norm_sq(self.index)

    def mod_array(self, span=None):
        """Modulation tau + |n|^2 per stored entry, shape (K, n_tau), or (K, b-a) on [a, b)."""
        a, b = (0, self.grid.n_tau) if span is None else span
        return self.grid.tau_nodes[None, a:b] + self.norm_sq_columns()[:, None].astype(float)

    def tau_span(self):
        """Half-open tau-index range [a, b) holding every nonzero entry; (0, 0) if none.

        The union over all stored columns.
        """
        nz = np.flatnonzero(self.data.any(axis=0))
        return (int(nz[0]), int(nz[-1]) + 1) if len(nz) else (0, 0)

    def column(self, n):
        """Tau-profile of one column (zeros if the column is not occupied)."""
        n = np.asarray(n, dtype=np.int64).reshape(1, self.grid.dimension)
        key = self.grid.flat_keys(n)[0]
        keys = self.grid.flat_keys(self.index)
        pos = np.searchsorted(keys, key)
        if pos < len(keys) and keys[pos] == key:
            return self.data[pos].copy()
        return np.zeros(self.grid.n_tau, dtype=np.complex128)

    def max_abs(self):
        return float(np.abs(self.data).max()) if self.data.size else 0.0

    def pruned(self, tol=0.0):
        """Drop columns whose coefficients are all <= tol in modulus."""
        if not len(self.index):
            return self
        keep = np.abs(self.data).max(axis=1) > tol
        return SpaceTimeField(self.grid, self.index[keep], self.data[keep])

    def box_array(self):
        """Dense array over the full box, spatial axes first (guarded by size)."""
        entries = self.grid.box_count * self.grid.n_tau
        if entries > _DENSE_ENTRY_LIMIT:
            raise MemoryError("dense materialization of this field is too large")
        side = self.grid.box_side
        shape = (side,) * self.grid.dimension + (self.grid.n_tau,)
        out = np.zeros(shape, dtype=np.complex128)
        flat = out.reshape(-1, self.grid.n_tau)
        flat[self.grid.flat_keys(self.index)] = self.data
        return out

    # -- algebra ----------------------------------------------------------

    def copy(self):
        return SpaceTimeField(self.grid, self.index.copy(), self.data.copy())

    def __add__(self, other):
        return _add_fields(self, other, 1.0)

    def __sub__(self, other):
        return _add_fields(self, other, -1.0)

    def __mul__(self, scalar):
        return SpaceTimeField(self.grid, self.index.copy(), self.data * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _add_fields(a, b, sign):
    a.grid.assert_compatible(b.grid)
    grid = a.grid
    if np.array_equal(a.index, b.index):
        data = a.data + b.data if sign > 0 else a.data - b.data
        return SpaceTimeField(grid, a.index.copy(), data)
    ka = grid.flat_keys(a.index)
    kb = grid.flat_keys(b.index)
    keys = np.union1d(ka, kb)
    data = np.zeros((len(keys), grid.n_tau), dtype=np.complex128)
    data[np.searchsorted(keys, ka)] += a.data
    data[np.searchsorted(keys, kb)] += sign * b.data
    return SpaceTimeField(grid, grid.index_from_keys(keys), data)


# -- dyadic spatial projections -------------------------------------------


@dataclass(frozen=True)
class DyadicBlock:
    """Dyadic annulus: N=1 keeps |n| <= 1, N>=2 keeps N/2 < |n| <= N (Euclidean)."""

    N: int

    def __post_init__(self):
        if self.N < 1 or (self.N & (self.N - 1)) != 0:
            raise ValueError("block size must be a dyadic integer 1, 2, 4, ...")

    def contains(self, norm_sq):
        norm_sq = np.asarray(norm_sq)
        if self.N == 1:
            return norm_sq <= 1
        return (4 * norm_sq > self.N**2) & (norm_sq <= self.N**2)


def dyadic_blocks(grid):
    """Blocks covering the whole box (largest |n| is sqrt(d) * n_max)."""
    radius_sq = grid.dimension * grid.n_max**2
    blocks = [DyadicBlock(1)]
    while blocks[-1].N ** 2 < radius_sq:
        blocks.append(DyadicBlock(blocks[-1].N * 2))
    return blocks


def project_dyadic(u, block):
    """Restrict a field to one dyadic annulus (columns outside are dropped)."""
    if block.N > 2 * math.sqrt(u.grid.dimension) * u.grid.n_max:
        raise ValueError(f"block N={block.N} lies beyond the grid diameter")
    keep = block.contains(u.norm_sq_columns())
    return SpaceTimeField(u.grid, u.index[keep], u.data[keep])


def project_modulation(u, side, threshold=2.0**-10):
    """Split at |tau + |n|^2| < threshold * |n|^2: 'lo' keeps it, 'hi' the rest.

    The n=0 column has empty lo-region (the threshold is zero there).
    """
    if side not in ("lo", "hi"):
        raise ValueError("side must be 'lo' or 'hi'")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lo_mask = low_modulation_mask(u.mod_array(), u.norm_sq_columns(), threshold)
    mask = lo_mask if side == "lo" else ~lo_mask
    return SpaceTimeField(u.grid, u.index.copy(), u.data * mask)


def low_modulation_mask(mod, norm_sq, threshold):
    """True where |tau + |n|^2| < threshold * |n|^2, for modulations ``mod`` (K, *)."""
    return np.abs(mod) < threshold * norm_sq.astype(float)[:, None]


def conjugate_reflect(u):
    """Data of the complex conjugate: output(n, tau) = conj(input(-n, -tau)).

    Exact on the symmetric tau-grid; an involution.
    """
    ns = -u.index
    data = np.conj(u.data[:, ::-1])
    ns, data = _sorted_rows(u.grid, ns, data)
    return SpaceTimeField(u.grid, ns, data)


# -- space-time convolution -------------------------------------------------


def spacetime_convolve(f, g, report=None):
    """(f*g)(n,tau) = sum_{n1+n2=n} Int f(n1,tau') g(n2,tau-tau') dtau'.

    The tau-integral is the grid quadrature (step-weighted discrete
    convolution); output spatial frequencies escaping the box and tau values
    escaping the window are dropped.  If ``report`` is a dict it receives
    'dropped_spatial_mass' and 'dropped_tau_mass' (step-weighted l1 mass).
    """
    f.grid.assert_compatible(g.grid)
    grid = f.grid
    if report is not None:
        report["dropped_spatial_mass"] = 0.0
        report["dropped_tau_mass"] = 0.0
    if f.n_columns == 0 or g.n_columns == 0:
        return SpaceTimeField.zero(grid)
    if min(f.n_columns, g.n_columns) <= _SPARSE_COLUMN_LIMIT:
        return _convolve_sparse(f, g, report)
    return _padded_product(f, g, report=report)


def _convolve_sparse(f, g, report):
    """Per-column convolution of the operands' nonzero tau-spans only.

    The FFT length is that of the spans' linear convolution, and the product
    is exactly zero off its offset span; full-span operands take the
    full-window arithmetic.
    """
    grid = f.grid
    if f.n_columns > g.n_columns:
        f, g = g, f
    M = grid.n_tau
    h = grid.tau_step
    (af, bf), (ag, bg) = f.tau_span(), g.tau_span()
    if bf == af or bg == ag:
        return SpaceTimeField.zero(grid)  # an all-zero operand; the report stays 0
    length = (bf - af) + (bg - ag) - 1
    start = af + ag - grid.half_index
    # samples [k0, k1) of the linear convolution land inside the window
    k0 = min(max(0, -start), length)
    k1 = max(k0, min(length, M - start))
    L = sfft.next_fast_len(length)
    G = sfft.fft(g.data[:, ag:bg], n=L, axis=1)
    acc = {}
    dropped_spatial = 0.0
    dropped_tau = 0.0
    for i in range(f.n_columns):
        Fi = sfft.fft(f.data[i, af:bf], n=L)
        conv = sfft.ifft(Fi[None, :] * G, axis=1)[:, :length]
        dropped_tau += h * float(np.abs(conv[:, :k0]).sum() + np.abs(conv[:, k1:]).sum())
        core = conv[:, k0:k1]
        ns_out = f.index[i][None, :] + g.index
        inside = grid.in_box(ns_out)
        if not inside.all():
            dropped_spatial += h * float(np.abs(core[~inside]).sum())
        for key, row in zip(grid.flat_keys(ns_out[inside]), core[inside]):
            if key in acc:
                acc[key] += row
            else:
                acc[key] = row.copy()
    if report is not None:
        report["dropped_spatial_mass"] = dropped_spatial
        report["dropped_tau_mass"] = dropped_tau
    if not acc:
        return SpaceTimeField.zero(grid)
    keys = np.array(sorted(acc), dtype=np.int64)
    data = np.zeros((len(keys), M), dtype=np.complex128)
    np.multiply(h, np.stack([acc[k] for k in keys]), out=data[:, start + k0: start + k1])
    return SpaceTimeField(grid, grid.index_from_keys(keys), data)


def _workspace(grid, weight=None):
    """Padded (x, t) shape (spatial axes, then tau length P), kept t-nodes, their
    count and the weight there: a function of t_l = 2 pi l / (h P), l in
    (-P/2, P/2], keeping the nodes where it is non-zero (all when None)."""
    shape = (sfft.next_fast_len(2 * grid.box_side - 1),) * grid.dimension \
        + (sfft.next_fast_len(2 * grid.n_tau - 1),)
    P = shape[-1]
    if weight is None:
        return shape, slice(None), P, None
    l = np.arange(P)
    l[l > P // 2] -= P
    w = weight(2.0 * math.pi * l / (grid.tau_step * P))
    live = np.flatnonzero(w)
    return shape, live, len(live), w[live]


def _padded_product(f, g, weight=None, report=None):
    """h (f * g) on the box and window as one padded (x, t) product.

    The operands' rows are tau-transformed at length P, weighted at the
    ``_workspace`` t-nodes and taken through the spatial axes; the pointwise
    product (one transform squared when ``g is f``) goes back and is cropped
    to [n_max, 3 n_max] x [half, half + n_tau).  A ``report`` dict receives
    the masses ``spacetime_convolve`` documents.
    """
    grid, d = f.grid, f.grid.dimension
    shape, live, n_live, w = _workspace(grid, weight)
    P, axes = shape[-1], tuple(range(d))
    if math.prod(shape[:-1]) * n_live > _DENSE_ENTRY_LIMIT:
        raise MemoryError("padded product workspace is too large; reduce n_max or the tau-window")

    def samples(u):
        rows = sfft.fft(u.data, n=P, axis=1)
        box = np.zeros((grid.box_count, n_live), dtype=np.complex128)
        box[grid.flat_keys(u.index)] = rows if w is None else rows[:, live] * w
        box = box.reshape((grid.box_side,) * d + (n_live,))
        return sfft.fftn(box, s=shape[:-1], axes=axes, overwrite_x=True)

    conv = samples(f)
    conv *= conv if g is f else samples(g)
    conv = sfft.ifftn(conv, axes=axes, overwrite_x=True)
    core = (slice(grid.n_max, 3 * grid.n_max + 1),) * d
    full = (2 * grid.box_side - 1,) * d  # the linear convolution's spatial range
    kept = conv[core] if report is None else conv[tuple(slice(0, n) for n in full)]
    rows = np.zeros((kept[..., 0].size, P), dtype=np.complex128)
    rows[:, live] = kept.reshape(len(rows), n_live)
    del conv, kept
    out = sfft.ifft(rows, axis=1, overwrite_x=True)
    half, M, h = grid.half_index, grid.n_tau, grid.tau_step
    if report is not None:
        out = out.reshape(full + (P,))
        spatial = np.abs(out[..., half:half + M])
        report["dropped_spatial_mass"] = h * float(spatial.sum() - spatial[core].sum())
        # every output column's tail outside the window, as on the per-column path
        tau = np.abs(out[..., :2 * M - 1])
        report["dropped_tau_mass"] = h * float(tau[..., :half].sum() + tau[..., half + M:].sum())
        out = out[core].reshape(grid.box_count, P)
    return SpaceTimeField(grid, grid.box_index.copy(), h * out[:, half:half + M])


# -- time synthesis ----------------------------------------------------------


def time_slices(u, times):
    """Per-column values u_hat(n, t) = Int u_hat(n, tau) e^{i t tau} dtau.

    Returns an array of shape (K, len(times)).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    kernel = np.exp(1j * np.outer(u.grid.tau_nodes, times))
    kernel *= u.grid.tau_weights[:, None]
    return u.data @ kernel


def random_field(grid, rng, columns=None, envelope_power=0.0):
    """Seeded complex-Gaussian field, optionally restricted to given columns.

    ``envelope_power`` < 0 concentrates mass near the paraboloid by the factor
    <tau + |n|^2>^envelope_power.
    """
    if columns is None:
        ns = grid.box_index
    else:
        ns = np.asarray(columns, dtype=np.int64).reshape(-1, grid.dimension)
    data = rng.standard_normal((len(ns), grid.n_tau)) \
        + 1j * rng.standard_normal((len(ns), grid.n_tau))
    field = SpaceTimeField.from_columns(grid, ns, data)
    if envelope_power != 0.0:
        field.data *= japanese_bracket(field.mod_array()) ** envelope_power
    return field
