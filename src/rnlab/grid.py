"""Space-time frequency lattice, fields, projectors, and convolution.

The computational model: complex Fourier data u_hat(n, tau) lives on the
integer box {-n_max, ..., n_max}^d times a uniform tau-window symmetric about
zero.  A field stores only the spatial columns it occupies, and of those only
a block of tau-samples: the window indices [lo, lo + width).  Any column
absent from its index, and every sample outside its block, is identically
zero.  The solver and the random fields store the whole window (lo = 0);
a family member stores the few samples of its indicator, so its cost
follows its tau-support, not the window.  All tau-integrals are trapezoid
sums on the window (the endpoint half-weights matter only for data touching
the window edge, which well-resolved fields never do).

Conventions (the 2*pi-free normalization): synthesis is
u(x, t) = sum_n Int u_hat(n, tau) e^{i(n.x + t tau)} dtau, so multiplication
of two functions corresponds to plain convolution of their coefficient data,
with no extra constants anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not by the first transform)
from numpy.lib.stride_tricks import sliding_window_view

# Guard on dense materialization and on the padded product's workspace.
_DENSE_ENTRY_LIMIT = 180_000_000  # complex entries, ~2.9 GB

# Bytes of one block of a streamed pass: the rows (``_row_blocks``) of the
# product's tau-samples at length P, of the Z- and X-norms' temporaries, of the
# linear solution and of a random field's draw, the t-samples of the L^4
# norm's synthesis and of the L^4 check's lattice window sums, and the Duhamel
# step's columns of N1's series.  A pass whose transient fits takes one block.
_BLOCK_BYTES = 8 << 20

# The one split of the Z-space: modulation |tau + |n|^2| below MOD_THRESHOLD
# times |n|^2 is low, the rest high.
MOD_THRESHOLD = 2.0**-10


def steps_per_unit(tau_step):
    """1 / tau_step as an int; raises unless it is a positive integer, so that
    integer |n|^2 and the family indicators' endpoints land on tau-samples."""
    per_unit = 1.0 / tau_step
    if not 0.5 < per_unit < math.inf or abs(per_unit - round(per_unit)) > 1e-9:
        raise ValueError(f"need a tau_step that divides 1, got {tau_step!r}")
    return round(per_unit)


def japanese_bracket(x):
    """<x> = (1 + x^2)^(1/2), elementwise; >= 1 and even in x."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


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
        steps = 2.0 * self.tau_max / self.tau_step  # inf past float64, which round() refuses
        if not steps < math.inf or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"window [{-self.tau_max}, {self.tau_max}] must be a finite "
                             f"integer multiple of tau_step={self.tau_step}")
        required = 2.0 * self.n_max**2 + 4.0
        if self.tau_max < required - 1e-9:
            raise ValueError(
                f"tau window [{-self.tau_max}, {self.tau_max}] must contain "
                f"[-{required}, {required}] for n_max={self.n_max}"
            )

    @classmethod
    def for_box(cls, dimension, n_max, tau_step=0.25, tau_pad=8.0):
        """Grid with the default window [-(2 n_max^2 + pad), 2 n_max^2 + pad]."""
        steps = (2.0 * n_max**2 + tau_pad) / tau_step  # tau_max in steps, before rounding up
        if not 1e-9 < steps < math.inf:
            raise ValueError(f"tau_step={tau_step} makes the half-window {steps:.3g} steps")
        tau_max = math.ceil(steps - 1e-9) * tau_step
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
        return self.nodes_on(0, self.n_tau)

    @cached_property
    def tau_weights(self):
        return self.weights_on(0, self.n_tau)

    def nodes_on(self, a, b):
        """tau_nodes[a:b], computed on [a, b) alone and bitwise equal to it."""
        # (j - half)*step is exactly antisymmetric under j -> n_tau-1-j.
        return (np.arange(a, b) - self.half_index) * self.tau_step

    def weights_on(self, a, b):
        """tau_weights[a:b], computed on [a, b) alone and bitwise equal to it."""
        w = np.full(b - a, self.tau_step)
        if a == 0 < b:
            w[0] *= 0.5
        if a < b == self.n_tau:
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


def _rows(data, count, width):
    """``data`` as ``count`` complex rows; 2-D data keeps its own width."""
    data = np.asarray(data, dtype=np.complex128)
    return data.reshape(count, data.shape[1] if data.ndim == 2 else width)


def _sorted_rows(grid, ns, data, width, copy=True):
    """Lattice points ``ns`` and their rows of ``data`` in row-major key order.

    ``ns`` comes back as a new array.  The rows are copied once, by the
    argsort gather, or when the keys already strictly increase by a plain
    copy, or, unless ``copy``, not at all: complex rows are then ``data``.
    """
    ns = np.asarray(ns, dtype=np.int64).reshape(-1, grid.dimension)
    keys = grid.flat_keys(ns)
    if (np.diff(keys) > 0).all():
        return ns.copy(), _rows(np.array(data, dtype=np.complex128) if copy else data,
                                len(ns), width)
    order = np.argsort(keys, kind="stable")
    return ns[order], _rows(data, len(ns), width)[order]


@dataclass
class SpaceTimeField:
    """Complex coefficients u_hat(n, tau) on a set of occupied spatial columns.

    ``index`` has shape (K, d) and is sorted (row-major key) with unique rows.
    ``data`` has shape (K, width) and holds the window samples
    [lo, lo + width) of each column, with lo + width <= n_tau; a field on the
    whole window has lo = 0 and width = n_tau.  Columns outside ``index`` and
    samples outside the block are zero.
    """

    grid: FrequencyGrid
    index: np.ndarray
    data: np.ndarray
    lo: int = 0

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.int64).reshape(-1, self.grid.dimension)
        self.data = np.ascontiguousarray(
            _rows(self.data, len(self.index), self.grid.n_tau - self.lo))
        if not 0 <= self.lo <= self.lo + self.data.shape[1] <= self.grid.n_tau:
            raise ValueError("field block must lie inside the tau-window")
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
    def from_columns(cls, grid, ns, profiles, lo=0, copy=True):
        """Field occupying the given lattice points with the given tau-profiles,
        each the window samples from ``lo`` on (the whole window by default).

        The field owns its arrays: neither aliases the arguments, unless
        ``copy`` is false, when complex (K, width) profiles in increasing key
        order become the field's data (``random_field`` hands over its draw).
        """
        ns, profiles = _sorted_rows(grid, ns, profiles, grid.n_tau - lo, copy)
        if not np.isfinite(profiles).all():  # data enters here; derived fields are not rechecked
            raise ValueError("field contains non-finite coefficients")
        return cls(grid, ns, profiles, lo)

    # -- basic queries ----------------------------------------------------

    @property
    def n_columns(self):
        return len(self.index)

    @property
    def stored(self):
        """Half-open window range [lo, lo + width) of the stored block."""
        return self.lo, self.lo + self.data.shape[1]

    def norm_sq_columns(self):
        return FrequencyGrid.norm_sq(self.index)

    def mod_array(self):
        """Modulation tau + |n|^2 per stored entry, shape (K, width)."""
        return self.grid.nodes_on(*self.stored)[None, :] \
            + self.norm_sq_columns()[:, None].astype(float)

    def column(self, n, span=None):
        """Tau-profile of one column over the window, or over window samples
        [a, b) if ``span`` is given (zeros if it is not occupied)."""
        a, b = (0, self.grid.n_tau) if span is None else span
        n = np.asarray(n, dtype=np.int64).reshape(1, self.grid.dimension)
        key = self.grid.flat_keys(n)[0]
        keys = self.grid.flat_keys(self.index)
        pos = np.searchsorted(keys, key)
        out = np.zeros(b - a, dtype=np.complex128)
        lo, hi = max(a, self.lo), min(b, self.stored[1])
        if pos < len(keys) and keys[pos] == key and lo < hi:
            out[lo - a:hi - a] = self.data[pos, lo - self.lo:hi - self.lo]
        return out

    def max_abs(self):
        return float(np.abs(self.data).max()) if self.data.size else 0.0

    def box_array(self):
        """Dense array over the full box and window, spatial axes first (guarded by size)."""
        entries = self.grid.box_count * self.grid.n_tau
        if entries > _DENSE_ENTRY_LIMIT:
            raise MemoryError("dense materialization of this field is too large")
        side = self.grid.box_side
        shape = (side,) * self.grid.dimension + (self.grid.n_tau,)
        out = np.zeros(shape, dtype=np.complex128)
        flat = out.reshape(-1, self.grid.n_tau)
        flat[self.grid.flat_keys(self.index), slice(*self.stored)] = self.data
        return out

    def on_window(self):
        """This field stored on the whole window: itself if it already is."""
        if self.stored == (0, self.grid.n_tau):
            return self
        data = np.zeros((self.n_columns, self.grid.n_tau), dtype=np.complex128)
        data[:, slice(*self.stored)] = self.data
        return SpaceTimeField(self.grid, self.index.copy(), data)

    # -- algebra ----------------------------------------------------------

    def copy(self):
        return SpaceTimeField(self.grid, self.index.copy(), self.data.copy(), self.lo)

    def __add__(self, other):
        return _add_fields(self, other, 1.0)

    def __sub__(self, other):
        return _add_fields(self, other, -1.0)

    def __mul__(self, scalar):
        return SpaceTimeField(self.grid, self.index.copy(), self.data * complex(scalar), self.lo)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _add_fields(a, b, sign):
    """a + sign b on the union of the columns and of the stored blocks.

    An operand with no stored entry adds no block, so adding the zero field
    does not widen the other operand.
    """
    a.grid.assert_compatible(b.grid)
    grid = a.grid
    if a.stored == b.stored and np.array_equal(a.index, b.index):
        data = a.data + b.data if sign > 0 else a.data - b.data
        return SpaceTimeField(grid, a.index.copy(), data, a.lo)
    ka = grid.flat_keys(a.index)
    kb = grid.flat_keys(b.index)
    keys = np.union1d(ka, kb)
    blocks = [u.stored for u in (a, b) if u.data.size] or [(0, 0)]
    lo = min(s for s, _ in blocks)
    data = np.zeros((len(keys), max(e for _, e in blocks) - lo), dtype=np.complex128)
    for u, k, rows in ((a, ka, a.data), (b, kb, sign * b.data)):
        if u.data.size:
            s, e = u.stored
            data[np.searchsorted(keys, k), s - lo:e - lo] += rows
    return SpaceTimeField(grid, grid.index_from_keys(keys), data, lo)


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
    return SpaceTimeField(u.grid, u.index[keep], u.data[keep], u.lo)


def project_modulation(u, side):
    """Split at |tau + |n|^2| < MOD_THRESHOLD * |n|^2: 'lo' keeps it, 'hi' the rest.

    The n=0 column has empty lo-region (the threshold is zero there).
    """
    if side not in ("lo", "hi"):
        raise ValueError("side must be 'lo' or 'hi'")
    lo_mask = low_modulation_mask(u.mod_array(), u.norm_sq_columns())
    mask = lo_mask if side == "lo" else ~lo_mask
    return SpaceTimeField(u.grid, u.index.copy(), u.data * mask, u.lo)


def low_modulation_mask(mod, norm_sq):
    """True where |tau + |n|^2| < MOD_THRESHOLD * |n|^2, for modulations ``mod`` (K, *)."""
    return np.abs(mod) < MOD_THRESHOLD * norm_sq.astype(float)[:, None]


def conjugate_reflect(u):
    """Data of the complex conjugate: output(n, tau) = conj(input(-n, -tau)).

    Exact on the symmetric tau-grid; an involution.  n -> -n reverses the
    row-major key order, so reversing the rows keeps the index sorted, and
    tau -> -tau mirrors the stored block [lo, hi) to [n_tau - hi, n_tau - lo).
    """
    return SpaceTimeField(u.grid, -u.index[::-1], np.conj(u.data[::-1, ::-1]),
                          u.grid.n_tau - u.stored[1])


# -- space-time convolution -------------------------------------------------


def spacetime_convolve(f, g, report=None):
    """(f*g)(n,tau) = sum_{n1+n2=n} Int f(n1,tau') g(n2,tau-tau') dtau'.

    The tau-integral is the grid quadrature (step-weighted discrete
    convolution); output spatial frequencies escaping the box and tau values
    escaping the window are dropped.  If ``report`` is a dict it receives
    'dropped_spatial_mass' and 'dropped_tau_mass', the step-weighted l1 mass
    of the output columns outside the box inside the window, and of every
    output column outside the window.
    """
    f.grid.assert_compatible(g.grid)
    return _padded_product(f, g, report=report)


def _workspace(grid, weight=None):
    """Padded (x, t) shape (spatial axes, then tau length P), kept t-nodes, their
    count and the weight there: a function of t_l = 2 pi l / (h P), l in
    (-P/2, P/2], keeping the nodes where it is non-zero (all when None)."""
    shape = (_next_fast_len(2 * grid.box_side - 1),) * grid.dimension \
        + (_next_fast_len(2 * grid.n_tau - 1),)
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

    The workspace holds the linear convolution of the operands' column
    bounding boxes and stored blocks; with a ``weight``, which spreads the
    product over the whole window, the operands are taken on the whole
    window and the t-nodes are those of ``_workspace``.  Each operand's
    rows are tau-transformed at length P, weighted, and taken through the
    spatial axes; the pointwise product (one transform squared when
    ``g is f`` or ``g is None``) goes back and is cropped to the box and
    window.  Both tau passes run the rows in the blocks of ``_row_blocks``
    through one buffer, so no (rows, P) array is formed, and the operands
    are dropped between them: one that the caller does not hold is freed
    there.  The result holds the box columns of the product's support box
    and stores only the offset span, the window samples the linear
    convolution reaches (the whole window with a ``weight``).  An operand
    with no stored entry gives the zero field.  A ``report`` dict receives
    the masses ``spacetime_convolve`` documents, summed block by block.
    """
    grid, d = f.grid, f.grid.dimension
    M, h = grid.n_tau, grid.tau_step
    if g is None:
        g = f
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
    lo = lo_f + lo_g  # the lattice point at the workspace origin
    first = np.maximum(lo, -grid.n_max)  # lattice corners of the crop to the box
    last = np.maximum(np.minimum(lo + full, grid.n_max + 1), first) - 1
    core = tuple(slice(a - c, b + 1 - c) for a, b, c in zip(first, last, lo))
    out_rows = math.prod(last - first + 1)
    inverse_rows = out_rows if report is None else math.prod(full)
    buf = np.empty((min(_block_rows(16 * P) + 1, max(f.n_columns, g.n_columns, inverse_rows)),
                    P), dtype=np.complex128)  # the one buffer of both tau passes

    def samples(u, lo, ext):
        box = np.zeros((math.prod(ext), n_live), dtype=np.complex128)
        keys = np.ravel_multi_index((u.index - lo).T, ext)
        for part in _row_blocks(len(keys), 16 * P):
            rows = np.fft.fft(u.data[part], n=P, axis=1, out=buf[:part.stop - part.start])
            box[keys[part]] = rows if w is None else rows[:, live] * w
        return _fftn(box.reshape(tuple(ext) + (n_live,)), shape)

    # samples [k0, k1) of the linear convolution land inside the window
    start = f.lo + g.lo - grid.half_index
    k0 = min(max(0, -start), length)
    k1 = max(k0, min(length, M - start))
    conv = samples(f, lo_f, ext_f)
    conv *= conv if g is f else samples(g, lo_g, ext_g)
    del f, g
    conv = _ifftn(conv, d)
    if report is None:
        kept = conv[core]
    else:
        kept = conv[tuple(slice(0, n) for n in full)]
        inside = np.zeros(full, dtype=bool)
        inside[core] = True
        inside = inside.ravel()
    kept = kept.reshape(-1, n_live)
    data = np.empty((out_rows, k1 - k0), dtype=np.complex128)
    at = 0
    for part in _row_blocks(len(kept), 16 * P):
        rows = buf[:part.stop - part.start]
        if w is not None:  # only the live t-nodes are written
            rows.fill(0.0)
        rows[:, live] = kept[part]
        np.fft.ifft(rows, axis=1, out=rows)
        if report is not None:
            keep = inside[part]
            mass = np.abs(rows[:, :length])
            report["dropped_spatial_mass"] += h * float(mass[~keep, k0:k1].sum())
            report["dropped_tau_mass"] += h * float(mass[:, :k0].sum() + mass[:, k1:].sum())
            rows = rows[keep]
        np.multiply(h, rows[:, k0:k1], out=data[at:at + len(rows)])
        at += len(rows)
    ns = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(first, last)), indexing="ij")
    return SpaceTimeField(grid, np.stack([n.ravel() for n in ns], axis=1),
                          data, start + k0 if k1 > k0 else 0)


def _block_rows(row_bytes):
    """Rows of ``row_bytes`` bytes in one block (at least two)."""
    return max(2, _BLOCK_BYTES // row_bytes)


def _row_blocks(count, row_bytes):
    """Rows [0, count) in order as slices of ``_block_rows(row_bytes)`` rows,
    the last taking the rest (no rows: one empty block).  No block starts on
    the last row but row 0, so none is a lone row unless count is 1: np.einsum
    rounds one row of over 8192 samples apart from the same row among others."""
    starts = range(0, max(count - 1, 1), _block_rows(row_bytes))
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], count])]


# numpy.fft (numpy >= 2.0) runs the C++ pocketfft.  The n-D helpers keep the
# axis order and normalization step the byte-stable reports were made with.


def _next_fast_len(target):
    """Smallest 2-3-5-7-11-smooth integer >= target: a length pocketfft runs fast."""
    n = max(target, 1)
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fftn(x, s):
    """Forward transform over the leading len(s) axes, zero-padded to lengths s.

    Axis 0 first; np.fft.fftn goes last axis first and rounds differently in d=2.
    """
    for axis, n in enumerate(s):
        x = np.fft.fft(x, n=n, axis=axis)
    return x


def _ifftn(x, d):
    """Inverse transform over the leading d axes, in place.

    The whole 1/prod(N) scales each real component once, right after the
    first axis, where pocketfft's multi-axis transform applies it.
    """
    scale = 1.0 / math.prod(x.shape[:d])
    for axis in range(d):
        np.fft.ifft(x, axis=axis, norm="forward", out=x)
        if axis == 0:
            x.view(np.float64)[...] *= scale
    return x


# -- time synthesis ----------------------------------------------------------


@lru_cache(maxsize=1)  # the last one: the fields of one L^4 norm share it
def _time_kernel(grid, times):
    """e^{i t tau} times the tau quadrature weights, shape (n_tau, len(times)), read-only."""
    kernel = np.exp(1j * np.outer(grid.tau_nodes, times))
    kernel *= grid.tau_weights[:, None]  # in place: no second (n_tau, len(times)) array
    kernel.setflags(write=False)
    return kernel


def time_slices(u, times):
    """Per-column values u_hat(n, t) = Int u_hat(n, tau) e^{i t tau} dtau, shape
    (K, len(times)).  A BLAS product over the whole window, whose last bits
    follow the thread count: of the norms only ``l4_spacetime_norm`` takes it.
    The L^4 check builds no field and takes its slices as sigma-lattice window
    sums (``cutoffs.window_sums``), so no ``rnl`` report calls it."""
    return u.on_window().data @ _time_kernel(u.grid, tuple(times))


# -- data-independent weights -------------------------------------------------

# Every weight a norm, the envelope or the solve applies is a function of
# sigma = tau + |n|^2 alone, taken a block of rows at a time.  A stored block
# of at most _CACHED_ENTRIES entries builds it whole on its modulations, once
# per key, and reads it from a cache of at most _CACHE_BYTES: its arrays'
# bytes plus _ENTRY_BYTES per key, emptied first by an entry that would
# overflow it.  A larger block, and the Picard plan, gather it from the
# sigma-lattice (``_weight_rows``) at each call.
# Nothing in the package runs threads, and the cache takes no lock.
_CACHED_ENTRIES = 1 << 16
_CACHE_BYTES = 4 << 20
_ENTRY_BYTES = 1024
_weights = {}  # key -> read-only weights
_weights_bytes = 0


def _read_only_bytes(value):
    """Bytes of an array or of a nested tuple of them, each made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value.nbytes
    return sum(_read_only_bytes(v) for v in value)


def _weight_rows(grid, nsq, stored, weight):
    """``rows -> weight(tau + |n|^2)`` on the window samples ``stored`` of the
    columns with these |n|^2, at a slice or index array of them: a new array.

    Where 1/tau_step is an integer, the modulations lie on the lattice
    i tau_step: ``weight`` is evaluated once on the columns' span and each
    call gathers its rows, the bits of ``weight`` on ``mod_array`` at a
    power-of-two tau_step, where both are exact.  A box's span is shorter
    than its block; where 1/tau_step is not an integer, or the span is
    longer than the block (a few far-apart columns), each call evaluates
    ``weight`` on its rows' modulations.
    """
    lo, hi = stored
    try:
        per_unit = steps_per_unit(grid.tau_step)
    except ValueError:
        per_unit = 0
    if per_unit and len(nsq):
        first = int(nsq.min())
        span = (int(nsq.max()) - first) * per_unit + hi - lo  # Python ints: no overflow
        if span <= len(nsq) * (hi - lo):
            lattice = weight((np.arange(span) + (first * per_unit + lo - grid.half_index))
                             * grid.tau_step)
            offsets = (nsq - first) * per_unit
            return lambda rows: sliding_window_view(lattice, hi - lo)[offsets[rows]]
    nodes = grid.nodes_on(lo, hi)[None, :]
    return lambda rows: weight(nodes + nsq[rows, None].astype(float))


class _Factors:
    """The data-independent factors of u's stored block.  For a block of at
    most _CACHED_ENTRIES entries (``cached``) each is built whole once and
    read from the cache, by value (builder, params, grid, columns, block,
    split); a larger block builds it at each call."""

    def __init__(self, u):
        self.u = u
        self.cached = u.data.size <= _CACHED_ENTRIES
        self.key = (u.grid, u.index.tobytes(), u.stored, MOD_THRESHOLD)

    @cached_property
    def mod(self):
        return self.u.mod_array()

    def weight(self, fn, *params):
        """``rows -> fn(sigma, *params)`` at a slice of the block's rows.  A
        cached block's rows are views of ``fn`` on its ``mod_array``, formed
        once for every key of the block: a scan norms small blocks at many s,
        and gathering each from the lattice made ``scan_xz`` 47% slower.  A
        larger block's rows are gathered (``_weight_rows``)."""
        if self.cached:
            return self.get(fn, params, lambda: fn(self.mod, *params)).__getitem__
        u = self.u
        return _weight_rows(u.grid, u.norm_sq_columns(), u.stored, lambda x: fn(x, *params))

    def get(self, build, params, make):
        """``make()``, the factor of ``build`` at ``params``: cached if the block is."""
        global _weights_bytes
        if not self.cached:
            return make()
        key = (build, params, *self.key)
        value = _weights.get(key)
        if value is None:
            value = make()
            charge = _read_only_bytes(value) + _ENTRY_BYTES
            if _weights_bytes + charge > _CACHE_BYTES:
                _weights.clear()
                _weights_bytes = 0
            _weights[key] = value
            _weights_bytes += charge
        return value


def _envelope(sigma, power):
    """<sigma>^power."""
    return japanese_bracket(sigma) ** power


def random_field(grid, rng, columns=None, envelope_power=0.0):
    """Seeded complex-Gaussian field, optionally restricted to given columns.

    ``envelope_power`` < 0 concentrates mass near the paraboloid by the factor
    <tau + |n|^2>^envelope_power, which depends on the columns alone.
    """
    ns = grid.box_index if columns is None else \
        np.asarray(columns, dtype=np.int64).reshape(-1, grid.dimension)
    # the draws of a + 1j * b without its complex temporaries: every row's
    # real part, then every imaginary part, a row block of floats at a time
    # (the stream does not depend on how a draw is cut)
    data = np.empty((len(ns), grid.n_tau), dtype=np.complex128)
    blocks = _row_blocks(len(ns), 8 * grid.n_tau)
    for part in (data.real, data.imag):
        for rows in blocks:
            part[rows] = rng.standard_normal((rows.stop - rows.start, grid.n_tau))
    field = SpaceTimeField.from_columns(grid, ns, data, copy=False)
    if envelope_power != 0.0:
        envelope = _Factors(field).weight(_envelope, envelope_power)
        for rows in blocks:
            field.data[rows] *= envelope(rows)
    return field
