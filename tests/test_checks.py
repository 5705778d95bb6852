"""Resource bounds of the check battery."""

import tracemalloc

import numpy as np
import pytest

from rnlab import checks, cutoffs, norms
from rnlab import grid as grid_module
from rnlab.checks import check_l4_slope
from rnlab.cutoffs import free_evolution_data
from rnlab.grid import FrequencyGrid, time_slices
from rnlab.norms import NormParams, l4_spacetime_norm, xsb_norm

from test_factors import cached_arrays


def _l4_field_nbytes(N=32):
    """Bytes of check_l4_slope's largest field: the annulus N/2 < |n| <= N by n_tau."""
    grid = FrequencyGrid.for_box(2, N, tau_step=0.5)
    nsq = FrequencyGrid.norm_sq(grid.box_index)
    columns = int(((4 * nsq > N**2) & (nsq <= N**2)).sum())
    return columns * grid.n_tau * 16


def test_l4_slope_peak_memory_near_one_field():
    # the N = 32 field is ~300 MiB; building it and taking its X-norm must
    # not hold further copies or field-sized float temporaries
    field = _l4_field_nbytes()
    tracemalloc.start()
    try:
        result = check_l4_slope()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed, result.line()
    assert peak <= 1.25 * field, f"peak {peak / field:.2f}x the N=32 field"
    # the field is built in blocks of _BLOCK_BYTES, one alive at a time (0.10x
    # measured)
    assert peak <= 0.15 * field, f"peak {peak / field:.2f}x the N=32 field"
    # the weight cache took none of the large fields' weights and kept its budget
    assert grid_module._weights_bytes <= grid_module._CACHE_BYTES
    assert all(a.size <= grid_module._CACHED_ENTRIES for a in cached_arrays())


def test_free_l4_and_x_peak_memory():
    # the N = 32 annulus (2412 columns) is never built: the lattice transform
    # (cold here), the window sums over t-chunks of the lattice, the time
    # slices (1.3 MB), then the t-chunks of the synthesis.  10.5 MB measured;
    # 18.7 MB while the free evolution was built in 8 MiB column blocks and
    # its slices taken by the time kernel, 32.4 MB while the slices went into
    # one 9.2 MiB (P, P, count) spectral array
    N = 32
    grid = FrequencyGrid.for_box(2, N, tau_step=0.5)
    nsq = FrequencyGrid.norm_sq(grid.box_index)
    ns = grid.box_index[(4 * nsq > N**2) & (nsq <= N**2)]
    vals = np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=len(ns)))
    cutoffs._transform_on_lattice.cache_clear()
    tracemalloc.start()
    try:
        checks._free_l4_and_x(grid, ns, vals, 0.38)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


_FIELD_CHECKS = ["check_homogeneity", "check_triangle", "check_monotonic_mask",
                 "check_dyadic_pythagoras", "check_lohi_partition", "check_embedding_chain",
                 "check_est2_embedding", "check_cauchy_schwarz_constant",
                 "check_dyadic_z_equivalence", "check_reflect_isometries"]


@pytest.mark.parametrize("name", _FIELD_CHECKS)
def test_field_check_holds_a_few_fields(name, monkeypatch):
    # each check draws, norms and drops its 20-200 random fields one (or one
    # pair) at a time: 3.3-6.9 check-grid fields measured from an empty weight
    # cache, where holding them all was 20-200
    grid = checks._check_grid()
    field = grid.box_count * grid.n_tau * 16  # 81 x 321 entries, 416 kB
    monkeypatch.setattr(grid_module, "_weights", {})
    monkeypatch.setattr(grid_module, "_weights_bytes", 0)
    tracemalloc.start()
    try:
        result = getattr(checks, name)()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed, result.line()
    assert peak <= 8 * field, f"peak {peak / field:.2f} check-grid fields"


@pytest.mark.parametrize("block", [7, 10, 1000])
def test_blocked_l4_and_x_match_the_whole_field(block, monkeypatch):
    # K = 148 annulus columns of the field the check never builds.  Blocks
    # of 7 and 10 rows of 16 n_tau bytes make t-chunks of 2 (the last of 3)
    # in the window sums and in the synthesis, and 1000 takes all 33 samples
    # in one chunk of each.  The window sums are differences of prefix
    # sums, which round apart from the field's einsum integrals (5.8e-16
    # and 1.6e-16 measured): x and l4 are compared within 1e-12 and 1e-13
    # relative.
    grid = FrequencyGrid.for_box(2, 8, tau_step=0.5)
    nsq = FrequencyGrid.norm_sq(grid.box_index)
    ns = grid.box_index[(4 * nsq > 64) & (nsq <= 64)]
    vals = np.exp(2j * np.pi * np.random.default_rng(3).uniform(size=len(ns)))
    assert len(ns) == 148
    u = free_evolution_data(grid, (ns, vals))
    whole_l4 = l4_spacetime_norm(grid, [u], (-1.0, 1.0))
    whole_x = xsb_norm(u, NormParams(s=0.0, b=0.38))
    monkeypatch.setattr(grid_module, "_BLOCK_BYTES", block * 16 * grid.n_tau)
    l4, x = checks._free_l4_and_x(grid, ns, vals, 0.38)
    assert x == pytest.approx(whole_x, rel=1e-12, abs=0.0)
    assert l4 == pytest.approx(whole_l4, rel=1e-13, abs=0.0)


# d = 1 and 2, tau_step 1/4, 1/3 and 1/2, n_max 4 to 32
_LATTICE_GRIDS = [(1, 4, 0.25), (1, 16, 1 / 3), (1, 32, 0.5), (2, 4, 0.5), (2, 8, 1 / 3),
                  (2, 16, 0.25), (2, 32, 0.5)]


@pytest.mark.parametrize("box", _LATTICE_GRIDS, ids=lambda b: "d%d-n%d-h%.3g" % b)
@pytest.mark.parametrize("b", [0.38, 2.0 / 3.0])
def test_lattice_window_sums_match_the_field(box, b):
    # the check's time slices and X column integrals, as window sums on the
    # sigma-lattice, against those of the built free evolution (grid.time_slices
    # and norms._x_columns), entry by entry: 3.2e-14 relative measured.  At
    # most 64 columns, all outside radius N / 2, keep the field small.
    grid = FrequencyGrid.for_box(*box[:2], tau_step=box[2])
    N = grid.n_max
    nsq = FrequencyGrid.norm_sq(grid.box_index)
    ns = grid.box_index[(4 * nsq > N**2) & (nsq <= grid.dimension * N**2)]
    ns = ns[::-(-len(ns) // 64)]
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 2.0, len(ns)) * np.exp(2j * np.pi * rng.uniform(size=len(ns)))
    times, _ = norms._l4_times((-1.0, 1.0))
    slices, x_cols = checks._free_slices_and_x(grid, ns, vals, b, times)
    u = free_evolution_data(grid, (ns, vals))
    assert np.array_equal(u.index, ns)
    want = time_slices(u, times)
    assert (np.abs(slices - want) <= 1e-12 * np.abs(want)).all()
    want = norms._x_columns(u, b)
    assert (np.abs(x_cols - want) <= 1e-12 * want).all()
