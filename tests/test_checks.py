"""Resource bounds of the check battery."""

import tracemalloc

import numpy as np
import pytest

from rnlab import checks
from rnlab import grid as grid_module
from rnlab.checks import check_l4_slope
from rnlab.cutoffs import free_evolution_data
from rnlab.grid import FrequencyGrid
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
    # the N = 32 annulus (2412 columns): one 8 MiB column block of the free
    # evolution, its X pass in half-size row blocks, the time kernel (4.3 MB,
    # built here) and every block's time slices (1.3 MB), then the t-chunks
    # of the synthesis.  18.7 MB measured; 32.4 MB while the slices went into
    # one 9.2 MiB (P, P, count) spectral array and the X pass took whole blocks
    N = 32
    grid = FrequencyGrid.for_box(2, N, tau_step=0.5)
    nsq = FrequencyGrid.norm_sq(grid.box_index)
    ns = grid.box_index[(4 * nsq > N**2) & (nsq <= N**2)]
    vals = np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=len(ns)))
    grid_module._time_kernel.cache_clear()
    tracemalloc.start()
    try:
        checks._free_l4_and_x(grid, ns, vals, 0.38)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 21e6, f"peak {peak / 1e6:.1f} MB"


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
    # K = 148 annulus columns: blocks of 7 end in one of 8, which takes the
    # one column left over, blocks of 10 in one of 8, and 1000 is one
    # block.  The X-norm's column integrals are einsums, whose bits follow
    # no BLAS thread count: it is compared exactly.  The L^4 slices are BLAS
    # products, measured bitwise equal on one and on two OpenBLAS threads;
    # 1e-13 relative allows for a BLAS that tiles a block's rows differently.
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
    assert x == whole_x
    assert l4 == pytest.approx(whole_l4, rel=1e-13, abs=0.0)
