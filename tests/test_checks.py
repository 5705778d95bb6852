"""Resource bounds of the check battery."""

import tracemalloc

from rnlab import grid as grid_module
from rnlab.checks import check_l4_slope
from rnlab.grid import FrequencyGrid


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
    # the weight cache took none of the large fields' weights and kept its budget
    assert grid_module._weights_bytes <= grid_module._CACHE_BYTES
    assert all(a.size <= grid_module._CACHED_ENTRIES
               for value, _ in grid_module._weights.values() for a in grid_module._arrays(value))
