"""The discretization error of the Picard numbers, measured by refinement.

A solve prints its Z-norms and contraction ratios to 17 digits, and the
benchmark holds them to 1e-8 of a stored reference, but the tau lattice
moves them far more: halving ``tau_step`` on the ``picard_1d`` grid (d=1,
n_max=32, T=1/8, s=-0.6, seed 3) moved z_0 by up to 3.4e-3 relative and the
contraction ratios by up to 2.3e-3, not monotonically.  This module solves
the same problem on n_max=16 at ``tau_step`` 1/4, 1/8 and 1/16 and
``tau_pad`` 8 and 16, and records how far apart the six solves land.
"""

import numpy as np
import pytest

from rnlab.grid import FrequencyGrid
from rnlab.solver import SolverParams, picard_solve, rough_initial_data

TAU_STEPS = (0.25, 0.125, 0.0625)
TAU_PADS = (8.0, 16.0)
ITERATIONS = 6


def _spread(values):
    """(max - min) / |median| of each column of ``values``."""
    values = np.asarray(values)
    return (values.max(axis=0) - values.min(axis=0)) / np.abs(np.median(values, axis=0))


@pytest.fixture(scope="module")
def solves():
    """(tau_pad, tau_step) -> (z_0, the last Z-norm, the contraction ratios)."""
    params = SolverParams(s=-0.6, T=0.125, max_iterations=ITERATIONS, contraction_tolerance=0.0)
    out = {}
    for pad in TAU_PADS:
        for step in TAU_STEPS:
            grid = FrequencyGrid.for_box(1, 16, step, pad)
            trace = picard_solve(rough_initial_data(grid, params.s, 3), params, grid)
            out[pad, step] = (trace.z_norms[0], trace.z_norms[-1], trace.contraction_ratios())
    return out


def test_refinement_spread(solves):
    # measured: z_0 2.0e-3, the last Z-norm 1.9e-3 and the ratios at most
    # 1.4e-3 relative (2.3e-3 on the picard_1d grid at tau_pad 8)
    z0, z_last, ratios = (_spread([s[i] for s in solves.values()]) for i in range(3))
    assert len(ratios) == ITERATIONS - 1
    print(f"\nspread over tau_step {TAU_STEPS} and tau_pad {TAU_PADS}: z_0 {z0:.2e}, "
          f"z_{ITERATIONS} {z_last:.2e}, contraction ratios {ratios.max():.2e}")
    assert ratios.max() <= 2.5e-3
    assert max(z0, z_last) <= 4e-3


def test_tau_pad_moves_less_than_tau_step(solves):
    # at a fixed tau_step, doubling tau_pad moved the last Z-norm by at most
    # 1.3e-5 relative and z_0 by 4.1e-9: the window's edge is not where the
    # error is
    for step in TAU_STEPS:
        pads = np.array([[solves[pad, step][0], solves[pad, step][1]] for pad in TAU_PADS])
        assert (_spread(pads) <= 1e-4).all()
