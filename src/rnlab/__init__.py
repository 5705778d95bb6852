"""Numerical laboratory for Fourier restriction norms on periodic space-time
lattices and the Picard scheme for the quadratic Schrodinger nonlinearity
conj(u)^2 at negative regularity."""

from .cutoffs import free_evolution_data, standard_bump
from .families import (
    FAMILY_KINDS,
    FamilyInstance,
    PredictedExponents,
    analytic_tent,
    build_family,
    conjugate_product,
    discrete_tent,
    predicted_exponents,
    product_support,
)
from .grid import (
    DyadicBlock,
    FrequencyGrid,
    SpaceTimeField,
    conjugate_reflect,
    dyadic_blocks,
    japanese_bracket,
    project_dyadic,
    project_modulation,
    random_field,
    spacetime_convolve,
    time_slices,
)
from .norms import (
    NormParams,
    apply_modulation_weight,
    ct_hs_norm,
    dyadic_norm_profile,
    energy_l2l1,
    l4_spacetime_norm,
    spatial_hs_norm,
    xsb_norm,
    ysb_norm,
    zsb_norm,
)
from .solver import (
    DivergenceError,
    IterationTrace,
    PicardPlan,
    SolverParams,
    dump_field,
    duhamel_rhs,
    load_field,
    nonlinear_fourier_data,
    picard_solve,
    rough_initial_data,
)
from .sweep import (
    SweepReport,
    SweepRow,
    ThresholdScan,
    fit_loglog,
    run_sweep,
    threshold_scan,
)

__version__ = "0.1.0"
