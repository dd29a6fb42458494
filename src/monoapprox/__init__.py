"""L1 approximation of multivariate monotone functions on the unit cube.

Randomized wavelet estimators and a deterministic grid method, monotone
test-function families, exact and Monte Carlo error metrics, and numeric
evaluators for the matching complexity bounds, including a certified lower
bound showing how fast the sample demand grows with the dimension.
"""

from .approx_det import GridModel, eval_grid, fit_grid, grid_error_bound
from .approx_mc import (
    CoefficientTable,
    SampleSet,
    WaveletModel,
    chi_table,
    chi_value,
    draw_samples,
    estimate_coefficients,
    eval_generalized,
    eval_linear,
    eval_sign,
    fit,
    match_count,
    reconstruction_value,
)
from .bounds import (
    BERRY_ESSEEN_LOWER,
    BERRY_ESSEEN_UPPER,
    DEFAULT_UPPER_C,
    EpshatCertificate,
    LbCurveResult,
    LbParams,
    McParams,
    NRanUpper,
    UbErrorBound,
    choose_params,
    default_lb_params,
    lb_curve,
    lb_epshat,
    n_det_curse,
    n_ran_upper,
    n_ran_upper_breakdown,
    normal_cdf,
    ub_error,
    ub_error_breakdown,
)
from .budget import BudgetExceededError, cell_budget
from .functions import (
    boxbslash,
    family_from_spec,
    is_monotone_on_grid,
    level_set_function,
    random_delta,
    sample_U,
    snap_to_grid,
    step_function,
    threshold,
)
from .haar_basis import (
    DyadicCell,
    LEVEL_BOTTOM,
    MultiIndex,
    cell_of_point,
    enumerate_indices,
    index_set_size,
    interval_of,
    psi_1d,
    psi_d,
    split_index,
)
from .metrics import (
    ErrorEstimate,
    bakhvalov_step_error,
    coefficient_tensor,
    exact_coefficient,
    exact_coefficient_table,
    fit_rate,
    l1_exact_dyadic,
    l1_mc,
    tail_mass,
)

__version__ = "0.1.0"
