"""Desk-scale number-theory workbench.

Exact representation counts for sums of a square and k-th powers, smooth
Weyl sums and their Farey-dissection slices, singular series, and a root
finding engine for the special constants that govern how many k-th powers
the circle method needs.
"""

from partitio.constants import (
    ConstantsReport,
    KParams,
    admissible_exponent,
    bound_catalog,
    c1,
    c2_fn,
    c2_star_table,
    condition_check,
    constants_report,
    e_closed,
    eta,
    eta_inverse,
    exponent_table_check,
    k_params,
    solve_monotone,
)
from partitio.arith import SieveTables, SmoothSet, sieve_tables, smooth_set, smooth_bound
from partitio.weights import Weight, make_weight, weight_stats
from partitio.arcs import (
    Dissection,
    RationalApprox,
    arc_classify,
    dirichlet_approx,
    size_slices,
    upsilon,
)
from partitio.expsums import (
    PrecisionLimit,
    exp_sum,
    exp_sum_arcs,
    exp_sum_grid,
    exp_sum_many,
    exp_sum_rational,
    fit_decay,
    sup_profile,
)
from partitio.counting import (
    CountTable,
    major_arc_moment,
    mean_value_N,
    moment_exact,
    nu_convolution,
    power_convolution,
    quadrature_moment,
    representation_counts,
    zero_set,
)
from partitio.singular import (
    SingularSeriesResult,
    a_coeff,
    gauss_sum,
    local_solubility,
    singular_integral,
    singular_series,
)

__version__ = "0.1.0"
