"""Desk-scale moment experiments for zeta-like Dirichlet series.

Exact coefficient tables (generalized divisors, Ramanujan tau and its
Rankin-Selberg convolution), numerical evaluation in the critical strip,
moment main-term constants, and power-law envelope tests of the error-term
exponents.
"""

from .arith import (
    CapacityError,
    CoeffTable,
    DeltaCurve,
    PrecisionError,
    SummatoryPolynomial,
    delta_mean_square,
    dirichlet_convolve,
    main_poly,
    sieve_dk,
    stieltjes_constants,
)
from .evaluate import (
    EvalResult,
    PoleError,
    chi_factor,
    gamma_fn,
    zeta_em,
)
from .modularforms import (
    TauTable,
    delta_phi_mean_square,
    normalize,
    rankin_A,
    rankin_c,
    self_convolve,
    tau_table,
)
from .moments import (
    THEORY,
    ExperimentResult,
    FitResult,
    MainTermConstant,
    MomentRecord,
    TheoryConstants,
    exponent_experiment,
    fit_power_law,
    main_term_series,
    main_term_zeta,
    main_term_zeta_direct,
    residual,
    theory_exponent,
)

__version__ = "0.1.0"
