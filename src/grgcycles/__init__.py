"""Simulation and verification toolkit for weighted random graph cycle
statistics: graph sampling, exact cycle censuses, Poisson reference laws,
dependency bound terms, ratio statistics and an experiment CLI."""

from .chen_stein import (BoundReport, BoundTerms, bound_report,
                         conditional_rate_exact, conditional_rate_plugin,
                         exact_bound_terms)
from .cycles import (CandidateCapError, CycleCensus, DEFAULT_CANDIDATE_CAP,
                     candidate_count, count_k_cycles, count_triangles)
from .graphs import GrgGraph, sample_grg
from .poisson import (EmpiricalPmf, MixedPoisson, PoissonModel, QqTable,
                      poisson_rate, qq_table, tv_distance)
from .ratios import (MCEstimate, RateFit, TailBoundCheck, check_lower_tail,
                     estimate_r_moment, estimate_t_moment, exact_t_moment,
                     lower_tail_bound, r_statistic, rate_fit, regimes,
                     t_statistic)
from .spectral import (ThresholdReport, epidemic_threshold,
                       power_iteration_radius, spectral_lower_bound,
                       threshold_report)
from .weights import (InfiniteMomentError, MomentSummary, WeightSpec,
                      WeightSpecError, WeightVector, analytic_moments, moment,
                      sample_weights, tail_condition_holds)

__version__ = "0.1.0"

# kernels are plain NumPy; the flag stays for tools that record the kernel
USING_NUMBA = False
