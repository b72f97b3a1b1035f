"""mixconc: non-asymptotic concentration machinery for regularized
M-estimation under beta-mixing data.

Core objects: mixing-decay models and the effective number of
observations (mixing), Gaussian-complexity and variance-term bounds
(complexity), penalized quantile / least-squares estimators
(estimators), the ideal / feasible tuning-parameter rules (tuning),
m-block dependent data generators (datagen) and the Monte Carlo harness
(experiments).

Every random draw comes from a Philox generator re-keyed to the key that
`datagen.spawn_keys` derives from (master seed, replication, stream), so
results are bit-identical for a given seed however the replications are
batched or spread over workers.
"""

from .complexity import (MaxVariant, UniversalConstants, VarianceInputs,
                         WeightedSetSpec, c_kq, gamma_bound_l1,
                         gamma_bound_l2p, gauss_max_bound, gauss_max_lower,
                         gauss_sup_lower, gauss_sup_oracle, variance_term,
                         variance_term_fixed_point)
from .datagen import (Dataset, gen_block_gaussian, make_linear_design,
                      make_np_design, np_target)
from .errors import (DomainError, EmptyIdealSet, EmptyTestSet, InadmissibleN,
                     MixconcError, MonotonicityViolation, NoSolution,
                     NonConvergence, NonFinite, OracleVariance, ShapeMismatch,
                     SingularDesign, UnsupportedDesign, UnsupportedModel)
from .estimators import (ABS_HALF, NO_PENALTY, SQUARED, Fit, LossSpec,
                         PenaltySpec, PopulationDesign, SolverOptions,
                         delta_p, delta_p_mc, empirical_criterion, fit_ols,
                         fit_penalized, fit_penalized_qr, quantile_loss,
                         subgradient_residual)
from .experiments import (BoundParams, ExperimentConfig, ReportRow,
                          build_sieve_oracle, eval_bound, l1_envelope,
                          run_ols_tail, run_tables12, run_tables34,
                          write_csv, write_manifest)
from .lattice import SampleLattice, build_lattice, first_primes
from .mixing import (BetaMixingModel, EffectiveN, QuantileFn, b_r_bounds,
                     b_r_factor, beta_coeff, beta_inverse, dep_norm,
                     effective_n, effective_n_bounds, mu_integral, mu_q, q_nk)
from .sieves import (SieveBasis, SieveMomentOracle, family_designs,
                     family_fits, fit_sieve_ls)
from .tuning import (SelectionResult, TuningGrid, VarianceProxy, default_s,
                     feasible_k, ideal_k, lambda_grid, sieve_grid, test_set,
                     variance_proxy)

__version__ = "0.1.0"
