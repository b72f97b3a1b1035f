import inspect

import mixconc

# Every public name `mixconc` exports, submodules aside.  A name is exported
# only if library code, the CLI, a study or a demo calls it, or if it is the
# independent oracle of a test of another function (its docstring names the
# test).  Adding or removing a name means editing this list.
EXPORTS = (
    "ABS_HALF", "BetaMixingModel", "BoundParams", "Dataset", "DomainError",
    "EffectiveN", "EmptyIdealSet", "EmptyTestSet", "ExperimentConfig", "Fit",
    "InadmissibleN", "LossSpec", "MaxVariant", "MixconcError",
    "MonotonicityViolation", "NO_PENALTY", "NoSolution", "NonConvergence",
    "NonFinite", "OracleVariance", "PenaltySpec", "PopulationDesign",
    "QuantileFn", "ReportRow", "SQUARED", "SampleLattice", "SelectionResult",
    "ShapeMismatch", "SieveBasis", "SieveMomentOracle", "SingularDesign",
    "SolverOptions", "TuningGrid", "UniversalConstants", "UnsupportedDesign",
    "UnsupportedModel", "VarianceInputs", "VarianceProxy", "WeightedSetSpec",
    "b_r_bounds", "b_r_factor", "beta_coeff", "beta_inverse", "build_lattice",
    "build_sieve_oracle", "c_kq", "default_s", "delta_p", "delta_p_mc",
    "dep_norm", "effective_n", "effective_n_bounds", "empirical_criterion",
    "eval_bound", "family_designs", "family_fits", "feasible_k",
    "first_primes", "fit_ols", "fit_penalized", "fit_penalized_qr",
    "fit_sieve_ls", "gamma_bound_l1", "gamma_bound_l2p", "gauss_max_bound",
    "gauss_max_lower", "gauss_sup_lower", "gauss_sup_oracle",
    "gen_block_gaussian", "ideal_k", "l1_envelope", "lambda_grid",
    "make_linear_design", "make_np_design", "mu_integral", "mu_q",
    "np_target", "q_nk", "quantile_loss", "run_ols_tail", "run_tables12",
    "run_tables34", "sieve_grid", "subgradient_residual", "test_set",
    "variance_proxy", "variance_term", "variance_term_fixed_point",
    "write_csv", "write_manifest",
)


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(mixconc).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == sorted(EXPORTS)


def test_test_oracles_name_their_test():
    for oracle, test in ((mixconc.delta_p_mc,
                          "test_delta_p_median_matches_mc_oracle"),
                         (mixconc.b_r_factor, "test_b_r_bounds_sandwich"),
                         (mixconc.beta_inverse, "test_mu_sandwich")):
        assert "Test oracle only" in oracle.__doc__
        assert test in oracle.__doc__
