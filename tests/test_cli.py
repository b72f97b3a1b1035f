import json

import numpy as np
import pytest

import mixconc
from mixconc.cli import main, parse_config
from mixconc.datagen import make_linear_design, make_np_design


def test_parse_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "mc_reps = 50        # comment\n"
        "master_seed = 7\n"
        "grid = 50:1,50:2\n"
        "basis_kinds = polynomial,pspline\n"
        "test_multiplier = 1.2\n")
    cfg = parse_config(path)
    assert cfg["mc_reps"] == 50
    assert cfg["grid"] == ((50, 1), (50, 2))
    assert cfg["basis_kinds"] == ("polynomial", "pspline")
    assert cfg["test_multiplier"] == 1.2


def test_cli_effn(capsys):
    assert main(["effn", "--model", "indicator", "--M", "4", "--n", "64",
                 "--upsilon", "2", "--r", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["n_beta"] - 16.0) < 1e-9
    assert out["q_n0"] == 4
    assert out["bound_lower"] == 12.8


def test_cli_bound(capsys):
    assert main(["bound", "--penalty", "l1", "--d", "3", "--n", "64",
                 "--upsilon", "2", "--lam", "0.1", "--theta-norm", "2.0",
                 "--u", "90"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] > 0
    assert out["tail_probability"] == 1.0   # u below G0


# The JSON `effn` and `bound` printed before the two commands shared one
# declaration of the mixing-model options; the output must stay
# byte-identical.
EFFN_JSON = {
    "indicator": {
        "n": 64, "upsilon": 2, "r": 4.0, "model": "indicator",
        "n_beta": 15.999999999999996, "q_n0": 4, "mu_integral": 8.0,
        "bound_lower": 12.8, "bound_upper": 16.0},
    "polynomial": {
        "n": 64, "upsilon": 2, "r": 4.0, "model": "polynomial",
        "n_beta": 39.998553319227725, "q_n0": 2,
        "mu_integral": 1.2800925925925928,
        "bound_lower": 36.950417228136054, "bound_upper": 64.0}}
EFFN_ARGS = {"indicator": ["--model", "indicator", "--M", "4"],
             "polynomial": ["--model", "polynomial", "--m0", "3",
                            "--beta0", "2"]}
BOUND_JSON = {
    "l1-D-sup": {
        "n_beta": 63.999999999999986, "G0": 106.84112549695428,
        "tail_probability": 0.5342056274847714,
        "front_constant": 25.226892457611434,
        "variance_component": 0.2165063509461097,
        "bias_component": 0.4472135954999579, "rate": 0.6637199464460677,
        "bound": 3348.718342193314, "l1_envelope": 193.01269706500756,
        "A_star": 7.5332977813501465},
    "l2p-m2": {
        "n_beta": 63.999999999999986, "G0": 106.84112549695428,
        "tail_probability": 1.0, "front_constant": 25.226892457611434,
        "variance_component": 0.48844183427916854,
        "bias_component": 0.22360679774997896, "rate": 0.7120486320291475,
        "bound": 1796.277426478864},
    "l2p-m0.5-indicator": {
        "n_beta": 15.999999999999996, "G0": 106.84112549695428,
        "tail_probability": 1.0, "front_constant": 25.226892457611434,
        "variance_component": 0.7071067811865476,
        "bias_component": 0.22360679774997896, "rate": 0.9307135789365265,
        "bound": 2347.9011364670405}}
BOUND_ARGS = {
    "l1-D-sup": ["--penalty", "l1", "--d", "3", "--lam", "0.1",
                 "--theta-norm", "2.0", "--u", "200", "--trWinv", "3",
                 "--M-over-lambda", "1.5", "--D-sup", "5"],
    "l2p-m2": ["--penalty", "l2p", "--d", "10", "--lam", "0.05",
               "--theta-norm", "1.0", "--m", "2"],
    "l2p-m0.5-indicator": ["--penalty", "l2p", "--d", "10", "--lam", "0.05",
                           "--theta-norm", "1.0", "--m", "0.5", "--trWinv",
                           "4", "--model", "indicator", "--M", "4"]}


@pytest.mark.parametrize("model", sorted(EFFN_JSON))
def test_cli_effn_output_is_pinned(capsys, model):
    assert main(["effn", "--n", "64", "--upsilon", "2",
                 *EFFN_ARGS[model]]) == 0
    assert capsys.readouterr().out == json.dumps(EFFN_JSON[model],
                                                 indent=2) + "\n"


@pytest.mark.parametrize("case", sorted(BOUND_JSON))
def test_cli_bound_output_is_pinned(capsys, case):
    assert main(["bound", "--n", "64", "--upsilon", "2",
                 *BOUND_ARGS[case]]) == 0
    assert capsys.readouterr().out == json.dumps(BOUND_JSON[case],
                                                 indent=2) + "\n"


def test_cli_simulate_and_outputs(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("grid = 50:1\nmc_reps = 30\n")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "tables12", "--config", str(cfg),
                 "--out", str(out), "--seed", "11"]) == 0
    assert out.exists()
    assert (tmp_path / "rows.csv.manifest.json").exists()
    lines = out.read_text().splitlines()
    assert len(lines) == 3   # header + 2 methods x 1 cell


def test_cli_simulate_ols_tail_manifest(tmp_path, capsys):
    out = tmp_path / "tail.csv"
    assert main(["simulate", "ols-tail", "--reps", "50", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "tail.csv.manifest.json").read_text())
    assert payload["versions"]["mixconc"] == mixconc.__version__
    assert payload["config"]["experiment"] == "ols-tail"
    assert payload["config"]["grid"] == [[64, 1], [64, 4]]
    assert len(out.read_text().splitlines()) == 1 + 2 * 3


def test_cli_tune(tmp_path, capsys):
    ds = make_np_design(500, 1, seed=3)
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    assert main(["tune", "--data", str(path), "--basis", "polynomial",
                 "--multiplier", "1.2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k_feasible"] in range(3, 9)
    assert out["n_beta"] == 500
    assert len(out["coefficients"]) == out["k_feasible"]


def test_cli_tune_evaluates_each_design_once(tmp_path, capsys, monkeypatch):
    calls = []
    design = mixconc.SieveBasis.design

    def counted(self, w):
        calls.append(self.k)
        return design(self, w)
    monkeypatch.setattr(mixconc.SieveBasis, "design", counted)
    path = tmp_path / "data.csv"
    make_np_design(500, 1, seed=3).to_csv(path)
    assert main(["tune", "--data", str(path), "--basis", "pspline"]) == 0
    assert sorted(calls) == [3, 4, 5, 6, 7, 8]


def test_cli_tune_polynomial_evaluates_one_design(tmp_path, capsys,
                                                  monkeypatch):
    # the polynomial family is nested: k = 3..8 are prefixes of k = 8
    calls = []
    design = mixconc.SieveBasis.design

    def counted(self, w):
        calls.append(self.k)
        return design(self, w)
    monkeypatch.setattr(mixconc.SieveBasis, "design", counted)
    path = tmp_path / "data.csv"
    make_np_design(500, 1, seed=3).to_csv(path)
    assert main(["tune", "--data", str(path), "--basis", "polynomial"]) == 0
    assert calls == [8]


def test_cli_error_paths(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.ones((4, 2)), delimiter=",", header="y,z", comments="")
    assert main(["tune", "--data", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_tune_lambda_grid(tmp_path, capsys):
    from mixconc.datagen import make_linear_design
    ds = make_linear_design(120, 4, d=3, seed=2)
    path = tmp_path / "lin.csv"
    ds.to_csv(path)
    assert main(["tune", "--data", str(path), "--m", "4",
                 "--lambdas", "0.5", "0.2", "0.05", "0.01",
                 "--multiplier", "1.2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["penalty"] == "l1"
    assert out["k_feasible"] in (0.5, 0.2, 0.05, 0.01)
    assert len(out["coefficients"]) == 3


def test_cli_tune_l1_quantile_baseline(tmp_path, capsys):
    # d = 10 l1 quantile fits at three lambdas (the path that used to
    # exhaust the sweep budget of the iterative solver it replaced)
    ds = make_linear_design(500, 1, d=10, seed=20240901, rep=48)
    path = tmp_path / "lin.csv"
    ds.to_csv(path)
    assert main(["tune", "--data", str(path), "--lambdas", "0.5", "0.2",
                 "0.05"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k_feasible"] in (0.5, 0.2, 0.05)
    assert len(out["coefficients"]) == 10


def test_cli_tune_lambdas_on_a_rank_deficient_design(tmp_path, capsys):
    # x2 = 2 x1: X'X is singular, the l1 fits still certify
    ds = make_linear_design(200, 1, d=1, seed=5)
    path = tmp_path / "lin.csv"
    np.savetxt(path, np.column_stack([ds.y, ds.X, 2.0 * ds.X]), delimiter=",",
               header="y,x1,x2", comments="")
    assert main(["tune", "--data", str(path), "--m", "1",
                 "--lambdas", "0.5", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k_feasible"] in (0.5, 0.1)
    assert np.isfinite(out["coefficients"]).all()
    assert len(out["coefficients"]) == 2


# The JSON `tune` printed for these draws before the test set took Gram
# matrices only (the lambda grid used a Euclidean-distance callable then);
# the output must stay byte-identical.
TUNE_PSPLINE_JSON = {
    "n": 500, "m": 1, "n_beta": 500, "s": 3.1073040492110957,
    "test_set": [8], "k_feasible": 8,
    "proxy_feasible": 0.12649110640673517, "basis": "pspline",
    "coefficients": [-52.01385487391677, -0.5082648966581562,
                     -9.305004890625222, 0.9368143993658746,
                     3.306856103574744, -1.896006025677609,
                     8.988414716572443, 1.6954558646889408]}
TUNE_LAMBDAS_JSON = {
    "n": 200, "m": 1, "n_beta": 200, "s": 2.649158683274018,
    "test_set": [0.03, 0.01, 0.003, 0.001], "k_feasible": 0.03,
    "proxy_feasible": 1.3781447821854806, "penalty": "l1", "tau": 0.5,
    "coefficients": [1.0253288290901417, 0.7101319226494445,
                     0.5803645701503133]}


def test_cli_tune_pspline_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "data.csv"
    make_np_design(500, 1, seed=3).to_csv(path)
    assert main(["tune", "--data", str(path), "--basis", "pspline"]) == 0
    assert capsys.readouterr().out == json.dumps(TUNE_PSPLINE_JSON,
                                                 indent=2) + "\n"


def test_cli_tune_lambdas_output_is_pinned(tmp_path, capsys):
    # the multiplier leaves the largest lambda out of the test set, so the
    # pairwise distances decide the selection
    path = tmp_path / "lin.csv"
    make_linear_design(200, 1, d=3, seed=2).to_csv(path)
    assert main(["tune", "--data", str(path), "--lambdas", "0.1", "0.03",
                 "0.01", "0.003", "0.001", "--multiplier", "0.03"]) == 0
    assert capsys.readouterr().out == json.dumps(TUNE_LAMBDAS_JSON,
                                                 indent=2) + "\n"


@pytest.mark.parametrize("line,key", [("mc_repz = 40", "mc_repz"),
                                      ("mc_reps = abc", "mc_reps"),
                                      ("mc_reps 40", "mc_reps")],
                         ids=["unknown", "non-numeric", "no-equals"])
def test_cli_simulate_bad_config_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"grid = 50:1\n{line}\n")
    assert main(["simulate", "tables12", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("study,lines,args,message", [
    ("tables12", "grid = 50:0", [], "block length m=0 at n=50 must be >= 1"),
    ("tables34", "grid = 50:0", [], "block length m=0 at n=50 must be >= 1"),
    ("tables12", "grid = 50:-1", [],
     "block length m=-1 at n=50 must be >= 1"),
    ("tables12", "grid = 50:1\nd = 0", [], "d must be an integer >= 1, got 0"),
    ("tables12", "", ["--reps", "0"], "mc_reps must be an integer >= 1, got 0"),
    ("tables34", "", ["--reps", "0"], "mc_reps must be an integer >= 1, got 0"),
    ("ols-tail", "", ["--reps", "0"], "mc_reps must be an integer >= 1, got 0"),
    ("tables12", "", ["--reps", "-3"],
     "mc_reps must be an integer >= 1, got -3"),
    ("tables12", "chunk_size = 0", [], "unknown config keys: ['chunk_size']"),
    ("ols-tail", "chunk_size = 2.5", [],
     "unknown config keys: ['chunk_size']"),
    ("tables12", "grid = 50:25,50:50", [],
     "at (n=50, m=25) needs the cell (n=50, m=1)"),
    ("tables12", "grid = 2:1", [], "cell (n=2, m=1): the snapped n is below d=3"),
    ("tables34", "grid = 5:1", [], "cell (n=5, m=1): the snapped n is below "
     "the largest sieve dimension k=8"),
    ("tables12", "grid = 0:1", [], "sample size n=0 must be >= 1"),
    ("tables34", "grid = -5:1", [], "sample size n=-5 must be >= 1"),
    ("tables12", "grid = 50:1\nupsilon = 0", [], "upsilon must be positive"),
    ("tables12", "grid = 50", [], "grid entry 50 is not an n:m pair"),
    ("tables34", "grid = 50:1,100", [], "grid entry 100 is not an n:m pair"),
    ("tables12", "experiment = tables34", [],
     "experiment = 'tables34' does not match the study 'tables12'"),
    ("ols-tail", "d = 0", [], "d must be an integer >= 1, got 0"),
    ("ols-tail", "tail_u = 0", [], "tail_u must be finite and > 0, got 0"),
    ("ols-tail", "tail_u = 4,-4", [], "tail_u must be finite and > 0, got -4"),
    ("ols-tail", "tail_u = nan", [], "tail_u must be finite and > 0, got nan"),
    ("tables12", "grid = 50:1\nd = 2.5", [],
     "d must be an integer >= 1, got 2.5"),
    ("tables12", "grid = 50:1\nsolver_tol = -1", [],
     "solver_tol must be finite and > 0, got -1"),
    ("tables12", "grid = 50:1\nsolver_tol = nan", [],
     "solver_tol must be finite and > 0, got nan"),
    ("tables12", "grid = 50:1\nsolver_tol = 0", [],
     "solver_tol must be finite and > 0, got 0"),
    ("tables12", "grid = 50:1\nworkers = 0", [],
     "workers must be an integer >= 1, got 0"),
    ("tables34", "grid = 100:1\ntest_multiplier = -1", [],
     "test_multiplier must be finite and > 0, got -1"),
    ("tables34", "grid = 100:1\ntest_multiplier = nan", [],
     "test_multiplier must be finite and > 0, got nan"),
    ("tables12", "grid = 50:1", ["--seed", "-1000000000"],
     "master_seed must be an integer >= 0, got -1000000000"),
    ("tables12", "grid = 50:1", ["--seed", "-1"],
     "master_seed must be an integer >= 0, got -1"),
    ("tables12", "grid = 50:1\nmaster_seed = 2.5", [],
     "master_seed must be an integer >= 0, got 2.5"),
    ("ols-tail", "grid = 2:1", [], "cell (n=2, m=1): the snapped n is below d=3"),
    ("ols-tail", "tail_n = 64", [], "unknown config keys: ['tail_n']"),
    ("ols-tail", "tail_mu0 = 1,4", [], "unknown config keys: ['tail_mu0']"),
], ids=["tables12-m0", "tables34-m0", "tables12-m-neg", "tables12-d0",
        "tables12-reps0", "tables34-reps0", "ols-tail-reps0",
        "tables12-reps-neg", "tables12-chunk0", "ols-tail-chunk-float",
        "tables12-no-m1", "tables12-n-below-d", "tables34-n-below-k",
        "tables12-n0", "tables34-n-neg", "tables12-upsilon0",
        "tables12-grid-scalar", "tables34-grid-entry",
        "tables12-experiment-key", "ols-tail-d0", "ols-tail-u0",
        "ols-tail-u-neg", "ols-tail-u-nan", "tables12-d-float",
        "tables12-tol-neg", "tables12-tol-nan", "tables12-tol0",
        "tables12-workers0", "tables34-multiplier-neg",
        "tables34-multiplier-nan", "tables12-seed-large-neg",
        "tables12-seed-neg", "tables12-seed-float", "ols-tail-n-below-d",
        "ols-tail-tail-n", "ols-tail-tail-mu0"])
def test_cli_simulate_bad_grid_or_design(tmp_path, capsys, study, lines,
                                          args, message):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"{lines}\nmc_reps = 4\n")
    assert main(["simulate", study, "--config", str(cfg), *args]) == 2
    assert message in capsys.readouterr().err


def test_cli_simulate_names_the_failing_chunk(tmp_path, capsys):
    # no mean fit certifies below solver_tol = 1e-30: the first chunk fails
    cfg = tmp_path / "t.cfg"
    cfg.write_text("grid = 50:1\nmc_reps = 4\nsolver_tol = 1e-30\n")
    assert main(["simulate", "tables12", "--config", str(cfg),
                 "--seed", "11"]) == 2
    seed = 11 + 1000 * mixconc.experiments.hash_cell(50, 1)
    err = capsys.readouterr().err
    assert (f"tables12 cell (n=50, m=1), seed {seed}, replications 0..3: "
            "closed_form fit: residual ") in err
    assert "> tol 1.0e-30 in 4 of 4 fits, stack positions [0, 1, 2, 3]" in err


def test_cli_failed_simulate_writes_its_manifest(tmp_path, capsys):
    # the same failure with --out: no CSV, and a manifest naming the error
    cfg = tmp_path / "t.cfg"
    cfg.write_text("grid = 50:1\nmc_reps = 4\nsolver_tol = 1e-30\n")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "tables12", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert not out.exists()
    payload = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert payload["config"]["solver_tol"] == 1e-30
    assert payload["versions"]["mixconc"] == mixconc.__version__
    assert payload["error"]["type"] == "NonConvergence"
    assert "tables12 cell (n=50, m=1)" in payload["error"]["message"]
    assert f"error: {payload['error']['message']}\n" == err
    assert "stale_out" not in payload


def test_cli_failed_simulate_names_an_earlier_csv_as_stale(tmp_path, capsys):
    # a run writes rows.csv; a failed rerun to the same path keeps its bytes
    # and its manifest says the file is from an earlier run
    cfg = tmp_path / "t.cfg"
    cfg.write_text("grid = 50:1\nmc_reps = 4\n")
    out = tmp_path / "rows.csv"
    assert main(["simulate", "tables12", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rows = out.read_bytes()
    cfg.write_text("grid = 50:1\nmc_reps = 4\nsolver_tol = 1e-30\n")
    assert main(["simulate", "tables12", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert out.read_bytes() == rows
    payload = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert payload["error"]["type"] == "NonConvergence"
    assert payload["stale_out"] == str(out)


def _np_csv(path, edit=None):
    make_np_design(60, 1, seed=3).to_csv(path)
    lines = path.read_text().splitlines()
    if edit:
        lines = edit(lines)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit,message", [
    (lambda ls: ["resp,w"] + ls[1:], "no 'y' column"),
    (lambda ls: ls[:5] + [ls[5].split(",")[0] + ",abc"] + ls[6:],
     "column 'w' has 1 empty or non-numeric cells (first in data row 5)"),
    (lambda ls: ls[:2], "sample size"),
], ids=["no-y", "non-numeric", "one-row"])
def test_cli_tune_bad_csv(tmp_path, capsys, edit, message):
    path = tmp_path / "data.csv"
    _np_csv(path, edit)
    assert main(["tune", "--data", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--n", "0"], "n and upsilon must be positive"),
    (["--n", "64", "--upsilon", "0"], "n and upsilon must be positive"),
    (["--n", "64", "--model", "indicator", "--M", "0"], "positive integer M"),
    (["--n", "64", "--model", "polynomial", "--m0", "-1"], "m0 > 0"),
    (["--n", "64", "--beta0", "3"], "beta0 must be 1 or 2"),
    (["--n", "64", "--r", "inf"], "r must be finite and exceed 2"),
    (["--n", "64", "--r", "nan"], "r must be finite and exceed 2"),
    (["--n", "64", "--model", "polynomial", "--m0", "nan"], "finite m0 > 0"),
], ids=["n", "upsilon", "M", "m0", "beta0", "r-inf", "r-nan", "m0-nan"])
def test_cli_effn_bad_input(capsys, argv, message):
    assert main(["effn"] + argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--d", "0"], "d must be >= 1"),
    (["--lam", "-0.1"], "lam must be >= 0"),
    (["--trWinv", "-1"], "trWinv must be >= 0"),
    (["--penalty", "l2p", "--lam", "0"], "> 0 under the l2p penalty"),
    (["--theta-norm", "-1"], "theta_norm must be >= 0"),
    (["--M-over-lambda", "-1"], "M_over_lambda must be >= 0"),
    (["--penalty", "l2p", "--emin-W", "0"], "emin_W must be > 0"),
    (["--u", "0"], "u must be > 0"),
    (["--tau", "0"], "tau must lie in (0, 1)"),
    (["--tau", "1.5"], "tau must lie in (0, 1)"),
    (["--penalty", "l2p", "--m", "-1"], "m must be >= 0"),
    (["--E-pi0", "-1"], "E_pi0 must be >= 0"),
    (["--lam", "nan"], "lam must be finite"),
    (["--lam", "inf"], "lam must be finite"),
    (["--theta-norm", "nan"], "theta_norm must be finite"),
    (["--u", "nan"], "u must be finite"),
    (["--L", "nan"], "L must be finite"),
    (["--penalty", "l2p", "--m", "nan"], "m must be finite"),
    (["--pi0", "2"], "pi0 must be > 2"),
    (["--pi0", "1.5"], "pi0 must be > 2"),
], ids=["d", "lam", "trWinv", "l2p-lam", "theta-norm", "M-over-lambda",
        "emin-W", "u", "tau-0", "tau-1.5", "l2p-m", "E-pi0", "lam-nan",
        "lam-inf", "theta-norm-nan", "u-nan", "L-nan", "l2p-m-nan", "pi0-2",
        "pi0-1.5"])
def test_cli_bound_bad_input(capsys, argv, message):
    base = ["bound", "--d", "3", "--n", "64", "--upsilon", "2", "--lam", "0.1",
            "--theta-norm", "2.0"]
    assert main(base + argv) == 2
    assert message in capsys.readouterr().err


def test_cli_tune_missing_file(tmp_path, capsys):
    path = tmp_path / "absent.csv"
    assert main(["tune", "--data", str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("multiplier", ["0", "-1"])
@pytest.mark.parametrize("grid", [[], ["--lambdas", "0.5", "0.2"]],
                         ids=["sieve", "lambda"])
def test_cli_tune_rejects_a_non_positive_multiplier(tmp_path, capsys,
                                                    multiplier, grid):
    path = tmp_path / "data.csv"
    if grid:
        make_linear_design(200, 1, d=2, seed=3).to_csv(path)
    else:
        make_np_design(200, 1, seed=3).to_csv(path)
    assert main(["tune", "--data", str(path), "--multiplier", multiplier]
                + grid) == 2
    assert "multiplier must be > 0" in capsys.readouterr().err


def test_cli_tune_fits_a_rank_deficient_spline_design(tmp_path, capsys,
                                                      monkeypatch):
    # w on [0, 0.5] meets 4 of the 8 cubic B-splines of k = 8: the design
    # has rank 4, and tune prints the certified minimum-norm fit, the one
    # family_fits and fit_sieve_ls return, without calling fit_penalized
    rng = np.random.default_rng(0)
    w = rng.uniform(0.0, 0.5, 200)
    y = mixconc.np_target(w) + rng.standard_normal(200)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack((y, w)), delimiter=",", header="y,w",
               comments="")
    y, w = np.loadtxt(path, delimiter=",", skiprows=1).T
    basis = mixconc.SieveBasis("pspline", 8)
    assert np.linalg.matrix_rank(basis.design(w)) == 4
    fit = mixconc.family_fits("pspline", [basis.design(w)], y)[0]
    assert fit.optimality_residual <= mixconc.SolverOptions().tol
    assert np.array_equal(mixconc.fit_sieve_ls(basis, w, y).theta, fit.theta)

    def no_fit(*args):
        raise AssertionError("a sieve design reached fit_penalized")
    monkeypatch.setattr(mixconc.estimators, "_solve", no_fit)
    assert main(["tune", "--data", str(path), "--basis", "pspline",
                 "--kmin", "8", "--kmax", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k_feasible"] == 8
    assert np.array_equal(out["coefficients"], fit.theta)


@pytest.mark.parametrize("argv,message", [
    (["--m", "0"], "block length m must be >= 1"),
    (["--m", "-1"], "block length m must be >= 1"),
    (["--s", "nan"], "s must be > 0 and finite"),
    (["--multiplier", "nan"], "multiplier must be > 0 and finite"),
], ids=["m-0", "m-negative", "s-nan", "multiplier-nan"])
def test_cli_tune_bad_option(tmp_path, capsys, argv, message):
    path = tmp_path / "data.csv"
    _np_csv(path)
    assert main(["tune", "--data", str(path), *argv]) == 2
    assert message in capsys.readouterr().err
