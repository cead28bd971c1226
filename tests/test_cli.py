"""End-to-end tests of the command-line interface."""

import hashlib
import json

import numpy as np
import pytest

from coprisk import cli
from coprisk.cge import CURVE_OVERFLOW
from coprisk.cli import main
from coprisk.data import load_csv
from coprisk.estimators import DEFAULT_TAU_GRID, three_stage_point
from coprisk.inference import substream_rng
from coprisk.marginals import AftModel
from coprisk.simulate import DgpSpec, generate_dataset

from oracles import csv_writer_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_csv(tmp_path, capsys, name="sim.csv", n=300, tau=0.5, seed=3, extra=()):
    path = tmp_path / name
    code, _, _ = run(
        capsys,
        "gen", "--n", str(n), "--tau", str(tau), "--seed", str(seed),
        "--output", str(path), *extra,
    )
    assert code == 0
    return path


def test_gen_then_fit_roundtrip(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys)
    code, out, _ = run(capsys, "fit", "--input", str(path), "--method", "3se-aft",
                       "--family", "weibull")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    result = payload["result"]
    assert -0.9 <= result["tau_hat"] <= 0.9
    assert set(result["params"]) == {"alpha", "beta", "sigma"}
    assert len(result["objective_trace"]) >= 37
    assert payload["config"]["input"] == str(path)


def test_fit_output_is_byte_identical(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys)
    _, out1, _ = run(capsys, "fit", "--input", str(path), "--method", "3se-aft")
    _, out2, _ = run(capsys, "fit", "--input", str(path), "--method", "3se-aft")
    assert out1 == out2


def test_fit_2se_and_trim_fields(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, n=500, tau=0.3, seed=8)
    code, out, _ = run(capsys, "fit", "--input", str(path), "--method", "2se")
    assert code == 0
    result = json.loads(out)["result"]
    assert "x_star" in result and "x_double_star" in result
    assert result["x_double_star"] <= result["x_star"]


def test_fit_single_stratum_2se_exits_4(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, name="nocov.csv", extra=("--no-covariate",))
    code, _, err = run(capsys, "fit", "--input", str(path), "--method", "2se")
    assert code == 4
    assert "covariate" in json.loads(err)["error"]["message"]


def test_fit_2se_with_copied_covariates_exits_4(tmp_path, capsys):
    # a second covariate that copies the first: its coefficient is not identified
    ds = load_csv(gen_csv(tmp_path, capsys, n=400, seed=1))
    path = tmp_path / "copied.csv"
    csv_writer_rows(path, ds.x, ds.delta, np.column_stack([ds.z, ds.z]))
    code, _, err = run(capsys, "fit", "--input", str(path), "--method", "2se")
    assert code == 4
    assert "level contrasts do not span" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_failures_carry_their_reason(capsys, jobs):
    code, out, err = run(capsys, "simulate", "--no-covariate", "--method", "2se",
                         "--reps", "3", "--n", "400", "--jobs", jobs)
    assert code == 4 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith("3 of 3 replications failed; ")
    assert message.endswith(": the semiparametric fit needs at least one covariate taking "
                            "two or more values in the sample; a single stratum is not "
                            "identified")


def test_fit_single_cause1_row_exits_4(tmp_path, capsys):
    path = tmp_path / "one_event.csv"
    rows = [f"{0.1 * (i + 1)!r},{int(i == 4)},{i % 2}" for i in range(30)]
    path.write_text("x,delta,z1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", "--input", str(path), "--method", "3se-aft")
    assert code == 4
    error = json.loads(err)["error"]
    assert error["kind"] == "estimation"
    assert error["message"] == "regression needs more than 3 rows, got 1"


def test_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "absent.csv"))
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "data"


def test_one_row_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("x,delta,z1\n1.0,1,0\n", encoding="utf-8")
    code, out, err = run(capsys, "fit", "--input", str(path))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "data", "message": f"{path}: a dataset needs at least 2 rows, got 1"}


def test_empty_z_cols_fits_without_covariates(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, n=400)
    code, out, err = run(capsys, "fit", "--input", str(path), "--z-cols", "")
    assert code == 0, err
    assert json.loads(out)["result"]["params"]["beta"] == []


@pytest.mark.parametrize("argv, message", [
    (("gen", "--n", "50", "--beta-t", "nan"), "beta must be finite, got [nan]"),
    (("simulate", "--n", "200", "--reps", "1", "--alpha-t", "inf"),
     "alpha must be finite and > 0, got inf"),
    (("simulate", "--n", "200", "--reps", "1", "--sigma-t", "inf"),
     "sigma must be finite and > 0, got inf"),
], ids=["gen-beta-nan", "simulate-alpha-inf", "simulate-sigma-inf"])
def test_non_finite_model_parameters_exit_2(tmp_path, capsys, argv, message):
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"kind": "usage", "message": message}
    assert not target.exists()


def test_bad_row_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,delta\n1.0,1\n-2.0,0\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", "--input", str(path))
    assert code == 3
    assert "line 3" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("extra", [
    ("--z-cols", "z1,z1"), ("--z-cols", "delta"), ("--z-cols", "delta", "--method", "2se"),
], ids=["z1-twice", "delta-as-z", "delta-as-z-2se"])
def test_column_used_twice_exits_3(tmp_path, capsys, extra):
    path = gen_csv(tmp_path, capsys, n=200)
    code, out, err = run(capsys, "fit", "--input", str(path), *extra)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "data"
    assert "used more than once" in error["message"]
    assert repr(extra[1].split(",")[0]) in error["message"]


def test_bad_tau_grid_exits_2(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys)
    code, _, err = run(capsys, "fit", "--input", str(path), "--tau-grid", "oops")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "usage"
    code, _, err = run(capsys, "fit", "--input", str(path), "--tau-grid", "0.5:0.1:0.1")
    assert code == 2
    assert json.loads(err)["error"] == {"kind": "usage",
                                        "message": "--tau-grid needs step > 0 and hi >= lo"}


def test_cli_and_library_share_one_default_tau_grid():
    parser = cli.build_parser()
    for argv in (["fit", "--input", "in.csv"], ["bootstrap", "--input", "in.csv"],
                 ["simulate"]):
        grid = cli._parse_tau_grid(parser.parse_args(argv).tau_grid)
        assert grid.dtype == DEFAULT_TAU_GRID.dtype
        assert grid.tobytes() == DEFAULT_TAU_GRID.tobytes()


@pytest.mark.parametrize("grid", ["0:inf:0.1", "nan:0.5:0.1", "0.1:0.5:inf"])
def test_non_finite_tau_grid_exits_2(tmp_path, capsys, grid):
    path = gen_csv(tmp_path, capsys, n=200)
    code, _, err = run(capsys, "fit", "--input", str(path), "--tau-grid", grid)
    assert code == 2
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    assert error["message"] == f"--tau-grid needs finite lo, hi and step, got {grid!r}"


@pytest.mark.parametrize("grid, points", [
    ("-0.9:0.9:9e-14", "2e+13"),  # an allocation of 146 TiB
    ("-0.9:0.9:1e-300", "1.8e+300"),  # more points than numpy can index
    ("0:1:0.000001", "1000001"),
    ("-1e308:1e308:1", "inf"),  # hi - lo overflows
])
def test_too_fine_tau_grid_exits_2(tmp_path, capsys, grid, points):
    path = gen_csv(tmp_path, capsys, n=200)
    code, out, err = run(capsys, "fit", "--input", str(path), f"--tau-grid={grid}")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "usage",
        "message": f"--tau-grid {grid!r} has {points} points, more than 1000000"}
    assert cli._parse_tau_grid("0:0.999999:0.000001").size == cli.MAX_TAU_GRID_POINTS


@pytest.mark.parametrize("argv", [
    ("fit", "--input", "{csv}", "--output", "{bad}"),
    ("curve", "--input", "{csv}", "--tau-list", "0.5", "--output", "{bad}"),
    ("gen", "--n", "50", "--output", "{bad}"),
    ("bootstrap", "--input", "{csv}", "--reps", "2", "--tau-grid", "0:0.8:0.4",
     "--replicates-out", "{bad}"),
    ("simulate", "--n", "200", "--reps", "1", "--tau-grid", "0:0.8:0.4", "--output", "{bad}"),
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # a missing directory is a usage error reported as JSON, not a traceback;
    # simulate writes its summary table to stderr before the error line
    path = gen_csv(tmp_path, capsys)
    bad = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *(a.format(csv=path, bad=bad) for a in argv))
    assert code == 2
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["kind"] == "usage"
    assert str(bad) in error["message"]


@pytest.mark.parametrize("argv", [
    ("fit", "--input", "{csv}", "--output", "{bad}"),
    ("fit", "--input", "{csv}", "--method", "2se", "--output", "{bad}"),
    ("curve", "--input", "{csv}", "--tau-list", "0.5", "--output", "{bad}"),
    ("gen", "--n", "50", "--output", "{bad}"),
    ("bootstrap", "--input", "{csv}", "--reps", "120", "--replicates-out", "{bad}"),
    ("bootstrap", "--input", "{csv}", "--reps", "120", "--output", "{bad}"),
    ("simulate", "--n", "2000", "--reps", "50", "--output", "{bad}"),
], ids=lambda argv: "-".join(a.strip("-") for a in argv if "{" not in a)[:40])
def test_missing_output_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    path = gen_csv(tmp_path, capsys)
    called = []

    def stub(name):
        def refuse(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} ran before the output path was checked")
        return refuse

    for name in ("load_csv", "generate_dataset", "sorted_table", "fit_3se", "fit_2se",
                 "three_stage_point", "two_stage_point", "bootstrap", "monte_carlo"):
        monkeypatch.setattr(cli, name, stub(name))
    # a path in a missing directory, and a path that is a directory
    directory = tmp_path / "directory"
    directory.mkdir()
    for bad, message in ((tmp_path / "missing" / "out", "[Errno 2] No such file or directory"),
                         (directory, "[Errno 21] Is a directory")):
        code, out, err = run(capsys, *(a.format(csv=path, bad=bad) for a in argv))
        assert called == []
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"kind": "usage", "message": f"{message}: {str(bad)!r}"}


def test_simulate_emits_report_and_table(tmp_path, capsys):
    out_path = tmp_path / "mc.json"
    code, _, err = run(
        capsys,
        "simulate", "--method", "3se-aft", "--family", "weibull",
        "--n", "250", "--tau", "0.5", "--reps", "3", "--seed", "1",
        "--output", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    result = payload["result"]
    assert result["n_completed"] == 3
    assert set(result["mse"]) == {"tau", "alpha", "sigma", "beta1"}
    for name in result["mse"]:
        assert result["mse"][name] >= result["bias2"][name] - 1e-15
    assert "wall" not in json.dumps(payload)  # timings stay out of the JSON
    assert "parameter" in err  # human-readable table on stderr


def test_simulate_2se_truth_is_hazard_scale(tmp_path, capsys):
    out_path = tmp_path / "mc2.json"
    code, _, _ = run(
        capsys,
        "simulate", "--method", "2se", "--n", "300", "--tau", "0.5",
        "--reps", "2", "--seed", "2", "--sigma-t", "1.5", "--beta-t", "1.0",
        "--output", str(out_path),
    )
    assert code == 0
    truth = json.loads(out_path.read_text())["result"]["truth"]
    assert truth["beta1"] == pytest.approx(1.5)


def test_simulate_3se_ph_truth_is_hazard_scale(tmp_path, capsys):
    # the PH fit estimates sigma * beta; alpha and sigma carry over unchanged
    out_path = tmp_path / "mc_ph.json"
    code, _, _ = run(
        capsys,
        "simulate", "--method", "3se-ph", "--n", "300", "--tau", "0.5",
        "--reps", "2", "--seed", "2", "--alpha-t", "1.2", "--sigma-t", "1.5",
        "--beta-t", "0.8", "--output", str(out_path),
    )
    assert code == 0
    truth = json.loads(out_path.read_text())["result"]["truth"]
    assert truth == {"tau": 0.5, "alpha": 1.2, "sigma": 1.5, "beta1": 1.5 * 0.8}


def test_bootstrap_subcommand(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, n=200)
    reps_path = tmp_path / "reps.csv"
    code, out, _ = run(
        capsys,
        "bootstrap", "--input", str(path), "--method", "3se-aft",
        "--reps", "6", "--seed", "2", "--replicates-out", str(reps_path),
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["n_requested"] == 6
    assert len(result["se"]) == len(result["param_names"])
    lines = reps_path.read_text().strip().splitlines()
    assert lines[0].split(",") == result["param_names"]
    assert len(lines) == 1 + result["n_effective"]


@pytest.mark.parametrize("command, options", [
    ("fit", ["--method", "2se"]),
    ("bootstrap", ["--reps", "2"]),
    ("simulate", ["--n", "200", "--tau", "0.5", "--reps", "2"]),
])
def test_json_commands_share_one_envelope(tmp_path, capsys, command, options):
    if command != "simulate":
        options = ["--input", str(gen_csv(tmp_path, capsys, n=200)), *options]
    code, out, _ = run(capsys, command, *options)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema_version", "command", "config", "result"}
    assert payload["schema_version"] == 1
    assert payload["command"] == command
    assert payload["config"]["command"] == command
    assert "func" not in payload["config"]


@pytest.mark.parametrize("covariate", [True, False])
def test_simulate_echoes_the_design(capsys, covariate):
    argv = ["simulate", "--n", "200", "--tau", "0.5", "--p-z", "0.4", "--alpha-t", "1.2",
            "--beta-t", "0.8", "--sigma-t", "1.25", "--family-c", "exponential",
            "--alpha-c", "2", "--beta-c", "-0.5", "--sigma-c", "1", "--reps", "2",
            "--seed", "1"]
    code, out, _ = run(capsys, *argv, *([] if covariate else ["--no-covariate"]))
    assert code == 0
    assert json.loads(out)["result"]["spec"] == {
        "n": 200,
        "tau": 0.5,
        "theta": 2.0,
        "p_z": 0.4,
        "model_t": {"family": "weibull", "alpha": 1.2, "beta": [0.8] if covariate else [],
                    "sigma": 1.25},
        "model_c": {"family": "exponential", "alpha": 2.0,
                    "beta": [-0.5] if covariate else [], "sigma": 1.0},
    }


def test_events_only_reaches_bootstrap_and_simulate(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, n=400)
    ds = load_csv(path)
    expected = three_stage_point(ds, "weibull", events_only=True)
    assert expected != three_stage_point(ds, "weibull")
    code, out, _ = run(capsys, "bootstrap", "--input", str(path), "--reps", "2",
                       "--events-only")
    assert code == 0
    result = json.loads(out)["result"]
    assert dict(zip(result["param_names"], result["estimate"])) == expected

    # one replicate: the Monte Carlo mean is that replicate's estimate
    model = AftModel("weibull", 1.0, [1.0], 1.5)
    spec = DgpSpec(n=400, tau=0.5, model_t=model, model_c=model, p_z=0.3)
    sample = generate_dataset(spec, substream_rng(2, 0))
    expected = three_stage_point(sample, "weibull", events_only=True)
    assert expected != three_stage_point(sample, "weibull")
    code, out, _ = run(capsys, "simulate", "--n", "400", "--tau", "0.5", "--reps", "1",
                       "--seed", "2", "--events-only")
    assert code == 0
    assert json.loads(out)["result"]["mean"] == expected


@pytest.mark.parametrize("command", ["fit", "bootstrap", "simulate"])
def test_2se_with_events_only_is_a_usage_error(tmp_path, capsys, command):
    source = (["--n", "200", "--reps", "2"] if command == "simulate"
              else ["--input", str(gen_csv(tmp_path, capsys, n=200))])
    code, _, err = run(capsys, command, *source, "--method", "2se", "--events-only")
    assert code == 2
    assert "--events-only" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("command, options, message", [
    ("fit", ("--method", "3se-ph", "--family", "lognormal"),
     "--family lognormal applies only to --method 3se-aft, not 3se-ph"),
    ("fit", ("--method", "2se", "--family", "lognormal"),
     "--family lognormal applies only to --method 3se-aft, not 2se"),
    ("bootstrap", ("--method", "3se-ph", "--family", "exponential"),
     "--family exponential applies only to --method 3se-aft, not 3se-ph"),
    ("simulate", ("--method", "2se", "--family", "loglogistic"),
     "--family loglogistic applies only to --method 3se-aft, not 2se"),
    ("bootstrap", ("--jobs", "0"), "jobs must be an integer >= 1, got 0"),
    ("simulate", ("--jobs", "-3"), "jobs must be an integer >= 1, got -3"),
], ids=["fit-3se-ph-family", "fit-2se-family", "bootstrap-3se-ph-family",
        "simulate-2se-family", "bootstrap-jobs-0", "simulate-jobs-negative"])
def test_options_outside_their_range_are_usage_errors(tmp_path, capsys, command, options,
                                                      message):
    # 3se-ph fits a weibull baseline and 2se no parametric family
    source = (["--n", "200"] if command == "simulate"
              else ["--input", str(gen_csv(tmp_path, capsys, n=200))])
    reps = [] if command == "fit" else ["--reps", "2"]
    code, out, err = run(capsys, command, *source, *reps, *options)
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1])["error"] == {"kind": "usage", "message": message}


def test_curve_dump(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, n=120)
    code, out, _ = run(capsys, "curve", "--input", str(path), "--tau-list", "0,0.8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stratum,tau,t,survival"
    assert any(line.startswith("1;") or line.startswith("1,") for line in lines[1:])
    # survival values are in [0, 1] and start at 1
    for line in lines[1:5]:
        value = float(line.split(",")[-1])
        assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("extra, lines, sha256", [
    ((), 1129, "016c4d334d6fa1cfb7b0acde249da9c28373de340c1d969fb9a9792b344e3fbf"),
    (("--no-covariate",), 1189,
     "587d721b9f7c603af56acfe85277590457a77c641acfe6e18824ff6e8c19fb96"),
], ids=["strata", "all"])
def test_curve_dump_bytes_are_recorded(tmp_path, capsys, extra, lines, sha256):
    # recorded bytes of `coprisk curve` on the `coprisk gen --seed 1 --n 400`
    # sample, with two strata and with the one stratum named "all"
    sample = tmp_path / "sample.csv"
    code, _, _ = run(capsys, "gen", "--seed", "1", "--n", "400", "--output", str(sample),
                     *extra)
    assert code == 0
    target = tmp_path / "curve.csv"
    code, _, err = run(capsys, "curve", "--input", str(sample),
                       "--tau-list=-0.9,-0.5,0,0.3,0.8,0.95", "--output", str(target))
    assert code == 0, err
    data = target.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    (("fit", "--family", "exponential"),
     "6393f3b91b6fb6809dd3b4130d3bb28615502a1c90d2411bb1da00c8fba637dc"),
    (("fit", "--family", "weibull"),
     "64fa63b26f1d982b766892c84684c825c7f95304f34136452fe9db40e2fd1299"),
    (("fit", "--family", "loglogistic"),
     "17022a5d5062269fb636f22579ebe92d8c1e62e06c7d047babf092b820095a23"),
    (("fit", "--family", "lognormal"),
     "44caacaec22524d5dfb8dd421d2f6bbc7b1f0f9f94722290499b053a77de2c96"),
    (("fit", "--method", "3se-ph"),
     "3d5006041ab94d5e120d08eee2246d2d368165a631029c708dedb2103dd7c1bd"),
    (("fit", "--events-only"),
     "4aebd15a63d31c2dd751ffe1814d4a70ec66417f0a637986344badbf8db208e9"),
    (("fit", "--method", "2se"),
     "d1e8e0e646d08ececcd04b6c5de480120574b213c65aef470fa0a7a9ff875a6f"),
    (("bootstrap", "--reps", "4"),
     "305f0b4728b892c40d0be445bf716edb29e79f8623aebe8b5b52de3d8b605662"),
    (("simulate", "--n", "400", "--reps", "2"),
     "1b6d4f2bf055c5f510e3d5e8bc113edad47f62046230c4ead764158b1c2dae18"),
], ids=["3se-aft-exponential", "3se-aft-weibull", "3se-aft-loglogistic",
        "3se-aft-lognormal", "3se-ph", "3se-events-only", "2se", "bootstrap", "simulate"])
def test_json_bytes_are_recorded(tmp_path, capsys, monkeypatch, argv, sha256):
    # recorded JSON of `fit` and `bootstrap` on the `coprisk gen --seed 1
    # --n 400` sample and of `simulate`; the input path is relative, so the
    # echoed config is the same in every directory
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "gen", "--seed", "1", "--n", "400", "--output", "sample.csv")
    assert code == 0
    source = () if argv[0] == "simulate" else ("--input", "sample.csv")
    code, out, err = run(capsys, *argv, *source)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_gen_without_covariate(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, name="flat.csv", extra=("--no-covariate",))
    header = path.read_text().splitlines()[0]
    assert header == "x,delta"


def test_multi_risk_pooling_via_target_risk(tmp_path, capsys):
    rows = ["x,delta,z1"]
    rng = __import__("numpy").random.default_rng(0)
    for i in range(80):
        rows.append(f"{rng.uniform(0.1, 4.0):.4f},{rng.integers(0, 4)},{i % 2}")
    path = tmp_path / "multi.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "curve", "--input", str(path),
                       "--target-risk", "2", "--tau-list", "0")
    assert code == 0
    assert out.splitlines()[0] == "stratum,tau,t,survival"
    # absent target risk is a data error
    code, _, err = run(capsys, "curve", "--input", str(path),
                       "--target-risk", "9", "--tau-list", "0")
    assert code == 3
    assert "9" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("extra", [(), ("--no-covariate",)])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_gen_bytes_equal_csv_writer_oracle(tmp_path, capsys, seed, extra):
    path = gen_csv(tmp_path, capsys, n=500, tau=0.8, seed=seed, extra=extra)
    ds = generate_dataset(cli._dgp_from_args(cli.build_parser().parse_args(
        ["gen", "--n", "500", "--tau", "0.8", "--seed", str(seed), "--output", "-",
         *extra])), seed)
    oracle = tmp_path / "oracle.csv"
    csv_writer_rows(oracle, ds.x, ds.delta, ds.z)
    assert path.read_bytes() == oracle.read_bytes()
    # the round trip loses only what 12 significant digits drop
    loaded = load_csv(path)
    rounded = np.vectorize(lambda v: float(f"{v:.12g}"))
    np.testing.assert_array_equal(loaded.x, rounded(ds.x))
    np.testing.assert_array_equal(loaded.delta, ds.delta)
    np.testing.assert_array_equal(loaded.z, rounded(ds.z) if ds.k else ds.z)


@pytest.mark.parametrize("method", ["3se-aft", "2se"])
def test_overflowing_grid_point_is_skipped(tmp_path, capsys, method):
    # at tau = 0.98 the larger stratum's curve integrand overflows
    path = gen_csv(tmp_path, capsys, n=2000, tau=0.8, seed=1)
    code, out, err = run(capsys, "fit", "--input", str(path), "--method", method,
                         "--tau-grid", "0.5:0.98:0.04")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["diagnostics"]["n_grid_failed"] == 1
    assert [0.98, None] in result["objective_trace"]
    assert result["tau_hat"] < 0.98
    code, _, err = run(capsys, "fit", "--input", str(path), "--method", method,
                       "--tau-grid", "0.98:0.99:0.01")
    assert code == 4
    error = json.loads(err)["error"]
    assert error["kind"] == "estimation"
    assert "overflows" in error["message"]


@pytest.mark.parametrize("to_file", [False, True])
def test_curve_bad_tau_writes_nothing(tmp_path, capsys, to_file):
    path = gen_csv(tmp_path, capsys, n=400)
    target = tmp_path / "curve.csv"
    output = ("--output", str(target)) if to_file else ()
    code, out, err = run(capsys, "curve", "--input", str(path), "--tau-list", "0.3,inf", *output)
    assert code == 2
    assert json.loads(err)["error"]["message"] == "tau must lie in [-1, 1), got inf"
    assert out == ""
    assert not target.exists()


def test_curve_tau_list_without_values_exits_2(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, n=200)
    code, out, err = run(capsys, "curve", "--input", str(path), "--tau-list", ",")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"kind": "usage",
                                        "message": "--tau-list must contain at least one value"}


def test_curve_overflow_is_an_estimation_error(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys, n=2000, tau=0.8, seed=1)
    code, out, err = run(capsys, "curve", "--input", str(path), "--tau-list", "0.98")
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"]["message"] == f"{CURVE_OVERFLOW} (theta = 98)"


def test_curve_labels_tell_close_levels_and_taus_apart(tmp_path, capsys):
    # 1.0000001 and 1.0000002 agree to 6 significant digits
    rng = np.random.default_rng(2)
    levels = (1.0000001, 1.0000002)
    rows = ["x,delta,z1"] + [f"{rng.uniform(0.1, 4.0):.4f},{int(i % 3 > 0)},{levels[i % 2]!r}"
                             for i in range(40)]
    path = tmp_path / "close.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "curve", "--input", str(path),
                         "--tau-list", "0.1234567,0.1234568,1e-07,0")
    assert code == 0, err
    labels = {tuple(line.split(",")[:2]) for line in out.splitlines()[1:]}
    assert labels == {(level, tau) for level in ("1.0000001", "1.0000002")
                      for tau in ("0.1234567", "0.1234568", "1e-07", "0")}


@pytest.mark.parametrize("method", ["3se-aft", "3se-ph"])
def test_fit_with_alpha_outside_the_float_range_is_an_estimation_error(tmp_path, capsys,
                                                                      method):
    # durations near 1e-310 put log alpha near 710, where exp overflows
    sample = load_csv(gen_csv(tmp_path, capsys, n=400, seed=1))
    path = tmp_path / "tiny.csv"
    csv_writer_rows(path, sample.x * 1e-310, sample.delta, sample.z)
    assert load_csv(path).x.max() < 1e-308
    code, out, err = run(capsys, "fit", "--input", str(path), "--method", method)
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "estimation"
    assert error["message"].startswith("estimated log alpha = 7")
    assert "outside the floating-point range" in error["message"]
