"""End-to-end tests of the command-line interface."""

import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from coprisk import cli, estimators
from coprisk.cge import CURVE_OVERFLOW
from coprisk.cli import main
from coprisk.data import load_csv
from coprisk.simulate import generate_dataset

from oracles import csv_writer_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands() -> list[list[str]]:
    """The coprisk commands of the README's "Command line" block, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("coprisk ")]


def test_readme_command_line_block_runs(tmp_path, capsys, monkeypatch):
    # each documented command exits 0, so a removed option cannot linger there
    commands = readme_commands()
    assert [argv[1] for argv in commands] == ["gen", "fit", "bootstrap", "simulate", "curve"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


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


@pytest.mark.parametrize("argv", [
    ("fit", "--input", "{csv}", "--output", "{bad}"),
    ("curve", "--input", "{csv}", "--tau-list", "0.5", "--output", "{bad}"),
    ("gen", "--n", "50", "--output", "{bad}"),
    ("bootstrap", "--input", "{csv}", "--reps", "2", "--replicates-out", "{bad}"),
    ("simulate", "--n", "200", "--reps", "1", "--output", "{bad}"),
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


@pytest.mark.parametrize("command", ["fit", "bootstrap", "simulate"])
def test_events_only_is_a_usage_error(tmp_path, capsys, command):
    # --events-only and --tau-grid are removed options, so argparse rejects them
    source = (["--n", "200", "--reps", "2"] if command == "simulate"
              else ["--input", str(gen_csv(tmp_path, capsys, n=200))])
    for option in (["--events-only"], ["--tau-grid", "-0.9:0.9:0.05"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *source, *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


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
    ("gen", ("--seed", "-1"), "seed must be an integer >= 0, got -1"),
    ("bootstrap", ("--seed", "-1"), "seed must be an integer >= 0, got -1"),
    ("simulate", ("--seed", "-1"), "seed must be an integer >= 0, got -1"),
    ("fit", ("--z-cols", "z1,"), "--z-cols has an empty column name: 'z1,'"),
    ("bootstrap", ("--z-cols", "z1,,z2"), "--z-cols has an empty column name: 'z1,,z2'"),
    ("fit", ("--target-risk", "0"), "target risk label must be an integer >= 1, got 0"),
    ("bootstrap", ("--reps", "1"), "reps must be an integer >= 2, got 1"),
], ids=["fit-3se-ph-family", "fit-2se-family", "bootstrap-3se-ph-family",
        "simulate-2se-family", "bootstrap-jobs-0", "simulate-jobs-negative",
        "gen-seed-negative", "bootstrap-seed-negative", "simulate-seed-negative",
        "fit-z-cols-empty-name", "bootstrap-z-cols-empty-name", "fit-target-risk-0",
        "bootstrap-reps-1"])
def test_options_outside_their_range_are_usage_errors(tmp_path, capsys, command, options,
                                                      message):
    # 3se-ph fits a weibull baseline and 2se no parametric family
    if command == "gen":
        source = ["--n", "200", "--output", str(tmp_path / "out.csv")]
    elif command == "simulate":
        source = ["--n", "200"]
    else:
        source = ["--input", str(gen_csv(tmp_path, capsys, n=200))]
    reps = ["--reps", "2"] if command in ("bootstrap", "simulate") else []
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
     "b211ad8fba7b6923031f4096d3bb2ac27c25aa3fb4e396fbaa02bd1a4954416c"),
    (("fit", "--family", "weibull"),
     "5d9102624959a38109e818e0406d005699d9599bce2775ff665cc9f1cba4b911"),
    (("fit", "--family", "loglogistic"),
     "1529a98b27669cf35fd3d9a9c970fa3a4ef607ddcd6f6561a5f906d8bd8f39d8"),
    (("fit", "--family", "lognormal"),
     "53904a990f204b8f817dd1e623455408aa8f8ad5d85af0b67a725f252de36404"),
    (("fit", "--method", "3se-ph"),
     "e80fbd6a339d31a8a267edf3d4ee0c20d4b4eceff744ff5fe20ceae3bf0defbd"),
    (("fit", "--method", "2se"),
     "23f6ace49a5b4b49254d4ae11a7e714f777f2199fe1a3ef0d0593e624edc0045"),
    (("bootstrap", "--reps", "4"),
     "4deeeab18e831975200c2acc3e8f0f812f38a1fec401cf1b2351f7a1d9963821"),
    (("simulate", "--n", "400", "--reps", "2"),
     "765e258489a3b6fd2dcca66aaefe0b36d154f1a3ee021a5023227cbf554d7a56"),
], ids=["3se-aft-exponential", "3se-aft-weibull", "3se-aft-loglogistic",
        "3se-aft-lognormal", "3se-ph", "2se", "bootstrap", "simulate"])
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


def test_replicate_csv_bytes_are_recorded(tmp_path, capsys):
    # recorded `bootstrap --replicates-out` file of 4 replicates on the
    # `coprisk gen --seed 1 --n 400` sample
    sample, target = tmp_path / "sample.csv", tmp_path / "reps.csv"
    code, _, _ = run(capsys, "gen", "--seed", "1", "--n", "400", "--output", str(sample))
    assert code == 0
    code, _, err = run(capsys, "bootstrap", "--reps", "4", "--input", str(sample),
                       "--replicates-out", str(target))
    assert code == 0, err
    data = target.read_bytes()
    assert data.count(b"\n") == 5
    assert hashlib.sha256(data).hexdigest() == (
        "2e4227b0835240a18f181c04ff4c100594f0061a7e477eedd3865b0d4b64cd7d")


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
def test_overflowing_grid_point_is_skipped(tmp_path, capsys, monkeypatch, method):
    # at tau = 0.98, above the default grid, the larger stratum's curve
    # integrand overflows
    path = gen_csv(tmp_path, capsys, n=2000, tau=0.8, seed=1)
    monkeypatch.setattr(estimators, "DEFAULT_TAU_GRID", np.linspace(0.5, 0.98, 13))
    code, out, err = run(capsys, "fit", "--input", str(path), "--method", method)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["diagnostics"]["n_grid_failed"] == 1
    assert [0.98, None] in result["objective_trace"]
    assert result["tau_hat"] < 0.98
    monkeypatch.setattr(estimators, "DEFAULT_TAU_GRID", np.array([0.98]))
    code, _, err = run(capsys, "fit", "--input", str(path), "--method", method)
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
    code, out, err = run(capsys, "curve", "--input", str(path), "--tau-list", "0.5,abc")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "usage", "message": "--tau-list expects comma-separated numbers, got '0.5,abc'"}


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
