"""End-to-end tests of the command-line interface."""

import json

import pytest

from coprisk.cli import main
from coprisk.data import load_csv
from coprisk.estimators import three_stage_point
from coprisk.inference import substream_rng
from coprisk.marginals import AftModel
from coprisk.simulate import DgpSpec, generate_dataset


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


def test_fit_single_cause1_row_exits_4(tmp_path, capsys):
    path = tmp_path / "one_event.csv"
    rows = [f"{0.1 * (i + 1)!r},{int(i == 4)},{i % 2}" for i in range(30)]
    path.write_text("x,delta,z1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", "--input", str(path), "--method", "3se-aft")
    assert code == 4
    error = json.loads(err)["error"]
    assert error["kind"] == "estimation"
    assert error["message"] == ("criterion failed at every grid point: "
                                "regression needs more than 3 rows, got 1")


def test_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "absent.csv"))
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "data"


def test_bad_row_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,delta\n1.0,1\n-2.0,0\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", "--input", str(path))
    assert code == 3
    assert "line 3" in json.loads(err)["error"]["message"]


def test_bad_tau_grid_exits_2(tmp_path, capsys):
    path = gen_csv(tmp_path, capsys)
    code, _, err = run(capsys, "fit", "--input", str(path), "--tau-grid", "oops")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "usage"


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
