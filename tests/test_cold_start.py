"""The CLI and the fits in a fresh interpreter.

The other test modules import scipy before any test runs, so only a new
process shows what ``coprisk fit`` loads on its own and that the families
whose scipy functions are imported on first use give the same output.
OpenBLAS reads its thread count once, when numpy is imported, so only a new
process shows that a fit's bits do not depend on it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coprisk.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
# modules a Weibull gen or fit does not use: scipy's special functions (loglogistic
# and lognormal only) and the process pool (jobs > 1 only)
COLD_UNUSED = ("scipy.special", "concurrent.futures.process", "multiprocessing")


def fresh_python(*args, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "sim.csv"
    assert main(["gen", "--n", "300", "--seed", "1", "--output", str(path)]) == 0
    return path


def cold_main(*argv):
    """Exit code of coprisk.cli.main(argv) in a new interpreter, and which
    of COLD_UNUSED it loaded."""
    script = (
        "import json, sys\n"
        "import coprisk.cli\n"
        "code = coprisk.cli.main(sys.argv[1:])\n"
        f"print(json.dumps([code, [m for m in {COLD_UNUSED!r} if m in sys.modules]]))\n"
    )
    proc = fresh_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_weibull_fit_loads_neither_scipy_special_nor_the_pool(sample, tmp_path):
    out = tmp_path / "fit.json"
    code, loaded = cold_main("fit", "--input", str(sample), "--family", "weibull",
                             "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text())["command"] == "fit"
    assert loaded == []


def test_weibull_gen_loads_neither_scipy_special_nor_the_pool(sample, tmp_path):
    # gen draws its durations through inverse_survival on the Weibull design
    out = tmp_path / "gen.csv"
    code, loaded = cold_main("gen", "--n", "300", "--seed", "1", "--family-t", "weibull",
                             "--family-c", "weibull", "--output", str(out))
    assert code == 0
    assert out.read_bytes() == sample.read_bytes()
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ("fit", "--family", "loglogistic"),
    ("fit", "--family", "lognormal"),
    ("bootstrap", "--jobs", "2", "--reps", "4", "--seed", "5"),
])
def test_cold_cli_writes_what_in_process_main_writes(sample, capsys, argv):
    command, *options = argv
    proc = fresh_python("-m", "coprisk.cli", command, "--input", str(sample), *options)
    assert proc.returncode == 0, proc.stderr
    assert main([command, "--input", str(sample), *options]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_fits_do_not_depend_on_the_blas_thread_count():
    # the n = 20000 sample of test_fits_keep_their_recorded_values
    script = (
        "from coprisk.estimators import fit_2se, fit_3se\n"
        "from coprisk.marginals import AftModel\n"
        "from coprisk.simulate import DgpSpec, generate_dataset\n"
        "model = AftModel('weibull', 1.0, [1.0], 1.5)\n"
        "ds = generate_dataset(DgpSpec(n=20000, tau=0.8, model_t=model, model_c=model), 3)\n"
        "res, res2 = fit_3se(ds, 'weibull'), fit_2se(ds)\n"
        "print(repr((res.tau_hat, res.model.alpha, res.model.beta.tolist(), res.model.sigma,\n"
        "            res.objective_trace, res.diagnostics, res2.tau_hat,\n"
        "            res2.beta_hat.tolist(), res2.objective_trace)))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        proc = fresh_python("-c", script, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
