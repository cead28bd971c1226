"""The CLI in a fresh interpreter: what it imports, and what it writes.

The other test modules import scipy before any test runs, so only a new
process shows what ``coprisk fit`` loads on its own and that the families
whose scipy functions are imported on first use give the same output.
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


def fresh_python(*args):
    env = dict(os.environ)
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
