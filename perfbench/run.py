"""coprisk benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload mc-2k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload at tiny n

Run from the repository root (any directory works; paths are resolved from
this file).  The program is imported from ``src/``; nothing is installed.
With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric named in BENCHMARK.json; with ``--trace 1`` it holds
every per-layer metric.  Lines before it are a readable report: the
environment, the fitted values and each metric with its unit.  A record of
the run is also written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import FIT_SPANS, Tracer
from workloads import FULL, GRID_EDGE, SMOKE, TAU0, WORKLOADS, Run, cli_startup, spec

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
clock = time.perf_counter

LAYER_TIMES = (
    "data.load_csv", "data.stratify", "data.subset", "first_stage.build",
    "first_stage.lookup", "cge.copula_graphic", "cge.trim_support",
    "copula.generator", "copula.sampling", "marginals.transform",
    "estimators.smooth", "estimators.regression", "simulate.generate",
    "inference.replicate", "cli.fit",
)
LAYER_CALLS = (
    "data.subset", "first_stage.lookup", "cge.copula_graphic",
    "estimators.smooth", "estimators.regression",
)
SWEEP_LAYERS = (
    "estimators.smooth", "estimators.self", "first_stage.lookup",
    "cge.copula_graphic", "estimators.regression",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; without --workload runs every workload, traced and not")
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_benchmark()["run_seconds"])
    return args


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def coprisk_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "coprisk" or k.startswith("coprisk.")}


class SetupSampler:
    """Times a workload's set-ups, spread evenly over the measured loop.

    The machine's speed drifts over tens of seconds, so set-ups done back to
    back sample one moment of it.  Spread over the run, their median sees the
    same machine as the loop's own metrics.  The first set-up gives the state
    the loop uses; each later one is timed, checked (its warm-up fit must
    match) and thrown away, and the coprisk modules the loop uses are put back
    in sys.modules.  Each set-up is paced and marked "setup".
    """

    def __init__(self, wl, run: Run, reps: int):
        self.wl, self.run, self.reps = wl, run, reps
        self.done = 0

    def first(self):
        st = self.run.pacer.call("setup", self.wl.setup, self.run)
        self.done = 1
        self.start, self.spent = clock(), 0.0
        return st

    def _another(self) -> None:
        kept = coprisk_modules()
        self.run.pacer.call("setup", self.wl.setup, self.run)
        self.done += 1
        for name in coprisk_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()

    def between_rounds(self) -> float:
        """Do the set-ups now due; return the seconds they took."""
        began = clock()
        measured = began - self.start - self.spent
        while self.done < self.reps and measured >= self.done * self.run.seconds / self.reps:
            self._another()
        took = clock() - began
        self.spent += took
        return took

    def median(self) -> float:
        while self.done < self.reps:
            self._another()
        return self.run.median_ref("setup", "setup_s")


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def layer_metrics(tracer) -> dict:
    self_t, calls = tracer.self_times(), tracer.calls()
    m = {f"{name}.s": self_t.get(name, 0.0) for name in LAYER_TIMES}
    m.update({f"{name}.calls": calls.get(name, 0) for name in LAYER_CALLS})
    fits = tracer.fits()
    evals = sum(s[4]["evals"] for _, s in fits)
    knots = tracer.knots_per_fit()
    m["estimators.self.s"] = sum(self_t.get(name, 0.0) for name in FIT_SPANS)
    m["estimators.criterion_evals"] = evals
    m["estimators.eval.s"] = sum(s[2] - s[1] for _, s in fits) / evals if evals else 0.0
    m["estimators.grid_failed"] = sum(s[4]["grid_failed"] for _, s in fits)
    m["estimators.n_clamped"] = sum(s[4]["n_clamped"] for _, s in fits)
    m["estimators.at_grid_edge"] = sum(abs(s[4]["tau"]) >= GRID_EDGE - 1e-9 for _, s in fits)
    m["first_stage.knots"] = statistics.median(knots) if knots else 0
    err = {
        kind: [s[4]["tau"] - TAU0 for _, s in fits if s[0] == f"estimators.fit_{kind}"]
        for kind in ("3se", "2se")
    }
    m["mc_mse_tau"] = statistics.fmean(e * e for e in err["3se"]) if err["3se"] else 0.0
    for kind in ("3se", "2se"):
        m[f"tau_abs_err_{kind}"] = statistics.median(abs(e) for e in err[kind]) if err[kind] else 0.0
    return m


def sweep(run, cp) -> dict:
    """Traced fit_3se and fit_2se at three sizes, plus log-log slopes."""
    out, points = {}, {"estimators.smooth": [], "estimators.self": []}
    for n, label in run.sizes.sweep:
        ds = cp.generate_dataset(spec(cp, n), run.subseed(6, n))
        with Tracer() as tr:
            run.attempted += 2
            cp.fit_3se(ds, "weibull")
            cp.fit_2se(ds)
        for v in tr.identity_violations():
            run.check(False, f"sweep {label}: {v}")
        m = layer_metrics(tr)
        for layer in SWEEP_LAYERS:
            out[f"sweep.{label}.{layer}.s"] = m[f"{layer}.s"]
            if layer in points:
                points[layer].append((n, m[f"{layer}.s"]))
        for kind in ("3se", "2se"):
            out[f"sweep.{label}.fit_{kind}.s"] = sum(
                s[2] - s[1] for _, s in tr.fits() if s[0] == f"estimators.fit_{kind}"
            )
    for layer, pts in points.items():
        n, t = np.array(pts).T
        # a layer that no longer exists has zero time and no slope
        out[f"sweep.{layer}.slope"] = np.polyfit(np.log(n), np.log(t), 1)[0] if t.all() else 0.0
    return out


def traced_metrics(run, wl, st) -> dict:
    clock = time.perf_counter
    t = clock()
    wl.trace_work(run, st)
    untraced = clock() - t
    with Tracer() as tr:
        t = clock()
        wl.trace_work(run, st)
        traced = clock() - t
    for v in tr.identity_violations():
        run.check(False, v)
    m = layer_metrics(tr)
    m["trace.overhead_ratio"] = traced / untraced - 1.0
    m["inference.parallel_efficiency"] = (
        wl.parallel_efficiency(run, st)
        if hasattr(wl, "parallel_efficiency") else 0.0
    )
    m.update(sweep(run, st["cp"]))
    m["cli.startup.s"] = cli_startup(run)
    return m


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    wanted = load_benchmark()["per_layer" if trace else "end_to_end"]
    wl = WORKLOADS[workload]
    run = Run(ROOT, seed, seconds, SMOKE if smoke else FULL, WORKDIR, wl.probe)

    if trace:
        values = traced_metrics(run, wl, wl.setup(run))
        values["failed_ratio"] = run.failed / run.attempted
    else:
        setups = SetupSampler(wl, run, wl.setup_reps(run.sizes))
        st = setups.first()
        run.between_rounds = setups.between_rounds
        values = wl.measure(run, st)
        values["setup_s"] = setups.median()
        for kind in ("probe", "spawn"):
            run.figures[f"{kind}_s"] = statistics.median(
                w for what, _, w in run.pacer.timeline if what == kind)
        # pool workers and CLI subprocesses are waited for, so they are in
        # RUSAGE_CHILDREN; its ru_maxrss is the largest of them
        rss = {who: resource.getrusage(who).ru_maxrss / 1024.0
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
        run.figures["peak_rss_mb_self"] = rss[resource.RUSAGE_SELF]
        run.figures["peak_rss_mb_children"] = rss[resource.RUSAGE_CHILDREN]
        values["peak_rss_mb"] = max(rss.values())

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    record = {
        "workload": workload, "trace": trace, "seconds": seconds, "smoke": smoke,
        "environment": environment(seed), "fitted": run.fitted,
        "figures": run.figures, "problems": run.problems, "result": result,
        "timeline": run.pacer.timeline,
    }
    out_dir = WORKDIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for path in WORKDIR.glob("*.csv"):
        path.unlink()

    print(f"# workload {workload}  seed {seed}  trace {trace}  seconds {seconds}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for key, params in sorted(run.fitted.items()):
        print(f"# fitted {key} " + json.dumps(params, sort_keys=True))
    for key, value in sorted(run.figures.items()):
        print(f"# figure {key} = {value:.6g}")
    for name, metric in result["metrics"].items():
        print(f"# metric {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"# CHECK FAILED: {problem}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coprisk" / "__init__.py").is_file():
        sys.stderr.write(f"coprisk sources not found under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    if not args.smoke:
        result = run_one(args.workload, args.seed, args.seconds, args.trace, False)
        print(json.dumps(result))
        return 0
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {
        f"{w}/trace{t}": run_one(w, args.seed, args.seconds, t, True)
        for w in workloads for t in (0, 1)
    }
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"smoke": {k: r["correct"] for k, r in results.items()}, "correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
