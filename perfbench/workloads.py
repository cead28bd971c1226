"""The benchmark's workloads: mc-2k and large-n.

Both use the Weibull benchmark design of the paper's simulation table
(tau0 = 0.8, p_z = 0.3, alpha = 1, beta = 1, sigma = 1.5 for both latent
marginals) and run closed-loop from one client: each call waits for the
previous one.  Besides the CLI subprocess and the spawn probe, only the
traced mc-2k run starts processes: nproc bootstrap workers, to measure the
bootstrap's parallel efficiency.

Each workload has
  setup(run)          one set-up: fresh import, datasets and CSV, warm-up call;
  measure(run, st)    the untraced loop for run.seconds, returning the
                      end-to-end metrics; between its rounds it calls
                      run.between_rounds(), which may time further set-ups;
  trace_work(run, st) a fixed amount of work, run once untraced and once
                      traced, from which the per-module metrics come.
Mc2k also has parallel_efficiency(run, st), run after the traced work.

Every timed call is paced (see pacing.py): the end-to-end metrics are in
reference seconds, and the raw median wall times are printed as figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pacing import Pacer

TAU0 = 0.8
GRID_EDGE = 0.9
TRUTH_3SE = {"tau": TAU0, "alpha": 1.0, "sigma": 1.5, "beta1": 1.0}
# the 2SE coefficient lives on the hazard scale: sigma * beta
TRUTH_2SE = {"tau": TAU0, "beta1": 1.5}

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; SMOKE shrinks every workload to run in seconds."""

    mc_n: int = 2000
    mc_cell: int = 20  # replications per monte_carlo call
    mc_boot_b: int = 20  # replicates per bootstrap call
    mc_trace_reps: int = 40
    large_n: int = 100_000
    large_min_pairs: int = 2
    warmup_n: int = 2000
    sweep: tuple = ((2000, "n2k"), (20_000, "n20k"), (100_000, "n100k"))
    setup_reps: int = 11
    large_setup_reps: int = 3  # one large-n set-up writes and parses 100k rows
    startup_reps: int = 3


FULL = Sizes()
SMOKE = Sizes(
    mc_n=300, mc_cell=3, mc_boot_b=4, mc_trace_reps=4,
    large_n=3000, large_min_pairs=1, warmup_n=300,
    sweep=((300, "n2k"), (1000, "n20k"), (3000, "n100k")),
    setup_reps=1, large_setup_reps=1, startup_reps=1,
)


class Run:
    """One benchmark invocation: arguments, operation counts and check results."""

    def __init__(self, root: Path, seed: int, seconds: float, sizes: Sizes,
                 workdir: Path, probe: str):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.nproc = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fitted: dict[str, dict] = {}  # fitted values, written out
        self.figures: dict[str, float] = {}  # accuracy figures, printed
        self.setups = 0  # set-ups started, so each writes its own CSV
        self.pacer = Pacer(root, probe)
        # called by Loop before each round; returns the seconds it took
        self.between_rounds = lambda: 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def subseed(self, *keys: int) -> int:
        return int(np.random.SeedSequence([self.seed, *keys]).generate_state(1)[0])

    def median_ref(self, what: str, name: str) -> float:
        """Median reference time of the calls marked `what`; their median
        wall time is printed as the figure wall.<name>."""
        return self._median(self.pacer.reference(what), name)

    def cli_ref(self, name: str) -> float:
        refs, share = self.pacer.cli_reference("cli")
        self.figures["cli_startup_share"] = share
        return self._median(refs, name)

    def _median(self, refs, name: str) -> float:
        self.figures[f"wall.{name}"] = statistics.median(w for w, _ in refs)
        return statistics.median(r for _, r in refs)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def fresh_import():
    """Import coprisk (and its CLI) from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "coprisk" or m.startswith("coprisk.")]:
        del sys.modules[name]
    cp = importlib.import_module("coprisk")
    importlib.import_module("coprisk.cli")
    return cp


def spec(cp, n: int):
    model = cp.AftModel("weibull", 1.0, [1.0], 1.5)
    return cp.DgpSpec(n=n, tau=TAU0, model_t=model, model_c=model, p_z=0.3)


def csv_dataset(cp, run: Run, n: int, seed: int, name: str):
    """Write a design sample as CSV with `coprisk gen`, then load it back."""
    run.setups += 1
    path = run.workdir / f"{name}-{run.setups}.csv"
    rc = sys.modules["coprisk.cli"].main(
        ["gen", "--n", str(n), "--seed", str(seed), "--output", str(path)]
    )
    if rc != 0:
        raise RuntimeError(f"coprisk gen exited with {rc}")
    return path, cp.load_csv(path)


def warm_up(cp, run: Run, ds, label: str) -> dict:
    """One call of each estimator's public entry point; every set-up of a run
    fits the same data, so each must give bit-identical parameters."""
    out = {
        "3se": cp.three_stage_point(ds, family="weibull"),
        "2se": cp.two_stage_point(ds),
    }
    for kind, fn in (("3se", "three_stage_point"), ("2se", "two_stage_point")):
        key = f"{label}.{fn}"
        first = run.fitted.setdefault(key, out[kind])
        run.check(first == out[kind],
                  f"{key}: set-up {run.setups} differs: {out[kind]} vs {first}")
    return out


def params_3se(res) -> dict:
    return {
        "tau_hat": float(res.tau_hat),
        "alpha": float(res.model.alpha),
        "beta": [float(b) for b in res.model.beta],
        "sigma": float(res.model.sigma),
    }


def params_2se(res) -> dict:
    return {"tau_hat": float(res.tau_hat), "beta": [float(b) for b in res.beta_hat]}


def all_finite(params: dict) -> bool:
    values = []
    for v in params.values():
        values.extend(v if isinstance(v, (list, tuple)) else [v])
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def run_cli(run: Run, csv_path: Path) -> float | None:
    """`coprisk fit --method 3se-aft` as a subprocess, right after a spawn
    probe and paced like every call; returns its tau_hat."""
    env = dict(os.environ)
    src = str(run.root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "coprisk.cli", "fit", "--input", str(csv_path),
           "--method", "3se-aft", "--family", "weibull"]
    run.attempted += 1
    run.pacer.spawn()
    proc = run.pacer.call("cli", subprocess.run, cmd, cwd=run.root, env=env,
                          capture_output=True, timeout=170)
    if proc.returncode != 0:
        run.failed += 1
        run.check(False, f"coprisk fit exited with {proc.returncode}: {proc.stderr[-300:]!r}")
        return None
    return float(json.loads(proc.stdout)["result"]["tau_hat"])


def check_cli_taus(run: Run, cli_taus, ref_tau: float, label: str) -> None:
    for tau in cli_taus:
        if tau is not None:
            run.check(tau == ref_tau,
                      f"{label}: CLI tau_hat {tau!r} != fit_3se tau_hat {ref_tau!r}")


def cli_in_process(cp, run: Run, csv_path: Path) -> None:
    """The CLI's fit command run in this process, so that its spans are seen."""
    out = run.workdir / "cli-fit.json"
    run.attempted += 1
    rc = sys.modules["coprisk.cli"].main(
        ["fit", "--input", str(csv_path), "--method", "3se-aft", "--output", str(out)]
    )
    if rc != 0:
        run.failed += 1
        run.check(False, f"in-process coprisk fit returned {rc}")


def cli_startup(run: Run) -> float:
    """Median wall time of a fresh interpreter importing coprisk.cli."""
    env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
    walls = []
    for _ in range(run.sizes.startup_reps):
        t = clock()
        subprocess.run([sys.executable, "-c", "import coprisk.cli"], cwd=run.root,
                       env=env, check=True, timeout=170)
        walls.append(clock() - t)
    return statistics.median(walls)


def direct_fits(cp, run: Run, ds, label: str, taus: dict) -> None:
    """fit_3se and fit_2se on one dataset, paced and marked fit_3se and
    fit_2se; check the outputs.  Every call of a run on the same data must
    give the same parameters."""
    for kind, fn, args, decode in (
        ("3se", cp.fit_3se, ("weibull",), params_3se),
        ("2se", cp.fit_2se, (), params_2se),
    ):
        run.attempted += 1
        try:
            res = run.pacer.call(f"fit_{kind}", fn, ds, *args)
        except cp.CopriskError as exc:
            run.failed += 1
            run.check(False, f"{label} fit_{kind} failed: {exc}")
            continue
        params = decode(res)
        run.check(all_finite(params), f"{label} fit_{kind}: non-finite {params}")
        key = f"{label}.fit_{kind}"
        if key in run.fitted:
            run.check(run.fitted[key] == params,
                      f"{key}: repeated fit differs: {params} vs {run.fitted[key]}")
        else:
            run.fitted[key] = params
        taus.setdefault(kind, params["tau_hat"])


class PacedEstimator:
    """Estimator passed to monte_carlo or bootstrap: marks each fit as `what`
    and runs one probe after it, so that the fits of a cell are paced by the
    regime they ran in.  Keeps every output."""

    def __init__(self, fn, pacer: Pacer, what: str):
        self.fn, self.pacer, self.what = fn, pacer, what
        self.outputs: list[dict] = []

    def __call__(self, ds):
        t = clock()
        try:
            out = self.fn(ds)
        finally:
            self.pacer.mark(self.what, t, clock() - t)
            self.pacer.probe()
        self.outputs.append(out)
        return out


class Loop:
    """Closed loop until a deadline: starts another round while at least
    half a mean round is left, so the measured rounds last run.seconds on
    average.  Time spent in run.between_rounds() moves the deadline back."""

    def __init__(self, run: Run, min_rounds: int):
        self.run = run
        self.deadline = clock() + run.seconds
        self.min_rounds = min_rounds
        self.rounds = 0
        self._spent = 0.0

    def __iter__(self):
        while True:
            self.deadline += self.run.between_rounds()
            half = self._spent / max(self.rounds, 1) / 2
            if self.rounds >= self.min_rounds and clock() + half > self.deadline:
                return
            start = clock()
            yield self.rounds
            self._spent += clock() - start
            self.rounds += 1


# ---------------------------------------------------------------------------
# mc-2k: serial Monte Carlo cells of the paper's simulation table
# ---------------------------------------------------------------------------


class Mc2k:
    """Thousands of small fits: per-call overhead dominates."""

    name = "mc-2k"
    probe = "small"

    def setup_reps(self, sizes: Sizes) -> int:
        return sizes.setup_reps

    def setup(self, run: Run):
        cp = fresh_import()
        csv_path, ds = csv_dataset(cp, run, run.sizes.mc_n, run.subseed(1), "mc-2k")
        ref = warm_up(cp, run, ds, "mc-2k.csv")
        return {"cp": cp, "csv": csv_path, "ds": ds, "ref": ref}

    def _cell(self, cp, run: Run, est: PacedEstimator, truth, kind: str):
        """One monte_carlo cell, the same one every round, marked
        mc_<kind>.cell: (report, outputs)."""
        n_before = len(est.outputs)
        rep = run.pacer.call(f"mc_{kind}.cell", cp.monte_carlo, spec(cp, run.sizes.mc_n),
                             est, truth, reps=run.sizes.mc_cell, seed=run.subseed(2))
        run.attempted += rep.n_requested
        run.failed += rep.n_failed
        new = est.outputs[n_before:]
        run.check(rep.n_completed + rep.n_failed == rep.n_requested
                  and rep.n_completed == len(new),
                  f"mc {kind}: replicate counts do not add up")
        for out in new:
            run.check(all_finite(out), f"mc {kind}: non-finite {out}")
        if new:
            mean_tau = float(np.mean([o["tau"] for o in new]))
            run.check(abs(mean_tau - rep.mean["tau"]) <= 1e-12,
                      f"mc {kind}: report mean tau {rep.mean['tau']} "
                      f"!= mean of fits {mean_tau}")
        return rep, new

    def _bootstrap(self, run: Run, st, fit, jobs: int, what: str):
        """bootstrap of the 3SE fit on the CSV sample, marked `what`; every
        call of a run (same seed, any jobs) must give the same replicates."""
        cp = st["cp"]
        b = run.sizes.mc_boot_b
        res = run.pacer.call(what, cp.bootstrap, fit, st["ds"], b=b,
                             seed=run.subseed(5), jobs=jobs)
        run.attempted += b
        run.failed += res.n_failed
        est = dict(zip(res.param_names, res.estimate))
        run.check(bool(np.all(np.isfinite(res.replicates))) and all_finite(est),
                  "bootstrap: non-finite output")
        run.check(est == st["ref"]["3se"],
                  f"bootstrap point estimate {est} != three_stage_point {st['ref']['3se']}")
        first = st.setdefault("boot_first", res)
        run.check(np.array_equal(first.replicates, res.replicates),
                  f"bootstrap with jobs={jobs} is not bit-identical to the first run")
        return res

    def measure(self, run: Run, st) -> dict:
        cp, b = st["cp"], run.sizes.mc_boot_b
        three_stage = functools.partial(cp.three_stage_point, family="weibull")
        est = {
            "3se": PacedEstimator(three_stage, run.pacer, "mc_3se.fit"),
            "2se": PacedEstimator(cp.two_stage_point, run.pacer, "mc_2se.fit"),
        }
        boot_est = PacedEstimator(three_stage, run.pacer, "boot.fit")
        truth = {"3se": TRUTH_3SE, "2se": TRUTH_2SE}
        first, cli = {}, []
        for _ in Loop(run, 2):
            cli.append(run_cli(run, st["csv"]))
            for kind in ("3se", "2se"):
                rep, outputs = self._cell(cp, run, est[kind], truth[kind], kind)
                ref = first.setdefault(kind, (rep, outputs))
                run.check(ref == (rep, outputs), f"mc {kind}: repeated Monte Carlo cell "
                                                 f"differs: {rep.mean} vs {ref[0].mean}")
            res = self._bootstrap(run, st, boot_est, 1, "bootstrap")
        check_cli_taus(run, cli, st["ref"]["3se"]["tau"], self.name)

        values = {}
        for kind in ("3se", "2se"):
            rep, outputs = first[kind]
            err = np.array([o["tau"] for o in outputs]) - TAU0
            run.figures[f"mc_mse_tau_{kind} ({len(err)} reps)"] = float(np.mean(err**2))
            run.figures[f"mc_median_abs_err_{kind} ({len(err)} reps)"] = float(np.median(abs(err)))
            cell = run.median_ref(f"mc_{kind}.cell", f"mc_{kind}_cell_s")
            values[f"mc_{kind}_reps_per_s"] = rep.n_completed / cell
            values[f"fit_{kind}_s"] = run.median_ref(f"mc_{kind}.fit", f"fit_{kind}_s")
        err = res.replicates[:, res.param_names.index("tau")] - TAU0
        run.figures[f"boot_mse_tau_3se ({b} reps)"] = float(np.mean(err**2))
        values["boot_reps_per_s"] = b / run.median_ref("bootstrap", "boot_call_s")
        values["cli_fit_s"] = run.cli_ref("cli_fit_s")
        return values

    def trace_work(self, run: Run, st) -> None:
        cp = st["cp"]
        for kind, fn, truth in (
            ("3se", functools.partial(cp.three_stage_point, family="weibull"), TRUTH_3SE),
            ("2se", cp.two_stage_point, TRUTH_2SE),
        ):
            rep = cp.monte_carlo(spec(cp, run.sizes.mc_n), fn, truth,
                                 reps=run.sizes.mc_trace_reps, seed=run.subseed(3))
            run.attempted += rep.n_requested
            run.failed += rep.n_failed
            # the untraced pass stores its report, the traced pass must match
            # it (McReport equality leaves out the wall time)
            first = st.setdefault(f"trace_report_{kind}", rep)
            run.check(first == rep, f"mc {kind}: traced Monte Carlo cell differs from "
                                    f"the untraced one: {rep.mean} vs {first.mean}")
        # jobs=1: spans recorded in pool workers would be lost.  The first
        # call is the untraced one; its wall time is the serial baseline.
        self._bootstrap(run, st, functools.partial(cp.three_stage_point, family="weibull"),
                        1, "trace.bootstrap")
        st.setdefault("serial_boot_wall", run.pacer.walls("trace.bootstrap")[0])
        cli_in_process(cp, run, st["csv"])

    def parallel_efficiency(self, run: Run, st) -> float:
        cp = st["cp"]
        self._bootstrap(run, st, functools.partial(cp.three_stage_point, family="weibull"),
                        run.nproc, "trace.bootstrap")
        return st["serial_boot_wall"] / (run.nproc * run.pacer.walls("trace.bootstrap")[-1])


# ---------------------------------------------------------------------------
# large-n: one administrative-size sample, fitted by both estimators
# ---------------------------------------------------------------------------


class LargeN:
    """Superlinear kernels dominate; per-call overhead is negligible."""

    name = "large-n"
    probe = "large"

    def setup_reps(self, sizes: Sizes) -> int:
        return sizes.large_setup_reps

    def setup(self, run: Run):
        cp = fresh_import()
        csv_path, ds = csv_dataset(cp, run, run.sizes.large_n, run.subseed(1), "large-n")
        warm_up(cp, run, cp.generate_dataset(spec(cp, run.sizes.warmup_n), run.subseed(4)),
                "large-n.warm_up")
        return {"cp": cp, "csv": csv_path, "ds": ds}

    def measure(self, run: Run, st) -> dict:
        cp, ds = st["cp"], st["ds"]
        taus, cli = {}, []
        for _ in Loop(run, run.sizes.large_min_pairs):
            cli.append(run_cli(run, st["csv"]))
            direct_fits(cp, run, ds, self.name, taus)
        check_cli_taus(run, cli, taus.get("3se"), self.name)
        for kind in ("3se", "2se"):
            if kind in taus:
                run.figures[f"tau_abs_err_{kind}"] = abs(taus[kind] - TAU0)
        fit3 = run.median_ref("fit_3se", "fit_3se_s")
        fit2 = run.median_ref("fit_2se", "fit_2se_s")
        return {
            "mc_3se_reps_per_s": 1.0 / fit3,
            "mc_2se_reps_per_s": 1.0 / fit2,
            "fit_3se_s": fit3,
            "fit_2se_s": fit2,
            # no bootstrap at this n (one replicate is a 4 s fit): the serial
            # 3SE refit rate stands in
            "boot_reps_per_s": 1.0 / fit3,
            "cli_fit_s": run.cli_ref("cli_fit_s"),
        }

    def trace_work(self, run: Run, st) -> None:
        direct_fits(st["cp"], run, st["ds"], "large-n.trace", {})
        cli_in_process(st["cp"], run, st["csv"])


WORKLOADS = {w.name: w for w in (Mc2k(), LargeN())}
