"""In-memory span tracer that wraps coprisk's functions at module boundaries.

The tracer replaces each target function with a wrapper that records a span
(name, start, end, parent, info) and restores the originals on exit.  A
function imported by name into several coprisk modules is replaced in each of
them, so calls between modules are seen too.  A target that no longer exists
is skipped: its layer then reports zero calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); "Class.method" patches a method on the class
TARGETS = (
    ("data.load_csv", "coprisk.data", "load_csv"),
    ("data.stratify", "coprisk.data", "stratify"),
    ("data.subset", "coprisk.data", "Dataset.subset"),
    ("first_stage.build", "coprisk.first_stage", "overall_survival"),
    ("first_stage.build", "coprisk.first_stage", "sub_distribution"),
    ("first_stage.lookup", "coprisk.first_stage", "StepFunction.__call__"),
    ("first_stage.lookup", "coprisk.first_stage", "StepFunction.left_limit"),
    ("cge.copula_graphic", "coprisk.cge", "copula_graphic"),
    ("cge.trim_support", "coprisk.cge", "trim_support"),
    ("copula.generator", "coprisk.copula", "generator"),
    ("copula.generator", "coprisk.copula", "generator_inverse"),
    ("copula.generator", "coprisk.copula", "generator_inverse_deriv"),
    ("copula.sampling", "coprisk.copula", "conditional_v_given_u"),
    ("marginals.transform", "coprisk.marginals", "sw_inverse"),
    ("marginals.transform", "coprisk.marginals", "sw_survival"),
    ("marginals.transform", "coprisk.marginals", "inverse_survival"),
    ("estimators.smooth", "coprisk.estimators", "smooth_curve_values"),
    ("estimators.regression", "coprisk.estimators", "fgls_fit"),
    ("estimators.regression", "coprisk.estimators", "ph_weibull_fit"),
    ("estimators.fit_3se", "coprisk.estimators", "fit_3se"),
    ("estimators.fit_2se", "coprisk.estimators", "fit_2se"),
    ("simulate.generate", "coprisk.simulate", "generate_dataset"),
    ("simulate.monte_carlo", "coprisk.simulate", "monte_carlo"),
    ("inference.bootstrap", "coprisk.inference", "bootstrap"),
    ("inference.replicate", "coprisk.inference", "_one_replicate"),
    ("cli.fit", "coprisk.cli", "main"),
)

FIT_SPANS = ("estimators.fit_3se", "estimators.fit_2se")


def _fit_info(args, result) -> dict:
    """What a fit span keeps for the count identities and the search metrics."""
    ds = args[0]
    z = ds.z
    strata = 1 if z.shape[1] == 0 else np.unique(z, axis=0).shape[0]
    diag = getattr(result, "diagnostics", {}) or {}
    return {
        "evals": len(result.objective_trace),
        "strata": strata,
        "tau": float(result.tau_hat),
        "grid_failed": int(diag.get("n_grid_failed", 0)),
        "n_clamped": int(diag.get("n_clamped", 0)),
    }


def _knots_info(args, result) -> dict:
    return {"knots": int(result.jump_times.size)}


INFO_HOOKS = {
    ("coprisk.estimators", "fit_3se"): _fit_info,
    ("coprisk.estimators", "fit_2se"): _fit_info,
    ("coprisk.first_stage", "sub_distribution"): _knots_info,
}


class Tracer:
    """Context manager: patch the targets on entry, restore them on exit.

    spans[i] = [name, start, end, parent index or -1, info dict or None]
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, clock(), 0.0, parent, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "coprisk" or key.startswith("coprisk."))
        ]
        for name, mod_name, attr in TARGETS:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            hook = INFO_HOOKS.get((mod_name, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    continue
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    # -- analysis -----------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                kids[span[3]].append(i)
        return kids

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span[0]] += (span[2] - span[1]) - child_time[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def descendants(self, idx: int, kids=None):
        kids = self.children() if kids is None else kids
        todo = list(kids.get(idx, ()))
        while todo:
            j = todo.pop()
            yield j
            todo.extend(kids.get(j, ()))

    def fits(self):
        """(span index, span) of every traced 3SE/2SE fit that returned."""
        return [
            (i, s) for i, s in enumerate(self.spans) if s[0] in FIT_SPANS and s[4]
        ]

    def identity_violations(self) -> list[str]:
        """Check copula_graphic calls per fit against the search's evaluations.

        fit_3se builds the curves once per evaluation plus once at the
        minimiser; fit_2se also once more for the theta-free trimming window.
        Skipped when copula_graphic is never called (e.g. refactored away).
        """
        if not any(s[0] == "cge.copula_graphic" for s in self.spans):
            return []
        kids = self.children()
        bad = []
        for i, span in self.fits():
            info = span[4]
            extra = 1 if span[0] == "estimators.fit_3se" else 2
            expected = (info["evals"] + extra) * info["strata"]
            got = sum(
                1 for j in self.descendants(i, kids)
                if self.spans[j][0] == "cge.copula_graphic"
            )
            if got != expected:
                bad.append(f"{span[0]}: copula_graphic calls {got} != {expected}")
        return bad

    def knots_per_fit(self) -> list[int]:
        kids = self.children()
        return [
            sum(
                (self.spans[j][4] or {}).get("knots", 0)
                for j in self.descendants(i, kids)
                if self.spans[j][0] == "first_stage.build"
            )
            for i, _ in self.fits()
        ]
