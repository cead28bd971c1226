"""The public surface: adding or removing a name in ``coprisk.__all__`` is a
deliberate change that updates this list."""

import io
import re
import tokenize
from pathlib import Path

import coprisk

ROOT = Path(__file__).resolve().parents[1]

# Every public name is used in code by one of these: the README's code
# spans and fenced blocks, or an identifier of the two Python files.  Result
# and error types are public because callers receive or catch them.
CODE_USERS = ("src/coprisk/cli.py", "tests/test_acceptance.py")
RETURNED_OR_RAISED = {"BootstrapResult", "McReport", "CopriskError"}

EXPECTED = {
    # data
    "Dataset", "load_csv", "pool_risks", "stratify",
    # copula
    "generator", "generator_inverse", "generator_inverse_deriv",
    "tau_from_theta", "theta_from_tau",
    # marginals
    "AftModel", "PhModel", "inverse_survival", "survival",
    # estimators
    "FitResult2SE", "FitResult3SE", "fgls_fit", "fit_2se", "fit_3se",
    "three_stage_point", "two_stage_point",
    # inference and simulation
    "BootstrapResult", "bootstrap", "DgpSpec", "McReport", "generate_dataset",
    "monte_carlo", "sample_pair",
    # errors
    "CopriskError", "DataError", "EstimationError",
}


def test_all_is_sorted():
    assert coprisk.__all__ == sorted(coprisk.__all__)


def test_all_names_resolve():
    missing = [name for name in coprisk.__all__ if not hasattr(coprisk, name)]
    assert missing == []


def test_all_is_the_expected_surface():
    assert len(EXPECTED) == 30
    assert len(coprisk.__all__) == len(set(coprisk.__all__))
    assert set(coprisk.__all__) == EXPECTED


FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", flags=re.S | re.M)


def readme_code(text: str) -> list[str]:
    """The README's fenced blocks and the code spans of its prose."""
    return FENCE.findall(text) + re.findall(r"`([^`\n]+)`", FENCE.sub("", text))


def code_names() -> set[str]:
    """Every identifier in the users' code; prose words do not count."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"[A-Za-z_]\w*", "\n".join(readme_code(readme))))
    for path in CODE_USERS:
        source = (ROOT / path).read_text(encoding="utf-8")
        names.update(token.string
                     for token in tokenize.generate_tokens(io.StringIO(source).readline)
                     if token.type == tokenize.NAME)
    return names


def test_readme_code_leaves_out_prose():
    text = "The survival curve.\n```python\nfit_3se(ds)\n```\nSee `load_csv` and survival.\n"
    assert readme_code(text) == ["fit_3se(ds)\n", "load_csv"]


def test_every_public_name_has_a_user():
    names = code_names()
    unused = [name for name in coprisk.__all__
              if name not in RETURNED_OR_RAISED and name not in names]
    assert unused == []
