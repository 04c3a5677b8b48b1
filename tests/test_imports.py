"""Every name a src/grasschur module imports is used in that module: read as a
name, as the root of an attribute, in a quoted annotation, or listed in
``__all__``.  No module but ``sampling`` names numpy's random generator, and none
imports the test-support modules ``sampling`` and ``oracle``.  The series layer,
the Schur membership test and the L3 series builders take no tuning parameter
(their truncation degree is the context's), and no object is built without a
context."""
import ast
import inspect
from pathlib import Path

import pytest

from grasschur import schur
from grasschur.schur import is_schur_grassmann
from grasschur.series import LaurentSeries, evaluate, evaluate_right, wiener_invert

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grasschur"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each bound name of every import statement, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return used


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"imported in src/grasschur and never used: {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from .algebra import mul, dagger\nimport numpy as np\n\n"
                     "def f(x: 'Supernumber') -> np.ndarray:\n    return mul(x, x)\n")
    assert {name for name in _imported(tree) if name not in _used(tree)} == {"dagger"}


_RANDOM = {"random", "default_rng"}
_TEST_SUPPORT = {"sampling", "oracle"}


def _randomness(tree: ast.Module) -> list[str]:
    """Each use of numpy's random generator and each import of a test-support module, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _RANDOM or isinstance(node, ast.Name) and node.id in _RANDOM:
            found.append(f"{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno} import {a.name}" for a in node.names
                      if {"random", *_TEST_SUPPORT} & set(a.name.split("."))]
        elif isinstance(node, ast.ImportFrom):
            names = {(node.module or "").split(".")[-1], *(a.name for a in node.names)}
            if names & (_RANDOM | _TEST_SUPPORT):
                found.append(f"{node.lineno} from {'.' * node.level}{node.module or ''} import ...")
    return found


def test_no_runtime_randomness():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "sampling.py":
            found += [f"{path.name}:{hit}" for hit in _randomness(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, f"random numbers or test support used at run time in src/grasschur: {found}"


@pytest.mark.parametrize("source", [
    "from .sampling import random_even_unit", "from . import oracle", "import grasschur.sampling",
    "from numpy.random import default_rng", "import numpy.random", "rng = np.random.default_rng(0)",
])
def test_runtime_randomness_is_caught(source):
    assert _randomness(ast.parse(source))
    assert not _randomness(ast.parse("from .algebra import mul\nx = np.linalg.eigvals(a)"))


_SIGNATURES = {
    "wiener_invert": (wiener_invert, ["f"]),
    "is_schur_grassmann": (is_schur_grassmann, ["s"]),
    "LaurentSeries": (LaurentSeries.__new__, ["cls", "window", "coeffs"]),
    "evaluate": (evaluate, ["f", "z0"]),
    "evaluate_right": (evaluate_right, ["f", "z0"]),
    "np_solve": (schur.np_solve, ["data", "sigma"]),
    "build_theta": (schur.build_theta, ["c", "a", "p", "j", "verify_samples"]),
    "lft_apply": (schur.lft_apply, ["block", "sigma"]),
    "blaschke_factor": (schur.blaschke_factor, ["a", "c", "p"]),
    "factorized_series": (schur.BlaschkeFactor.factorized_series, ["self"]),
    "brune_section": (schur.brune_section, ["c", "a", "p", "j"]),
    "kernel_eval": (schur.kernel_eval, ["w", "xi"]),
    "h_theta_kernel": (schur.h_theta_kernel, ["theta", "w", "xi"]),
    "kernel_decomposition_residual": (schur.kernel_decomposition_residual, ["theta", "w", "xi"]),
    "module_interpolate": (schur.module_interpolate, ["c", "a", "x", "h"]),
}


@pytest.mark.parametrize("function, parameters", _SIGNATURES.values(), ids=_SIGNATURES)
def test_tuning_options_are_gone(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


def test_no_context_less_object():
    found = [f"{path.name}:{n}" for path in sorted(PACKAGE.rglob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if "zeros(None" in line]
    assert not found, f"objects built with context None in src/grasschur: {found}"
