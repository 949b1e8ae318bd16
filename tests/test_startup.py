"""Start-up cost: no run loads scipy.

Importing ``scipy.stats`` alone takes longer than most CLI runs, so the
package imports scipy nowhere: the scrambled Halton sampler (behind every
Halton draw, the closed-graph directions among them) and the solvers' scalar
routines are numpy and float ports whose tests compare bytes against scipy.
These tests keep it that way, keep every norm in ``geometry.py``, keep every
public default one that some call overrides, keep the leaf modules importing
only the core, keep ``__all__`` the names the package imports, and keep every
exception type the package defines one that it raises.
"""

import ast
import builtins
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import rcontinuity

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _scipy_imports(tree: ast.Module) -> list:
    """The scipy modules a module's import statements name, at any depth:
    module level, class bodies and function bodies alike."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return [name for name in names if name.split(".")[0] == "scipy"]


def test_no_scipy_import_in_the_package():
    offenders = []
    for path in sorted((SRC / "rcontinuity").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}: {name}" for name in _scipy_imports(tree)]
    assert not offenders


def test_only_geometry_takes_a_norm():
    # which bits a norm has reaches the artifacts, so one module picks them (geometry's
    # _norm, _norm1, _norm_rows and _norms); nothing else calls numpy's norm itself
    offenders = [f"{path.name}:{i}" for path in sorted((SRC / "rcontinuity").glob("*.py")) if path.name != "geometry.py"
                 for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if "linalg.norm" in line]
    assert not offenders


def _calls(paths):
    """Per called name (a plain name or an attribute), each call's positional
    count (unbounded with a ``*`` argument) and keyword names."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                positional = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                calls.setdefault(name, []).append((positional, {k.arg for k in node.keywords}))
    return calls


def _unpassed(calls) -> list:
    """``function.param`` for each defaulted parameter of a public function that no call passes."""
    unpassed = []
    for name in rcontinuity.__all__:
        function = getattr(rcontinuity, name)
        if not inspect.isfunction(function):
            continue
        for i, p in enumerate(inspect.signature(function).parameters.values()):
            if p.default is not p.empty and not any(
                    p.name in keywords or (positional > i and p.kind is p.POSITIONAL_OR_KEYWORD)
                    for positional, keywords in calls.get(name, [])):
                unpassed.append(f"{name}.{p.name}")
    return unpassed


def test_every_public_default_is_overridden_somewhere():
    # a default no call changes is a constant: it belongs beside its function, not in its signature
    paths = [path for folder in ("src", "tests", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unpassed(_calls(paths)) == []


def test_the_default_scan_counts_positional_and_keyword_arguments(tmp_path):
    (tmp_path / "calls.py").write_text("rc.estimate_modulus(m, x, k, r, 8)\nlojasiewicz_fit(e, k, grid_count=5)\n"
                                       "check_plk_exponent(*args)\n", encoding="utf-8")
    found = _unpassed(_calls([tmp_path / "calls.py"]))
    assert "estimate_modulus.samples_per_radius" not in found and "estimate_modulus.seed" in found
    assert "lojasiewicz_fit.grid_count" not in found and "check_plk_exponent.grid_count" not in found
    assert "calmness_estimate.samples" in found


def test_the_lint_sees_every_scipy_import():
    tree = ast.parse("import numpy, scipy.stats\nif True:\n    from scipy import optimize\n"
                     "class C:\n    import scipy.special\n"
                     "def f():\n    from scipy.stats import qmc\n"
                     "    def g():\n        import scipy as sp\n"
                     "from . import scipyish\n")
    assert sorted(_scipy_imports(tree)) == ["scipy", "scipy", "scipy.special", "scipy.stats", "scipy.stats"]


#: The package modules each module may import at run time: the core (geometry,
#: then setmap) and the leaves, which import only the core.  Only the composers
#: (``cli``, ``__init__``, ``__main__``) import leaves.
_LAYERS = {
    "geometry": set(),
    "setmap": {"geometry"},
    **{leaf: {"geometry", "setmap"} for leaf in ("catalog", "analysis", "solvers", "certify")},
    "serialize": set(),
}
_COMPOSERS = {"cli", "__init__", "__main__"}


def _package_imports(tree: ast.Module) -> set:
    """The package modules a module imports at run time: its relative imports
    at any depth, but not those under ``if TYPE_CHECKING:``."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            todo += node.orelse
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        todo += ast.iter_child_nodes(node)
    return names


def _layering_offenders(folder: Path) -> list:
    offenders = []
    for path in sorted(folder.glob("*.py")):
        if path.stem in _COMPOSERS:
            continue
        if path.stem not in _LAYERS:
            offenders.append(f"{path.name} has no layer")
            continue
        imported = _package_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        offenders += [f"{path.name} imports {name}" for name in sorted(imported - _LAYERS[path.stem])]
    return offenders


def test_the_leaves_import_only_the_core():
    assert _layering_offenders(SRC / "rcontinuity") == []


def test_the_layering_lint_sees_a_leaf_importing_a_leaf(tmp_path):
    (tmp_path / "certify.py").write_text(
        "from typing import TYPE_CHECKING\nfrom .geometry import Region\nif TYPE_CHECKING:\n"
        "    from .solvers import IterateTrace\nelse:\n    from . import serialize\nif not TYPE_CHECKING:\n"
        "    from .catalog import catalog_lookup\n"
        "def f():\n    from .analysis import X\n", encoding="utf-8")
    (tmp_path / "plotting.py").write_text("import numpy\n", encoding="utf-8")
    assert _layering_offenders(tmp_path) == ["certify.py imports analysis", "certify.py imports catalog",
                                             "certify.py imports serialize", "plotting.py has no layer"]


def test_the_public_names_are_the_imported_ones():
    # __all__ is derived from the package's globals; it must be exactly the names of its
    # `from .<module> import (...)` statements, in order, and hold no module
    tree = ast.parse((SRC / "rcontinuity" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert rcontinuity.__all__ == imported
    assert not any(isinstance(getattr(rcontinuity, name), ModuleType) for name in rcontinuity.__all__)


def _unraised_exceptions(folder: Path) -> list:
    """The exception classes defined in ``folder``'s modules (a base is a built-in
    exception or another such class) that no ``raise`` there names, as ``X``,
    ``X(...)``, ``module.X`` or ``module.X(...)``."""
    defined, raised = {}, set()
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                defined[node.name] = (path.name, {getattr(base, "id", getattr(base, "attr", None))
                                                  for base in node.bases})
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    while True:
        new = {name for name, (_, bases) in defined.items() if name not in exceptions and bases & exceptions}
        if not new:
            break
        exceptions |= new
    return sorted(f"{defined[name][0]}: {name}" for name in exceptions & defined.keys() - raised)


def test_every_exception_type_is_raised():
    # a type leaves with its last raise, rather than lingering as a name callers may catch
    assert _unraised_exceptions(SRC / "rcontinuity") == []


def test_the_exception_lint_sees_an_unraised_type(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Early(Late):\n    pass\nclass Late(ValueError):\n    pass\nclass Dead(Late):\n    pass\n"
        "class Plain:\n    pass\nclass NotAnError(Plain):\n    pass\nclass Bare(KeyError):\n    pass\n"
        "def f():\n    raise Late('x') from None\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\nclass Qualified(a.Late):\n    pass\nclass Unqualified(Exception):\n    pass\n"
        "def g():\n    try:\n        raise a.Bare\n    except Exception:\n        raise\n"
        "    raise a.Qualified()\n", encoding="utf-8")
    assert _unraised_exceptions(tmp_path) == ["a.py: Dead", "a.py: Early", "b.py: Unqualified"]


_PROBE = """
import json, sys
from rcontinuity.cli import main
run = json.loads(sys.argv[1])
code = main(run) if isinstance(run, list) else exec(run or "")
print(json.dumps([code or 0, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""

_WINDOW = '{"kind": "box", "center": [0.0], "extent": [1.0]}'
_PLK = '{"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1.0}'


def _scipy_after(run, out: Path):
    """Exit code and loaded scipy modules of a fresh interpreter that imports
    ``rcontinuity.cli`` and then runs ``main(run)`` for a list, ``exec(run)``
    for a string, or nothing for None."""
    if isinstance(run, list):
        run = run + ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(run)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    return code, modules


@pytest.mark.parametrize("argv", [
    None,
    ["catalog"],
    ["modulus", "--set", "operator=square", "--set", "analysis.target=inverse"],
    ["pipeline", "--set", "operator=quad", "--set", 'algorithm={"name": "gdm", "step": 0.5, "x0": [1.0]}'],
    ["modulus", "--set", "operator=quad2", "--set", "analysis.target=inverse", "--set", "analysis.xbar=[0.0, 0.0]"],
    ["loja", "--set", "operator=square", "--set", f"analysis.window={_WINDOW}"],
    ["plk", "--set", "operator=square", "--set", f"analysis.plk={_PLK}"],
    ["solve", "--set", "operator=abs-subdiff", "--set", 'algorithm={"name": "ppa", "gamma": 0.3, "x0": [1.0]}'],
    ["solve", "--set", "operator=dc-quad", "--set", 'algorithm={"name": "dca", "gamma": 0.5, "x0": [1.0]}'],
    ["solve", "--set", "operator=quad", "--set",
     'algorithm={"name": "shifted-ppa", "kappa": 0.25, "gamma": 1.0, "x0": [1.0]}'],
    # qpower on a quadratic with q = 2 has a closed form
    ["solve", "--set", "operator=quad2", "--set", 'algorithm={"name": "qpower", "gamma": 1.0, "q": 2, "x0": [1.0, 1.0]}'],
    # and elsewhere its scalar subproblem runs on the float ports of scipy's Brent routines
    ["solve", "--set", "operator=double-well", "--set",
     'algorithm={"name": "qpower", "gamma": 1.0, "q": 1.5, "x0": [2.0]}', "--set", "stop.max_iter=5"],
    "from rcontinuity import catalog_lookup, closed_graph_test, Window\n"
    "closed_graph_test(catalog_lookup('rm1').forward, [0.0], Window.box([0.0], [5.0]))",
    # the scrambled Halton sampler, and the directions drawn from it, are a numpy port
    ["modulus", "--set", "operator=square", "--set", "analysis.target=inverse", "--set", "analysis.scheme=halton"],
    "from rcontinuity.geometry import unit_directions\nunit_directions(4, 2)",
    "from rcontinuity import catalog_lookup, closed_graph_test, Window\n"
    "closed_graph_test(catalog_lookup('quad2').forward, [0.0, 0.0], Window.box([0.0, 0.0], [10.0, 10.0]))",
    "from rcontinuity import catalog_lookup, certify_inverse_lipschitz, Window\n"
    "certify_inverse_lipschitz(catalog_lookup('quad2'), Window.box([0.0, 0.0], [2.0, 2.0]), test_samples=200)",
], ids=["import", "catalog", "grid-modulus", "gdm-pipeline", "grid-modulus-2d", "loja", "plk", "ppa", "dca",
        "shifted-ppa", "qpower-closed-form", "qpower", "closed-graph-1d", "halton-modulus", "directions-2d",
        "closed-graph-2d", "inverse-lipschitz"])
def test_runs_that_need_no_scipy_do_not_load_it(argv, tmp_path):
    code, modules = _scipy_after(argv, tmp_path / "out")
    assert code in (0, 4)
    assert modules == []


def test_the_probe_sees_a_scipy_import(tmp_path):
    # so that the empty lists above mean something
    code, modules = _scipy_after("import scipy.special", tmp_path / "out")
    assert code == 0 and "scipy.special" in modules


def test_importing_the_package_builds_no_renderer_table():
    # the CSV renderer's lookup tables take milliseconds to build: that is paid
    # at the first CSV that needs them, never at start-up
    probe = ("import rcontinuity.cli, rcontinuity.serialize as s\n"
             "tables = [f for f in vars(s).values() if hasattr(f, 'cache_info')]\n"
             "print(len(tables), sum(f.cache_info().currsize for f in tables))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    tables, built = map(int, proc.stdout.split())
    assert tables >= 3 and built == 0
