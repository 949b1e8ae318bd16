"""Start-up cost: no run loads scipy, and a run loads only the modules its stages use.

Importing ``scipy.stats`` alone takes longer than most CLI runs, so the
package imports scipy nowhere: the scrambled Halton sampler (behind every
Halton draw, the closed-graph directions among them) and the solvers' scalar
routines are numpy and float ports whose tests compare bytes against scipy.
Every module the package compiles and runs costs start-up too, so
``import rcontinuity`` loads no submodule (its public names load their module
on first use), and a CLI kind loads only the leaves its stages import: a
``modulus``, ``loja``, ``plk`` or ``catalog`` run never loads ``solvers`` or
``certify``, and a ``solve`` or ``certify`` run never loads ``analysis``.
These tests keep it that way, checking both in fresh interpreters; they also
keep every norm in ``geometry.py`` and every per-element power in
``geometry._pow``, keep every public default one that some
call overrides, keep the leaf modules importing only the core, keep
``__all__`` the names of the package's table of public names, and keep every
exception type the package defines one that it raises.
"""

import ast
import builtins
import importlib
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


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _power_comprehensions(folder: Path) -> list:
    """``file:line`` of each ``**`` in a comprehension's element that reads one of its
    loop variables, outside ``geometry._pow``, the one per-element power."""
    offenders = []
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        kernel = {id(node) for top in tree.body if path.name == "geometry.py"
                  and isinstance(top, ast.FunctionDef) and top.name == "_pow" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, _COMPREHENSIONS) or id(node) in kernel:
                continue
            loop = {n.id for gen in node.generators for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
            elements = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            offenders += [f"{path.name}:{sub.lineno}" for element in elements for sub in ast.walk(element)
                          if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
                          and loop & {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}]
    return offenders


def test_only_geometry_pow_takes_a_power_per_element():
    # a Python ** per element is the slow path of a column; geometry._pow takes it in one
    # comprehension, with Python's bits, and every column power goes through it
    assert _power_comprehensions(SRC / "rcontinuity") == []


def test_the_power_lint_sees_a_comprehension_power(tmp_path):
    (tmp_path / "a.py").write_text(
        "xs = [t ** 2 for t in v]\nys = [c ** 2 for t in v]\nzs = [f(t) for t in v]\n"
        "d = {k: w ** q for k, w in pairs}\ng = sum(2.0 ** -j\n          for j in range(9))\n"
        "n = [[(x - 1.0) ** 3 for x in row] for row in rows]\n", encoding="utf-8")
    (tmp_path / "geometry.py").write_text(
        "def _pow(v, e):\n    return [t ** e for t in v]\n"
        "def _other(v, e):\n    return [t ** e for t in v]\n", encoding="utf-8")
    assert _power_comprehensions(tmp_path) == ["a.py:1", "a.py:4", "a.py:5", "a.py:7", "geometry.py:4"]


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


#: ``__all__`` as it was when the package imported every module up front.
_PUBLIC_NAMES = """
DimensionMismatchError PointSet Region Window as_point excess sample_window
DcSplit MissingOracleError OperatorEntry ProxOracle SetValuedMap WindowRequiredError pointwise
CatalogError catalog_listing catalog_lookup catalog_names
CalmnessResult GraphTestResult HolderFit InverseLipschitzResult LojFit ModulusCurve PlkConfig PlkResult
calmness_estimate certify_inverse_lipschitz check_plk_exponent closed_graph_test estimate_modulus fit_holder
lojasiewicz_fit
IterateTrace StopRule make_synthetic_trace run_dca run_gdm run_ppa run_qpower_prox run_shifted_ppa
Certificate DistanceVerdict check_h1 check_h2 check_h3 check_h4 check_rclass distance_trace
""".split()


def test_the_public_names_are_the_tabled_ones():
    # __all__ is read off the package's table of owners: the same names, in the same order,
    # and each resolves to what its owner module defines
    assert rcontinuity.__all__ == _PUBLIC_NAMES
    for name, module in rcontinuity._OWNERS.items():
        value = getattr(rcontinuity, name)
        assert value is getattr(importlib.import_module(f"rcontinuity.{module}"), name)
        assert not isinstance(value, ModuleType)
    assert set(_PUBLIC_NAMES) <= set(dir(rcontinuity))
    star = {}
    exec("from rcontinuity import *", star)
    assert all(star[name] is getattr(rcontinuity, name) for name in _PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        rcontinuity.no_such_name


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
run = json.loads(sys.argv[1])
if isinstance(run, list):
    from rcontinuity.cli import main
    code = main(run)
else:
    code = exec(run)
print(json.dumps([code or 0, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
                  sorted(m.partition(".")[2] for m in sys.modules if m.startswith("rcontinuity."))]))
"""

_WINDOW = '{"kind": "box", "center": [0.0], "extent": [1.0]}'
_PLK = '{"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1.0}'


def _loaded_after(run, out: Path):
    """Exit code, loaded scipy modules and loaded ``rcontinuity`` submodules of a
    fresh interpreter that runs ``rcontinuity.cli.main(run)`` for a list, or
    ``exec(run)`` for a string."""
    if isinstance(run, list):
        run = run + ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(run)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    # every module, the command line among them
    "import rcontinuity.cli\nfrom rcontinuity import *",
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
    code, modules, _ = _loaded_after(argv, tmp_path / "out")
    assert code in (0, 4)
    assert modules == []


def test_the_probe_sees_a_scipy_import(tmp_path):
    # so that the empty lists above mean something
    code, modules, _ = _loaded_after("import scipy.special", tmp_path / "out")
    assert code == 0 and "scipy.special" in modules


#: What every CLI run loads: the command line, the catalog (and so the core) and the writers.
_CLI = {"catalog", "cli", "geometry", "serialize", "setmap"}
_EVERY_MODULE = {path.stem for path in (SRC / "rcontinuity").glob("*.py")} - {"__init__", "__main__"}
_GDM = 'algorithm={"name": "gdm", "step": 0.5, "x0": [1.0]}'


@pytest.mark.parametrize("run, loaded", [
    ("import rcontinuity", set()),
    (["catalog"], _CLI),
    (["modulus", "--set", "operator=square"], _CLI | {"analysis"}),
    (["loja", "--set", "operator=square", "--set", f"analysis.window={_WINDOW}"], _CLI | {"analysis"}),
    (["plk", "--set", "operator=square", "--set", f"analysis.plk={_PLK}"], _CLI | {"analysis"}),
    (["solve", "--set", "operator=quad", "--set", _GDM], _CLI | {"solvers", "certify"}),
    (["certify", "--set", "operator=quad", "--set", _GDM, "--set", 'certificates=[{"hypothesis": "H1", "alpha": 1}]'],
     _CLI | {"solvers", "certify"}),
    (["pipeline", "--set", "operator=quad", "--set", _GDM], _EVERY_MODULE),
], ids=["import", "catalog", "modulus", "loja", "plk", "solve", "certify", "pipeline"])
def test_each_kind_loads_only_the_modules_its_stages_use(run, loaded, tmp_path):
    code, _, modules = _loaded_after(run, tmp_path / "out")
    assert code in (0, 4)
    assert set(modules) == loaded


def test_importtime_times_every_module_a_run_loads():
    # the set-up probes of perfbench/run.py read the catalog's line of `-X importtime`,
    # which times only imports made through __import__
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "from rcontinuity import cli"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    timed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {f"rcontinuity.{module}" for module in _CLI} <= timed


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
