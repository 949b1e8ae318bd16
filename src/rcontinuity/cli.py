"""Experiment harness.

A single JSON document describes an experiment; command-line flags may
override scalar fields with ``--set path.to.field=value``.  Each run writes
its artifacts into one output directory and reruns of the same configuration
produce byte-identical files (timings are reported on stderr only).

``_KINDS`` is the stage table: each kind's subcommand and its stages, in
order (``solve``, ``modulus``, ``lojasiewicz``, ``plk``).  ``run_experiment``
runs them, then writes the distances of a trace, to a curve if one was made.

Exit codes: 0 success, 2 validation error, 3 runtime error, 4 a requested
certificate or verdict failed.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from . import catalog, serialize
from .geometry import Window
from .setmap import MissingOracleError, OperatorEntry, ParamError, StopRule, check_distance

#: Largest ``analysis.radii.count``: validation builds the whole radius grid.
_MAX_RADII = 10_000
#: Largest ``analysis.samples_per_radius`` and ``analysis.grid_count``: the
#: estimators allocate all of a radius's or grid's sample points at once.
_MAX_SAMPLES = 1_000_000


class ConfigError(ValueError):
    """Configuration rejected before any computation; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max, path, "must be a finite number")
    return float(value)


def _positive(value, path: str) -> float:
    _require(_number(value, path) > 0, path, "must be positive")
    return float(value)


def _integer(value, path: str) -> int:
    _require(_number(value, path).is_integer(), path, "must be an integer")
    return int(value)


def _int(value, path: str, minimum: float = -math.inf, maximum: float = math.inf) -> int:
    _require(_integer(value, path) >= minimum, path, f"must be >= {minimum}")
    _require(value <= maximum, path, f"must be <= {maximum}")
    return int(value)


#: The reader of each annotated type of a solver or stop-rule parameter.
_READ = {"float": _number, "int": _integer, "str": lambda value, path: value}


def _vector(value, path: str, dim: Optional[int] = None) -> List[float]:
    """Finite numbers, a scalar being one: ``dim`` of them, or at least one without ``dim``."""
    items = value if isinstance(value, list) else [value]
    _require(len(items) == dim if dim else len(items) > 0, path, f"must have dimension {dim or 'at least 1'}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(items)]


def _object(value, path: str, allowed, refusal: str = "unknown field", complete: bool = False) -> dict:
    """A copy of a JSON object whose keys are all among ``allowed``, and all of them if ``complete``;
    another key is refused by path, and a missing one named by path."""
    _require(isinstance(value, dict), path, "must be a JSON object")
    for key in value:
        _require(key in allowed, f"{path}.{key}" if path else key or repr(key), refusal)
    for key in allowed if complete else ():
        _require(key in value, f"{path}.{key}", "missing")
    return dict(value)


def _radii_list(spec, path: str) -> List[float]:
    if isinstance(spec, dict):
        _object(spec, path, ("start", "stop", "count"), complete=True)
        start = _positive(spec["start"], f"{path}.start")
        stop = _positive(spec["stop"], f"{path}.stop")
        count = _int(spec["count"], f"{path}.count", 2, _MAX_RADII)
        _require(stop > start, path, "needs stop > start")
        return [float(r) for r in np.geomspace(start, stop, count)]
    _require(isinstance(spec, list), path, "must be a list or {start, stop, count}")
    return [_number(r, f"{path}[{i}]") for i, r in enumerate(spec)]


@functools.cache
def _defaults(estimator: str) -> dict:
    """The parameter defaults of ``analysis.<estimator>``, which its stage resolves into the echo."""
    from . import analysis
    return {key: p.default for key, p in inspect.signature(getattr(analysis, estimator)).parameters.items()}


_STOP_FIELDS = fields(StopRule)


def _rule(section: str, rule: Callable, *args, **params):
    """Return what ``rule``, the check of a stage, returns, and report what it
    rejects by its path: a ``ParamError`` as ``<section>.<param>`` (the bare
    param in the top-level section ``""``), a missing oracle as
    ``algorithm.name`` in the algorithm and as ``operator`` elsewhere."""
    try:
        return rule(*args, **params)
    except ParamError as exc:
        raise ConfigError(f"{section}.{exc.param}" if section else exc.param, str(exc)) from None
    except MissingOracleError as exc:
        raise ConfigError("algorithm.name" if section == "algorithm" else "operator", str(exc)) from None


def _window(a: dict) -> Optional[Window]:
    """``analysis.window``, parsed, or ``None`` where it is absent."""
    if a.get("window") is None:
        return None
    w = _object(a["window"], "analysis.window", [f.name for f in fields(Window)], complete=True)
    _require(w["kind"] in ("box", "ball"), "analysis.window.kind", "must be 'box' or 'ball'")
    w.update({key: _vector(w[key], f"analysis.window.{key}") for key in ("center", "extent")})
    try:
        return Window.from_dict(w)
    except ValueError as exc:
        raise ConfigError("analysis.window", str(exc)) from None


# -- stages ---------------------------------------------------------------------
# A stage is the one reader of the sections it uses: it validates them, resolves
# their defaults into the echo, and returns its run, which writes its artifacts
# through ``emit(name, writer)``, records its verdicts and returns what it made;
# it looks the library's functions up when it runs.  A stage imports the leaf
# modules it uses itself, so that a run loads only those of its kind's stages.

def _solve(cfg: ExperimentConfig, entry: OperatorEntry) -> Callable:
    """The stop rule, the algorithm and the certificates; the run returns the trace."""
    from . import certify, solvers
    stop_raw = _object(cfg.stop, "stop", [f.name for f in _STOP_FIELDS])
    cfg.stop = {f.name: _READ[f.type](stop_raw.get(f.name, f.default), f"stop.{f.name}") for f in _STOP_FIELDS}
    stop = _rule("stop", StopRule, **cfg.stop)
    _require(isinstance(cfg.algorithm, dict), "algorithm", "must be a JSON object")
    name = cfg.algorithm.get("name")
    _require(isinstance(name, str) and name in solvers.ALGORITHMS, "algorithm.name",
             f"must be one of {', '.join(solvers.ALGORITHMS)}")
    spec = solvers.ALGORITHMS[name]
    alg = cfg.algorithm = _object(cfg.algorithm, "algorithm", ("name", "x0", *spec.params))
    _require(alg.get("x0") is not None, "algorithm.x0", "missing starting point")
    alg["x0"] = _vector(alg["x0"], "algorithm.x0", entry.dim_in)
    for key, param in spec.params.items():
        if param.default is not param.empty:
            alg.setdefault(key, param.default)
        _require(key in alg, f"algorithm.{key}", "missing")
        _READ[param.annotation](alg[key], f"algorithm.{key}")
    params = {key: alg[key] for key in spec.params}
    _rule("algorithm", solvers.check, name, entry, **params)
    _require(isinstance(cfg.certificates, list), "certificates", "must be a list")
    _require(cfg.kind != "certify" or bool(cfg.certificates), "certificates", "at least one certificate is required")
    requests = []
    for i, cert in enumerate(cfg.certificates):
        path = f"certificates[{i}]"
        _require(isinstance(cert, dict), path, "must be a JSON object")
        hyp = cert.get("hypothesis")
        _require(isinstance(hyp, str) and hyp in certify.HYPOTHESES, f"{path}.hypothesis",
                 f"must be one of {', '.join(certify.HYPOTHESES)}")
        hypothesis = certify.HYPOTHESES[hyp]
        _object(cert, path, ("hypothesis",) + hypothesis.params)
        for key in hypothesis.params:
            _require(key in cert, f"{path}.{key}", "missing")
            _number(cert[key], f"{path}.{key}")
        request = {key: cert[key] for key in hypothesis.params}
        _rule(path, certify.check, hyp, spec.witness_side, **request)
        requests.append((hypothesis, request))

    def run(emit, verdicts) -> solvers.IterateTrace:
        trace = getattr(solvers, spec.runner)(entry, x0=alg["x0"], stop=stop, **params)
        verdicts["termination"] = trace.termination
        if trace.diverged:
            verdicts["diverged"] = True
        if requests:
            records = [getattr(certify, h.check)(*((trace, entry) if h.takes_entry else (trace,)), **request)
                       .to_json_dict() for h, request in requests]
            emit("certificates.json", lambda p: serialize.write_json(p, records))
            verdicts["certificates"] = records
            if not all(record["pass"] for record in records):
                verdicts["failed"] = True
        return trace
    return run


def _modulus(cfg: ExperimentConfig, entry: OperatorEntry) -> Callable:
    """The map, base point, window, radii and samples of the modulus; the run returns the curve."""
    from . import analysis
    a = cfg.analysis
    window = _window(a)
    if cfg.kind == "full-pipeline":
        # the curve bounds distances via the solver's witnesses, so it is on the inverse of their map
        _require(a.setdefault("target", "auto") == "auto", "analysis.target",
                 "must be 'auto': the pipeline estimates on the inverse of its algorithm's witness map")
        from . import solvers
        witness_map = solvers.ALGORITHMS[cfg.algorithm["name"]].witness_map
        path, oracle = "operator", "inverse" if witness_map == "forward" else "grad_inverse"
    else:
        path, oracle = "analysis.target", a.setdefault("target", "forward")
        _require(oracle in ("forward", "inverse"), path, "must be 'forward' or 'inverse'")
    try:
        entry.need(oracle)
    except MissingOracleError as exc:
        raise ConfigError(path, str(exc)) from None
    m = getattr(entry, oracle)
    xbar = _vector(a.setdefault("xbar", [0.0] * m.dim_in), "analysis.xbar", m.dim_in)
    radii = a["radii"] = _radii_list(a.get("radii", {"start": 1e-4, "stop": 1e-1, "count": 13}), "analysis.radii")
    defaults = _defaults("estimate_modulus")
    samples = _int(a.setdefault("samples_per_radius", defaults["samples_per_radius"]), "analysis.samples_per_radius",
                   maximum=_MAX_SAMPLES)
    scheme = a.setdefault("scheme", defaults["scheme"])
    base_value = _rule("analysis", analysis.check_modulus, m, xbar, window, radii, samples, scheme)

    def run(emit, verdicts) -> analysis.ModulusCurve:
        # estimate_modulus without its check, which validation made: A(xbar) is evaluated once
        curve = analysis._modulus_curve(m, xbar, window, radii, samples, cfg.seed, scheme, base_value)
        emit("modulus.csv", lambda p: serialize.modulus_to_csv(curve, p))
        fit = {**analysis.fit_holder(curve).to_json_dict(), "divergent": curve.divergent}
        emit("holder_fit.json", lambda p: serialize.write_json(p, fit))
        verdicts["holder_fit"] = fit
        return curve
    return run


def _lojasiewicz(cfg: ExperimentConfig, entry: OperatorEntry) -> Callable:
    """The window and grid of the Łojasiewicz fit; the run writes the fit."""
    from . import analysis
    window = _window(cfg.analysis)
    grid_count = _int(cfg.analysis.setdefault("grid_count", _defaults("lojasiewicz_fit")["grid_count"]),
                      "analysis.grid_count", maximum=_MAX_SAMPLES)
    _rule("analysis", analysis.check_lojasiewicz, entry, window, grid_count)

    def run(emit, verdicts) -> None:
        fit = analysis.lojasiewicz_fit(entry, window, grid_count=grid_count).to_json_dict()
        emit("loja_fit.json", lambda p: serialize.write_json(p, fit))
        verdicts["lojasiewicz"] = fit
    return run


def _plk(cfg: ExperimentConfig, entry: OperatorEntry) -> Callable:
    """The PLK parameters, base point and grid; the run writes the verdict."""
    from . import analysis
    a = cfg.analysis
    _require("plk" in a, "analysis.plk", "missing PLK parameters")
    plk_fields = fields(analysis.PlkConfig)
    plk = _object(a["plk"], "analysis.plk", [f.name for f in plk_fields])
    for f in plk_fields:
        _require(f.name in plk, f"analysis.plk.{f.name}", "missing")
        _READ[f.type](plk[f.name], f"analysis.plk.{f.name}")
    plk_config = _rule("analysis.plk", analysis.PlkConfig, **plk)
    xbar = _vector(a.setdefault("xbar", [0.0] * entry.dim_in), "analysis.xbar", entry.dim_in)
    grid_count = _int(a.setdefault("grid_count", _defaults("check_plk_exponent")["grid_count"]),
                      "analysis.grid_count", maximum=_MAX_SAMPLES)
    _rule("analysis", analysis.check_plk, entry, xbar, plk_config, grid_count)

    def run(emit, verdicts) -> None:
        result = analysis.check_plk_exponent(entry, xbar, plk_config, grid_count=grid_count)
        emit("plk.json", lambda p: serialize.write_json(p, result.to_json_dict()))
        verdicts["plk"] = result.verdict
        if result.verdict == "fail":
            verdicts["failed"] = True
    return run


#: Each kind of experiment: its subcommand and the stages it runs, in order.
#: The pipeline's algorithm is validated before its modulus map, which it needs.
_KINDS = {
    "modulus": ("modulus", (_modulus,)),
    "lojasiewicz": ("loja", (_lojasiewicz,)),
    "plk": ("plk", (_plk,)),
    "solve": ("solve", (_solve,)),
    "certify": ("certify", (_solve,)),
    "full-pipeline": ("pipeline", (_solve, _modulus)),
}
#: The analysis fields each stage reads; a kind accepts those of its stages.
_READS = {_modulus: ("target", "xbar", "radii", "samples_per_radius", "scheme", "window"),
          _lojasiewicz: ("window", "grid_count"), _plk: ("plk", "xbar", "grid_count"), _solve: ()}


@dataclass(eq=False, repr=False)
class ExperimentConfig:
    """Validated experiment description with all defaults resolved."""

    kind: str
    operator: str
    seed: int
    tolerance: float
    out_dir: Optional[str]
    algorithm: dict
    analysis: dict
    stop: dict
    certificates: List[dict]
    resolved: dict = field(init=False, default_factory=dict)
    #: The catalog entry, and each stage's run, that validation made.
    entry: Optional[OperatorEntry] = field(init=False, default=None)
    runs: dict = field(init=False, default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        names = [f.name for f in fields(cls) if f.init]
        _object(raw, "", names)
        kind = raw.get("kind")
        _require(isinstance(kind, str) and kind in _KINDS, "kind", f"must be one of {', '.join(_KINDS)}")
        stages = _KINDS[kind][1]
        operator = raw.get("operator")
        _require(isinstance(operator, str) and operator, "operator", "must name a catalog entry")
        try:
            entry = catalog.catalog_lookup(operator)
        except catalog.CatalogError as exc:
            raise ConfigError("operator", str(exc)) from None
        seed = _int(raw.get("seed", 0), "seed", 0)
        tolerance = _number(raw.get("tolerance", 1e-6), "tolerance")
        _rule("", check_distance, tolerance)
        out_dir = raw.get("out_dir")
        _require(out_dir is None or isinstance(out_dir, str), "out_dir", "must be a path string")
        reads = [key for stage in stages for key in _READS[stage]]
        analysis_cfg = _object(raw.get("analysis", {}), "analysis", reads, f"no stage of a {kind} run reads it")
        # only _solve reads these: a kind without it takes each only empty or as it echoes it
        solver = {"stop": asdict(StopRule()), "algorithm": {}, "certificates": []}
        for key, echo in solver.items():
            given = raw.get(key, echo)
            _require(_solve in stages or given in (echo, type(echo)()), key, f"a {kind} run has no solver to read it")
            solver[key] = given if _solve in stages else echo
        cfg = cls(kind, operator, seed, tolerance, out_dir, analysis=analysis_cfg, **solver)
        cfg.entry = entry
        cfg.runs = {stage: stage(cfg, entry) for stage in stages}
        cfg.resolved = {name: getattr(cfg, name) for name in names}
        return cfg


@dataclass(eq=False, repr=False)
class RunReport:
    manifest: dict
    verdicts: dict
    timings: dict  # informational only; never written to artifacts

    @property
    def any_verdict_failed(self) -> bool:
        return bool(self.verdicts.get("failed"))


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Execute the configured experiment and write its artifacts.

    Every produced file is listed in the report manifest with its content
    digest; rerunning an identical configuration reproduces identical bytes.
    """
    out = Path(out_dir if out_dir is not None else (cfg.out_dir or "out"))
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {}
    verdicts: dict = {"failed": False}
    t0 = time.perf_counter()

    def emit(name: str, writer) -> None:
        path = out / name
        writer(path)
        manifest[name] = serialize.sha256_file(path)

    made = {stage: run(emit, verdicts) for stage, run in cfg.runs.items()}
    trace, curve = made.get(_solve), made.get(_modulus)
    if trace is not None:
        from . import certify
        dv = certify.distance_trace(trace, cfg.entry.solution_set, cfg.tolerance, modulus=curve)
        emit("trace.csv", lambda p: serialize.trace_to_csv(trace, p, distances=dv.distances))
        if curve is not None:
            emit("distance.json", lambda p: serialize.write_json(p, dv.to_json_dict()))
            verdicts["distance"] = dv.to_json_dict()
            if (not dv.converged and not trace.diverged) or not dv.link_ok:
                verdicts["failed"] = True

    timings = {"total_s": time.perf_counter() - t0}
    serialize.write_json(out / "report.json", {"config": cfg.resolved, "manifest": manifest, "verdicts": verdicts})
    return RunReport(manifest=manifest, verdicts=verdicts, timings=timings)


# -- command line -------------------------------------------------------------

def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError("--set", f"expected path=value, got {assignment!r}")
    path, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = path.split(".")
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(path, "path runs through a non-object value")
    node[keys[-1]] = value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rcontinuity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, (name, _) in _KINDS.items():
        p = sub.add_parser(name)
        p.set_defaults(kind=kind)
        p.add_argument("--config", type=Path, help="JSON configuration file")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE", help="override a config field")
    sub.add_parser("catalog").add_argument("--out", type=Path, help="output directory")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            listing = catalog.catalog_listing()
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                serialize.write_json(args.out / "catalog.json", listing)
            print(json.dumps(listing, indent=2, sort_keys=True))
            return 0
        try:
            raw = json.loads(args.config.read_text(encoding="utf-8")) if args.config else {}
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ConfigError("--config", str(exc)) from None
        _require(isinstance(raw, dict), "--config", "configuration must be a JSON object")
        raw["kind"] = args.kind
        if args.seed is not None:
            raw["seed"] = args.seed
        for assignment in args.overrides:
            _apply_override(raw, assignment)
        cfg = ExperimentConfig.from_dict(raw)
        report = run_experiment(cfg, out_dir=args.out)
        print(json.dumps({"manifest": report.manifest, "verdicts": report.verdicts}, indent=2, sort_keys=True))
        print(f"elapsed: {report.timings['total_s']:.3f}s", file=sys.stderr)
        return 4 if report.any_verdict_failed else 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to a dedicated code
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
