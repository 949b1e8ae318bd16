"""Experiment harness.

A single JSON document describes an experiment; command-line flags may
override scalar fields with ``--set path.to.field=value``.  Each run writes
its artifacts into one output directory and reruns of the same configuration
produce byte-identical files (timings are reported on stderr only).

Exit codes: 0 success, 2 validation error, 3 runtime error, 4 a requested
certificate or verdict failed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from . import analysis, catalog, certify, serialize, solvers
from .geometry import PointSet, Window
from .setmap import MissingOracleError, OperatorEntry, ParamError

_KINDS = ("modulus", "lojasiewicz", "plk", "solve", "certify", "full-pipeline")

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


def _vector(value, path: str, dim: int) -> List[float]:
    items = value if isinstance(value, list) else [value]
    _require(len(items) == dim, path, f"must have dimension {dim}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(items)]


def _object(value, path: str, allowed) -> dict:
    """A copy of a JSON object whose keys are all among ``allowed``."""
    _require(isinstance(value, dict), path, "must be a JSON object")
    for key in value:
        _require(key in allowed, f"{path}.{key}" if path else key or repr(key), "unknown field")
    return dict(value)


def _radii_list(spec, path: str) -> List[float]:
    if isinstance(spec, dict):
        keys = ("start", "stop", "count")
        _object(spec, path, keys)
        for key in keys:
            _require(key in spec, f"{path}.{key}", "missing")
        start = _positive(spec["start"], f"{path}.start")
        stop = _positive(spec["stop"], f"{path}.stop")
        count = _int(spec["count"], f"{path}.count", 2, _MAX_RADII)
        _require(stop > start, path, "needs stop > start")
        return [float(r) for r in np.geomspace(start, stop, count)]
    _require(isinstance(spec, list), path, "must be a list or {start, stop, count}")
    return [_number(r, f"{path}[{i}]") for i, r in enumerate(spec)]


#: The analysis defaults, read from the signatures of the estimators they feed.
_MODULUS, _LOJA, _PLK = ({key: p.default for key, p in inspect.signature(estimator).parameters.items()}
                         for estimator in (analysis.estimate_modulus, analysis.lojasiewicz_fit,
                                           analysis.check_plk_exponent))

#: The fields each config section may hold.  ``algorithm`` and a certificate
#: start from the union over all algorithms or hypotheses and are narrowed to
#: the named one when it is validated.
_STOP_FIELDS = fields(solvers.StopRule)
_ALGORITHM_FIELDS = {"name", "x0"}.union(*(spec.params for spec in solvers.ALGORITHMS.values()))
_ANALYSIS_FIELDS = ("target", "xbar", "radii", "samples_per_radius", "scheme", "window", "grid_count", "plk")
_PLK_FIELDS = fields(analysis.PlkConfig)
_WINDOW_FIELDS = [f.name for f in fields(Window)]
_CERTIFICATE_FIELDS = {"hypothesis"}.union(*(spec.params for spec in certify.HYPOTHESES.values()))


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


@dataclass
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
    resolved: dict = field(repr=False, default_factory=dict)
    #: The base value ``analysis.check_modulus`` evaluated; the modulus run measures against it.
    base_value: Optional[PointSet] = field(repr=False, compare=False, default=None)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        names = [f.name for f in fields(cls) if f.name not in ("resolved", "base_value")]
        _object(raw, "", names)
        kind = raw.get("kind")
        _require(kind in _KINDS, "kind", f"must be one of {', '.join(_KINDS)}")
        operator = raw.get("operator")
        _require(isinstance(operator, str) and operator, "operator", "must name a catalog entry")
        try:
            entry = catalog.catalog_lookup(operator)
        except catalog.CatalogError as exc:
            raise ConfigError("operator", str(exc)) from None
        seed = _int(raw.get("seed", 0), "seed", 0)
        tolerance = _number(raw.get("tolerance", 1e-6), "tolerance")
        _rule("", certify.check_distance, tolerance)
        out_dir = raw.get("out_dir")
        _require(out_dir is None or isinstance(out_dir, str), "out_dir", "must be a path string")

        stop_raw = _object(raw.get("stop", {}), "stop", [f.name for f in _STOP_FIELDS])
        stop = {f.name: _READ[f.type](stop_raw.get(f.name, f.default), f"stop.{f.name}") for f in _STOP_FIELDS}
        _rule("stop", solvers.StopRule, **stop)

        algorithm = _object(raw.get("algorithm", {}), "algorithm", _ALGORITHM_FIELDS)
        analysis_cfg = _object(raw.get("analysis", {}), "analysis", _ANALYSIS_FIELDS)
        requests = raw.get("certificates", [])
        _require(isinstance(requests, list), "certificates", "must be a list")
        certificates = [_object(c, f"certificates[{i}]", _CERTIFICATE_FIELDS) for i, c in enumerate(requests)]

        cfg = cls(kind, operator, seed, tolerance, out_dir, algorithm, analysis_cfg, stop, certificates)
        cfg._validate(entry)
        cfg.resolved = {name: getattr(cfg, name) for name in names}
        return cfg

    # -- validation ---------------------------------------------------------

    def _validate(self, entry: OperatorEntry) -> None:
        needs_solver = self.kind in ("solve", "certify", "full-pipeline")
        a, window = self.analysis, self._window()
        if needs_solver:
            self._validate_algorithm(entry)
        if self.kind in ("modulus", "full-pipeline"):
            self._validate_modulus(entry, window)
        if self.kind == "lojasiewicz":
            _int(a.setdefault("grid_count", _LOJA["grid_count"]), "analysis.grid_count", maximum=_MAX_SAMPLES)
            _rule("analysis", analysis.check_lojasiewicz, entry, window, a["grid_count"])
        if self.kind == "plk":
            _require("plk" in a, "analysis.plk", "missing PLK parameters")
            plk = _object(a["plk"], "analysis.plk", [f.name for f in _PLK_FIELDS])
            for f in _PLK_FIELDS:
                _READ[f.type](plk.get(f.name), f"analysis.plk.{f.name}")
            _rule("analysis.plk", analysis.PlkConfig, **plk)
            _vector(a.setdefault("xbar", [0.0] * entry.dim_in), "analysis.xbar", entry.dim_in)
            _int(a.setdefault("grid_count", _PLK["grid_count"]), "analysis.grid_count", maximum=_MAX_SAMPLES)
            _rule("analysis", analysis.check_plk, entry, a["grid_count"])
        if self.kind == "certify":
            _require(bool(self.certificates), "certificates", "at least one certificate is required")
        side = solvers.ALGORITHMS[self.algorithm["name"]].witness_side if needs_solver else None
        for i, cert in enumerate(self.certificates):
            path, hyp = f"certificates[{i}]", cert.get("hypothesis")
            _require(isinstance(hyp, str) and hyp in certify.HYPOTHESES, f"{path}.hypothesis",
                     f"must be one of {', '.join(certify.HYPOTHESES)}")
            keys = certify.HYPOTHESES[hyp].params
            _object(cert, path, ("hypothesis",) + keys)
            for key in keys:
                _require(key in cert, f"{path}.{key}", "missing")
                _number(cert[key], f"{path}.{key}")
            _rule(path, certify.check, hyp, side, **{key: cert[key] for key in keys})

    def _validate_algorithm(self, entry: OperatorEntry) -> None:
        alg = self.algorithm
        name = alg.get("name")
        _require(isinstance(name, str) and name in solvers.ALGORITHMS, "algorithm.name",
                 f"must be one of {', '.join(solvers.ALGORITHMS)}")
        spec = solvers.ALGORITHMS[name]
        _object(alg, "algorithm", ("name", "x0", *spec.params))
        _require(alg.get("x0") is not None, "algorithm.x0", "missing starting point")
        alg["x0"] = _vector(alg["x0"], "algorithm.x0", entry.dim_in)
        for key, param in spec.params.items():
            if param.default is not param.empty:
                alg.setdefault(key, param.default)
            _require(key in alg, f"algorithm.{key}", "missing")
            _READ[param.annotation](alg[key], f"algorithm.{key}")
        _rule("algorithm", solvers.check, name, entry, **{key: alg[key] for key in spec.params})

    def _modulus_map(self, entry: OperatorEntry):
        target = self.analysis.setdefault("target", "forward" if self.kind == "modulus" else "auto")
        if self.kind == "full-pipeline":
            # The curve must bound distances via the witnesses the solver
            # records, so it is estimated on the inverse of the witness map.
            side = solvers.ALGORITHMS[self.algorithm["name"]].witness_map
            m = entry.inverse if side == "forward" else entry.grad_inverse
            _require(m is not None, "operator", "no closed-form inverse of the witness map is registered")
            return m
        if target == "inverse":
            _require(entry.inverse is not None, "analysis.target", f"entry {entry.name!r} has no inverse")
            return entry.inverse
        _require(target == "forward", "analysis.target", "must be 'forward' or 'inverse'")
        return entry.forward

    def _validate_modulus(self, entry: OperatorEntry, window: Optional[Window]) -> None:
        m, a = self._modulus_map(entry), self.analysis
        _vector(a.setdefault("xbar", [0.0] * m.dim_in), "analysis.xbar", m.dim_in)
        a["radii"] = _radii_list(a.get("radii", {"start": 1e-4, "stop": 1e-1, "count": 13}), "analysis.radii")
        _int(a.setdefault("samples_per_radius", _MODULUS["samples_per_radius"]), "analysis.samples_per_radius",
             maximum=_MAX_SAMPLES)
        a.setdefault("scheme", _MODULUS["scheme"])
        self.base_value = _rule("analysis", analysis.check_modulus, m, a["xbar"], window, a["radii"],
                                a["samples_per_radius"], a["scheme"])

    def _window(self) -> Optional[Window]:
        raw = self.analysis.get("window")
        if raw is None:
            return None
        _object(raw, "analysis.window", _WINDOW_FIELDS)
        try:
            return Window.from_dict(raw)
        except Exception as exc:
            raise ConfigError("analysis.window", str(exc)) from None


@dataclass
class RunReport:
    config: dict
    manifest: dict
    verdicts: dict
    timings: dict  # informational only; never written to artifacts

    @property
    def any_verdict_failed(self) -> bool:
        return bool(self.verdicts.get("failed"))


def _run_algorithm(entry: OperatorEntry, cfg: ExperimentConfig) -> solvers.IterateTrace:
    alg = cfg.algorithm
    spec = solvers.ALGORITHMS[alg["name"]]
    run = getattr(solvers, spec.runner)
    stop = solvers.StopRule(**cfg.stop)
    return run(entry, x0=alg["x0"], stop=stop, **{key: alg[key] for key in spec.params})


def _run_certificate(trace: solvers.IterateTrace, entry: OperatorEntry, request: dict) -> certify.Certificate:
    spec = certify.HYPOTHESES[request["hypothesis"]]
    run = getattr(certify, spec.check)
    params = {key: request[key] for key in spec.params}
    return run(trace, entry, **params) if spec.takes_entry else run(trace, **params)


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Execute the configured experiment and write its artifacts.

    Every produced file is listed in the report manifest with its content
    digest; rerunning an identical configuration reproduces identical bytes.
    """
    out = Path(out_dir if out_dir is not None else (cfg.out_dir or "out"))
    out.mkdir(parents=True, exist_ok=True)
    entry = catalog.catalog_lookup(cfg.operator)
    manifest: dict = {}
    verdicts: dict = {"failed": False}
    timings: dict = {}
    t0 = time.perf_counter()

    def emit(name: str, writer) -> None:
        path = out / name
        writer(path)
        manifest[name] = serialize.sha256_file(path)

    a = cfg.analysis
    if cfg.kind in ("modulus", "full-pipeline"):
        # estimate_modulus without its check, which validation made: A(xbar) is evaluated once
        curve = analysis._modulus_curve(cfg._modulus_map(entry), a["xbar"], cfg._window(), a["radii"],
                                        a["samples_per_radius"], cfg.seed, a["scheme"], cfg.base_value)
        emit("modulus.csv", lambda p: serialize.modulus_to_csv(curve, p))
        if curve.divergent:
            fit_dict = {"L_hat": None, "theta_hat": None, "residual": None,
                        "degenerate": None, "divergent": True}
        else:
            fit_dict = analysis.fit_holder(curve).to_json_dict()
            fit_dict["divergent"] = False
        emit("holder_fit.json", lambda p: serialize.write_json(p, fit_dict))
        verdicts["holder_fit"] = fit_dict
    else:
        curve = None

    if cfg.kind == "lojasiewicz":
        fit = analysis.lojasiewicz_fit(entry, cfg._window(), grid_count=a["grid_count"])
        emit("loja_fit.json", lambda p: serialize.write_json(p, fit.to_json_dict()))
        verdicts["lojasiewicz"] = fit.to_json_dict()

    if cfg.kind == "plk":
        result = analysis.check_plk_exponent(entry, a["xbar"], analysis.PlkConfig(**a["plk"]),
                                             grid_count=a["grid_count"])
        emit("plk.json", lambda p: serialize.write_json(p, result.to_json_dict()))
        verdicts["plk"] = result.verdict
        if result.verdict == "fail":
            verdicts["failed"] = True

    if cfg.kind in ("solve", "certify", "full-pipeline"):
        trace = _run_algorithm(entry, cfg)
        dv = certify.distance_trace(trace, entry.solution_set, cfg.tolerance, modulus=curve)
        emit("trace.csv", lambda p: serialize.trace_to_csv(trace, p, distances=dv.distances))
        verdicts["termination"] = trace.termination
        if trace.diverged:
            verdicts["diverged"] = True

        if cfg.certificates:
            certs = [_run_certificate(trace, entry, req) for req in cfg.certificates]
            records = [c.to_json_dict() for c in certs]
            emit("certificates.json", lambda p: serialize.write_json(p, records))
            verdicts["certificates"] = records
            if any(not c.passed for c in certs):
                verdicts["failed"] = True

        if cfg.kind == "full-pipeline":
            emit("distance.json", lambda p: serialize.write_json(p, dv.to_json_dict()))
            verdicts["distance"] = dv.to_json_dict()
            if (not dv.converged and not trace.diverged) or not dv.link_ok:
                verdicts["failed"] = True

    timings["total_s"] = time.perf_counter() - t0
    report = RunReport(config=cfg.resolved, manifest=manifest, verdicts=verdicts, timings=timings)
    serialize.write_json(out / "report.json", {
        "config": report.config,
        "manifest": report.manifest,
        "verdicts": report.verdicts,
    })
    return report


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


_SUBCOMMAND_KIND = {
    "modulus": "modulus",
    "loja": "lojasiewicz",
    "plk": "plk",
    "solve": "solve",
    "certify": "certify",
    "pipeline": "full-pipeline",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rcontinuity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name)
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
        raw: dict = {}
        if args.config:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            _require(isinstance(raw, dict), "--config", "configuration must be a JSON object")
        raw["kind"] = _SUBCOMMAND_KIND[args.command]
        if args.seed is not None:
            raw["seed"] = args.seed
        for assignment in args.overrides:
            _apply_override(raw, assignment)
        cfg = ExperimentConfig.from_dict(raw)
        report = run_experiment(cfg, out_dir=args.out)
        print(json.dumps({"manifest": report.manifest, "verdicts": report.verdicts},
                         indent=2, sort_keys=True))
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
