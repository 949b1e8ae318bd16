import argparse
import functools
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcontinuity import (PlkConfig, StopRule, Window, analysis, catalog, catalog_listing, catalog_lookup, catalog_names,
                         check_h1, check_h2, check_h3, check_h4, check_plk_exponent, check_rclass, distance_trace,
                         estimate_modulus, lojasiewicz_fit, run_dca, run_gdm, run_ppa, run_qpower_prox,
                         run_shifted_ppa, solvers)
from rcontinuity.cli import _KINDS, _READS, ConfigError, ExperimentConfig, _build_parser, main, run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"


def pipeline_config(out=None):
    return {
        "kind": "full-pipeline",
        "operator": "abs-subdiff",
        "algorithm": {"name": "ppa", "gamma": 0.3, "x0": [1.0]},
        "analysis": {
            "window": {"kind": "box", "center": [0.0], "extent": [10.0]},
            "radii": list(np.geomspace(0.01, 1.0, 9)) + [2.0],
            "samples_per_radius": 65,
        },
        "certificates": [
            {"hypothesis": "H1", "alpha": 1.0 / 0.6},
            {"hypothesis": "H2", "beta": 1.0 / 0.3},
        ],
        "out_dir": out,
    }


_GDM = 'algorithm={"name": "gdm", "step": 0.5, "x0": [1.0]}'
_SOLVE = ["solve", "--set", "operator=quad", "--set", _GDM]
_QPOWER = 'algorithm={"name": "qpower", "gamma": 1.0, "q": 1.5, "x0": %s}'
_RADII = 'analysis.radii={"start": 0.01, "stop": 0.1, "count": 2.5}'
_WINDOW_1D = 'analysis.window={"kind": "box", "center": [0.0], "extent": [1.0]}'
_LOJA = ["loja", "--set", "operator=square", "--set", _WINDOW_1D]
_PLK = 'analysis.plk={"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1.0, "m": 1.0}'
_CERTIFY = ["certify", "--set", "operator=quad", "--set", _GDM]
_PLK_1 = {"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1.0}
_CERTIFICATES = 'certificates=[{"hypothesis": "H1", "alpha": 1}]'
_MODULUS = ["modulus", "--set", "operator=square", "--set", "analysis.samples_per_radius=4"]
_INVERSE = ["modulus", "--set", "operator=square", "--set", "analysis.target=inverse", "--set"]
_HUGE_WINDOW = 'analysis.window={"kind": "box", "center": [0.0], "extent": [1e308]}'


def _rejected(name, argv, path, config=None):
    """An input the CLI must refuse with exit 2, naming ``path``; ``config``
    is the text (or the bytes) of a config file passed with ``--config``."""
    return pytest.param(config, argv, path, id=name)


REJECTED = [
    _rejected("seed-string", _SOLVE + ["--set", "seed=abc"], "seed"),
    _rejected("seed-negative", _SOLVE + ["--set", "seed=-1"], "seed"),
    _rejected("max_iter-string", _SOLVE + ["--set", "stop.max_iter=1.5x"], "stop.max_iter"),
    _rejected("max_iter-bool", _SOLVE + ["--set", "stop.max_iter=true"], "stop.max_iter"),
    _rejected("max_iter-fraction", _SOLVE + ["--set", "stop.max_iter=2.5"], "stop.max_iter"),
    _rejected("x0-string", _SOLVE + ["--set", 'algorithm.x0=["a"]'], "algorithm.x0[0]"),
    _rejected("tolerance-infinite", _SOLVE + ["--set", "tolerance=Infinity"], "tolerance"),
    _rejected("step-overflow", _SOLVE + ["--set", "algorithm.step=1e400"], "algorithm.step"),
    _rejected("stop-not-object", _SOLVE + ["--set", "stop=[1]"], "stop"),
    _rejected("config-list", ["solve"], "--config", config="[1, 2]"),
    _rejected("config-not-json", ["solve"], "--config", config='{"operator": "quad",'),
    _rejected("config-not-utf8", ["solve"], "--config", config='{"operator": "quad\xe9"}'.encode("latin-1")),
    _rejected("qpower-quad2-q", ["solve", "--set", "operator=quad2", "--set", _QPOWER % "[1.0, 1.0]"],
              "algorithm.q"),
    _rejected("qpower-missing-q", ["solve", "--set", "operator=square", "--set",
                                   'algorithm={"name": "qpower", "gamma": 1.0, "x0": [1.0]}'], "algorithm.q"),
    _rejected("qpower-rm1", ["solve", "--set", "operator=rm1", "--set", _QPOWER % "[1.0]"], "algorithm.name"),
    _rejected("radii-count-fraction", ["modulus", "--set", "operator=square", "--set", _RADII],
              "analysis.radii.count"),
    _rejected("radii-count-huge", ["modulus", "--set", "operator=square", "--set",
                                   'analysis.radii={"start": 1e-4, "stop": 0.1, "count": 10000000000}'],
              "analysis.radii.count"),
    # np.geomspace repeats a radius when start and stop are one ulp apart
    _rejected("radii-expansion-repeats", ["modulus", "--set", "operator=square", "--set", "analysis.target=inverse",
                                          "--set", 'analysis.radii={"start": 1.0, "stop": 1.0000000000000002, '
                                                   '"count": 100}'], "analysis.radii"),
    _rejected("samples-bool", ["modulus", "--set", "operator=square", "--set", "analysis.samples_per_radius=true"],
              "analysis.samples_per_radius"),
    _rejected("samples-huge", ["modulus", "--set", "operator=square", "--set", "analysis.target=inverse", "--set",
                               "analysis.samples_per_radius=1000000000000"], "analysis.samples_per_radius"),
    _rejected("window-dimension", ["modulus", "--set", "operator=quad2", "--set", _WINDOW_1D], "analysis.window"),
    _rejected("grid_count-fraction", _LOJA + ["--set", "analysis.grid_count=10.5"], "analysis.grid_count"),
    _rejected("grid_count-huge", _LOJA + ["--set", "analysis.grid_count=1000000000000"], "analysis.grid_count"),
    _rejected("unknown-top-level", _SOLVE + ["--set", "tolerence=5"], "tolerence"),
    _rejected("unknown-stop", _SOLVE + ["--set", "stop.max_iters=5"], "stop.max_iters"),
    _rejected("unknown-algorithm", _SOLVE + ["--set", "algorithm.stpe=3"], "algorithm.stpe"),
    _rejected("other-algorithm-param", _SOLVE + ["--set", "algorithm.gamma=1.0"], "algorithm.gamma"),
    _rejected("unknown-analysis", ["modulus", "--set", "operator=square", "--set", "analysis.sample_per_radius=8"],
              "analysis.sample_per_radius"),
    _rejected("unknown-radii", ["modulus", "--set", "operator=square", "--set", "analysis.radii.step=2"],
              "analysis.radii.step"),
    _rejected("unknown-plk", ["plk", "--set", "operator=square", "--set", _PLK], "analysis.plk.m"),
    _rejected("unknown-window", _LOJA + ["--set", "analysis.window.radius=1.0"], "analysis.window.radius"),
    _rejected("window-without-kind", _INVERSE + ['analysis.window={"center": [0.0], "extent": [1.0]}'],
              "analysis.window.kind"),
    _rejected("window-without-center", _INVERSE + ['analysis.window={"kind": "box", "extent": [1.0]}'],
              "analysis.window.center"),
    _rejected("window-without-extent", _INVERSE + ['analysis.window={"kind": "box", "center": [0.0]}'],
              "analysis.window.extent"),
    # a window's kind, center and extent are read before the window is built, each by its path
    _rejected("window-center-string", _INVERSE + ['analysis.window={"kind": "box", "center": "a", "extent": [1.0]}'],
              "analysis.window.center[0]"),
    _rejected("window-kind-unknown", _INVERSE + ['analysis.window={"kind": "boxx", "center": [0.0], "extent": [1.0]}'],
              "analysis.window.kind"),
    _rejected("window-center-empty", _INVERSE + ['analysis.window={"kind": "box", "center": [], "extent": [1.0]}'],
              "analysis.window.center"),
    _rejected("window-extent-string", _INVERSE + ['analysis.window={"kind": "box", "center": [0.0], "extent": "a"}'],
              "analysis.window.extent[0]"),
    _rejected("window-center-bool", _INVERSE + ['analysis.window={"kind": "box", "center": [true], "extent": [1.0]}'],
              "analysis.window.center[0]"),
    _rejected("window-extent-bool", _INVERSE + ['analysis.window={"kind": "box", "center": [0.0], "extent": [true]}'],
              "analysis.window.extent[0]"),
    _rejected("unknown-certificate", _CERTIFY + ["--set", 'certificates=[{"hypothesis": "H4", "beta": 2.0}]'],
              "certificates[0].beta"),
    _rejected("other-hypothesis-param", _CERTIFY + ["--set", 'certificates=[{"hypothesis": "H1", "beta": 2.0}]'],
              "certificates[0].beta"),
    # GDM's witnesses attach to the current iterate, PPA's to the next one
    _rejected("h2-after-gdm", _CERTIFY + ["--set", 'certificates=[{"hypothesis": "H2", "beta": 2.0}]'],
              "certificates[0].hypothesis"),
    _rejected("h3-after-ppa", ["certify", "--set", "operator=quad", "--set",
                               'algorithm={"name": "ppa", "gamma": 0.5, "x0": [1.0]}',
                               "--set", 'certificates=[{"hypothesis": "H3", "beta": 2.0}]'],
              "certificates[0].hypothesis"),
    # a ball's extent is its one radius: a second entry would be dropped
    _rejected("ball-window-two-extents", ["loja", "--set", "operator=quad2", "--set",
                                          'analysis.window={"kind": "ball", "center": [0.5, -0.5], '
                                          '"extent": [1.0, 7.0]}'], "analysis.window"),
    _rejected("loja-window-misses-zeros", ["loja", "--set", "operator=square", "--set",
                                           'analysis.window={"kind": "box", "center": [5.0], "extent": [1.0]}'],
              "analysis.window"),
    # only a solver's trace has steps to certify
    _rejected("certificates-in-modulus", ["modulus", "--set", "operator=square", "--set", "analysis.target=inverse",
                                          "--set", _CERTIFICATES], "certificates"),
    _rejected("certificates-in-loja", _LOJA + ["--set", _CERTIFICATES], "certificates"),
    _rejected("certificates-in-plk", ["plk", "--set", "operator=square", "--set", f"analysis.plk={json.dumps(_PLK_1)}",
                                      "--set", _CERTIFICATES], "certificates"),
    # the pipeline's curve is always on the inverse of its algorithm's witness map
    _rejected("pipeline-target", ["pipeline", "--set", "operator=quad", "--set", _GDM,
                                  "--set", "analysis.target=bogus"], "analysis.target"),
    _rejected("pipeline-target-forward", ["pipeline", "--set", "operator=quad", "--set", _GDM,
                                          "--set", "analysis.target=forward"], "analysis.target"),
    _rejected("window-malformed-in-solve", _SOLVE + ["--set", 'analysis.window={"kind": "box"}'], "analysis.window"),
    _rejected("modulus-empty-base-value", ["modulus", "--set", "operator=square", "--set", "analysis.target=inverse",
                                           "--set", "analysis.xbar=[-1.0]"], "analysis.xbar"),
    _rejected("tolerance-zero", _SOLVE + ["--set", "tolerance=0"], "tolerance"),
    _rejected("tolerance-zero-in-modulus", ["modulus", "--set", "operator=square", "--set", "tolerance=-1"],
              "tolerance"),
    _rejected("grid_count-zero", _LOJA + ["--set", "analysis.grid_count=0"], "analysis.grid_count"),
    _rejected("plk-grid_count-zero", ["plk", "--set", "operator=square", "--set", f"analysis.plk={json.dumps(_PLK_1)}",
                                      "--set", "analysis.grid_count=0"], "analysis.grid_count"),
    # 1 + 1e-300 rounds to 1, a zero of double-well: every grid point is a solution
    _rejected("loja-grid-in-solution-set", ["loja", "--set", "operator=double-well", "--set",
                                            'analysis.window={"kind": "box", "center": [1.0], "extent": [1e-300]}'],
              "analysis.window"),
    # a kind accepts only the fields its stages read, and the solver's sections
    # only where a solver runs, else empty or as they are echoed
    _rejected("algorithm-in-modulus", _MODULUS + ["--set", 'algorithm={"name": "ppa"}'], "algorithm"),
    _rejected("stop-in-modulus", _MODULUS + ["--set", "stop.max_iter=7"], "stop"),
    _rejected("grid_count-in-modulus", _MODULUS + ["--set", "analysis.grid_count=5"], "analysis.grid_count"),
    _rejected("plk-in-modulus", _MODULUS + ["--set", "analysis.plk={}"], "analysis.plk"),
    _rejected("target-in-loja", _LOJA + ["--set", "analysis.target=bogus"], "analysis.target"),
    _rejected("samples-in-loja", _LOJA + ["--set", "analysis.samples_per_radius=-3"], "analysis.samples_per_radius"),
    _rejected("window-in-plk", ["plk", "--set", "operator=square", "--set", f"analysis.plk={json.dumps(_PLK_1)}",
                                "--set", _WINDOW_1D], "analysis.window"),
    _rejected("xbar-in-solve", _SOLVE + ["--set", "analysis.xbar=[0.0]"], "analysis.xbar"),
    _rejected("set-without-value", _SOLVE + ["--set", "operator"], "--set"),
    _rejected("set-through-a-number", _SOLVE + ["--set", "algorithm=3", "--set", "algorithm.x0=1"], "algorithm.x0"),
    _rejected("radii-negative", _MODULUS + ["--set", "analysis.radii=[0.1, -0.2]"], "analysis.radii[1]"),
    _rejected("step-condition-unknown", ["solve", "--set", "operator=quad", "--set",
                                         'algorithm={"name": "shifted-ppa", "kappa": 0.25, "gamma": 1.0, '
                                         '"x0": [1.0], "step_condition": "other"}'], "algorithm.step_condition"),
    _rejected("plk-missing-field", ["plk", "--set", "operator=square", "--set",
                                    'analysis.plk={"M": 2.0, "q_exp": 0.5, "eta": 1.0}'],
              "analysis.plk.neighborhood_radius"),
    # values past the float range, refused before they overflow in a run
    _rejected("modulus-base-value-overflows", _MODULUS + ["--set", "analysis.xbar=[1e200]"], "analysis.xbar"),
    _rejected("modulus-double-well-base-value-overflows", ["modulus", "--set", "operator=double-well", "--set",
                                                           "analysis.xbar=[1e100]"], "analysis.xbar"),
    _rejected("modulus-quad2-base-value-overflows", ["modulus", "--set", "operator=quad2", "--set",
                                                     "analysis.xbar=[1e308, 1e308]"], "analysis.xbar"),
    _rejected("modulus-sample-ball-overflows", _INVERSE + ["analysis.xbar=[1e308]", "--set",
                                                           "analysis.radii=[1e308, 1.7e308]"], "analysis.radii"),
    _rejected("modulus-base-window-overflows", ["modulus", "--set", "operator=rm1", "--set", "analysis.xbar=[1.0]",
                                                "--set", _HUGE_WINDOW], "analysis.window"),
    _rejected("pipeline-base-window-overflows", ["pipeline", "--set", "operator=abs-subdiff", "--set",
                                                 'algorithm={"name": "ppa", "gamma": 0.3, "x0": [1.0]}',
                                                 "--set", _HUGE_WINDOW], "analysis.window"),
    _rejected("loja-window-corner-overflows", ["loja", "--set", "operator=square", "--set",
                                               'analysis.window={"kind": "box", "center": [1e308], '
                                               '"extent": [1e308]}'], "analysis.window"),
    _rejected("plk-ball-overflows", ["plk", "--set", "operator=square", "--set",
                                     'analysis.plk={"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1e308}',
                                     "--set", "analysis.xbar=[1e308]"], "analysis.xbar"),
]


# Random config documents: known field names with random values, plus random
# keys.  Most draws are plausible (a known name, a small positive number, an
# object of known fields, no extra key), so that many documents get past the
# first checks.
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)


def _mostly(plausible, noise=_JSON):
    return st.one_of(plausible, plausible, plausible, noise)


_NUMBER = _mostly(st.integers(1, 3) | st.floats(0.01, 10.0))
_VECTOR = _mostly(st.lists(_NUMBER, min_size=1, max_size=3))


def _one_of(*names):
    return st.sampled_from(names * 3 + (None, 0, "?"))


def _section(required=(), **fields):
    """An object holding the ``required`` fields, some of the other
    ``fields`` and perhaps one random key."""
    known = st.fixed_dictionaries({k: fields.pop(k) for k in required}, optional=fields)
    extra = _mostly(st.just({}), st.dictionaries(st.text(max_size=6), _JSON, min_size=1, max_size=1))
    return st.tuples(known, extra).map(lambda pair: {**pair[1], **pair[0]})


_CONFIGS = _section(
    ("kind", "operator"),
    kind=_one_of("modulus", "lojasiewicz", "plk", "solve", "certify", "full-pipeline"),
    operator=_one_of(*catalog_names()),
    seed=_NUMBER,
    tolerance=_NUMBER,
    out_dir=_one_of(None, "out"),
    stop=_mostly(_section(step_tol=_NUMBER, max_iter=_NUMBER, divergence_guard=_NUMBER)),
    algorithm=_mostly(_section(
        ("name", "x0"), name=_one_of("ppa", "gdm", "qpower", "dca", "shifted-ppa"), x0=_VECTOR,
        gamma=_NUMBER, step=_NUMBER, q=_NUMBER, kappa=_NUMBER, step_condition=_one_of("derived", "reciprocal"))),
    analysis=_mostly(_section(
        target=_one_of("forward", "inverse"), xbar=_VECTOR,
        radii=_mostly(_section(start=_NUMBER, stop=_NUMBER, count=_NUMBER), st.lists(_NUMBER)),
        samples_per_radius=_NUMBER, scheme=_one_of("grid", "halton"), grid_count=_NUMBER,
        window=_mostly(_section(kind=_one_of("box", "ball"), center=_VECTOR, extent=_VECTOR)),
        plk=_mostly(_section(M=_NUMBER, q_exp=_NUMBER, eta=_NUMBER, neighborhood_radius=_NUMBER)))),
    certificates=_mostly(st.lists(_mostly(_section(
        ("hypothesis",), hypothesis=_one_of("H1", "H2", "H3", "H4", "RCLASS"), alpha=_NUMBER, beta=_NUMBER)),
        max_size=2)),
)


#: Each algorithm's runner and its numeric parameters.
_RUNNERS = {
    "ppa": (run_ppa, ("gamma",)),
    "gdm": (run_gdm, ("step",)),
    "qpower": (run_qpower_prox, ("gamma", "q")),
    "dca": (run_dca, ("gamma",)),
    "shifted-ppa": (run_shifted_ppa, ("kappa", "gamma")),
}


class _FirstStep(Exception):
    """Raised in place of a runner's first step."""


#: An operator every algorithm runs on, with a scalar function for H1 and H4,
#: and parameters each algorithm accepts there.
_EVERY_ALGORITHM = "dc-quad"
_ACCEPTED = {"ppa": {"gamma": 0.5}, "gdm": {"step": 0.5}, "qpower": {"gamma": 1.0, "q": 2.0},
             "dca": {"gamma": 0.5}, "shifted-ppa": {"kappa": 0.25, "gamma": 1.0}}
#: Each hypothesis's check, called as the library documents it, and its parameters.
_CERTIFICATE_CHECKS = {
    "H1": (lambda trace, entry, p: check_h1(trace, p["alpha"]), ("alpha",)),
    "H2": (lambda trace, entry, p: check_h2(trace, p["beta"]), ("beta",)),
    "H3": (lambda trace, entry, p: check_h3(trace, p["beta"]), ("beta",)),
    "H4": (lambda trace, entry, p: check_h4(trace, entry), ()),
    "RCLASS": (lambda trace, entry, p: check_rclass(trace, p["alpha"], p["beta"]), ("alpha", "beta")),
}
_STOP_5 = {"max_iter": 5}


@functools.lru_cache(maxsize=None)
def _short_trace(name):
    run, _ = _RUNNERS[name]
    return run(catalog_lookup(_EVERY_ALGORITHM), x0=[1.0], stop=StopRule(**_STOP_5), **_ACCEPTED[name])


def _strict_json(text):
    """``json.loads`` that raises on ``NaN``, ``Infinity`` and ``-Infinity``."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestValidation:
    @pytest.mark.parametrize("config, argv, path", REJECTED)
    def test_rejected_input_exits_2_naming_the_field(self, config, argv, path, tmp_path, capsys):
        if config is not None:
            (tmp_path / "cfg.json").write_bytes(config if isinstance(config, bytes) else config.encode())
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")
        assert not (tmp_path / "out").exists()

    def test_unknown_operator(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "solve", "operator": "nope",
                                        "algorithm": {"name": "ppa", "gamma": 1.0, "x0": [0.0]}})
        assert err.value.path == "operator"

    def test_rm1_modulus_without_window_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "modulus", "operator": "rm1"})
        assert err.value.path == "analysis.window"

    def test_bad_gamma_path(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "solve", "operator": "quad",
                                        "algorithm": {"name": "ppa", "gamma": -1.0, "x0": [0.0]}})
        assert err.value.path == "algorithm.gamma"

    def test_resolvent_range_checked_before_running(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "solve", "operator": "linear-neg",
                                        "algorithm": {"name": "ppa", "gamma": 0.5, "x0": [1.0]}})
        assert err.value.path == "algorithm.gamma"

    def test_certify_needs_certificates(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "certify", "operator": "quad",
                                        "algorithm": {"name": "ppa", "gamma": 1.0, "x0": [1.0]}})
        assert err.value.path == "certificates"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=_CONFIGS)
    def test_any_json_object_is_accepted_or_rejected_with_a_path(self, config):
        try:
            ExperimentConfig.from_dict(config)
        except ConfigError as exc:
            assert exc.path

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(operator=st.sampled_from(catalog_names()), name=st.sampled_from(sorted(_RUNNERS)),
           values=st.fixed_dictionaries({key: st.sampled_from([-1.0, 0.0, 1e-3, 0.5, 1.0, 2.0, 10.0])
                                         for key in ("gamma", "step", "q", "kappa")}),
           step_condition=st.sampled_from(["derived", "reciprocal"]))
    def test_the_cli_accepts_exactly_what_the_runners_accept(self, operator, name, values, step_condition):
        run, keys = _RUNNERS[name]
        params = {key: values[key] for key in keys}
        if name == "shifted-ppa":
            params["step_condition"] = step_condition
        entry = catalog_lookup(operator)
        x0 = [1.0] * entry.dim_in
        try:
            ExperimentConfig.from_dict({"kind": "solve", "operator": operator,
                                        "algorithm": {"name": name, "x0": x0, **params}})
            path = None
        except ConfigError as exc:
            path = exc.path
        # the runner's checks are the ones made before its first step
        with mock.patch.object(solvers, "_iterate", side_effect=_FirstStep):
            try:
                run(entry, x0=x0, stop=StopRule(max_iter=1), **params)
            except _FirstStep:
                runner_rejects = False
            except ValueError:
                runner_rejects = True
        assert (path is not None) == runner_rejects, (path, params)
        assert path is None or path in {"algorithm.name", *(f"algorithm.{key}" for key in params)}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hypothesis=st.sampled_from(sorted(_CERTIFICATE_CHECKS)), name=st.sampled_from(sorted(_ACCEPTED)),
           values=st.fixed_dictionaries({key: st.sampled_from([-1.0, 0.0, 1e-3, 0.5, 2.0])
                                         for key in ("alpha", "beta")}))
    def test_the_cli_accepts_exactly_what_the_certificates_accept(self, hypothesis, name, values):
        check, keys = _CERTIFICATE_CHECKS[hypothesis]
        params = {key: values[key] for key in keys}
        try:
            ExperimentConfig.from_dict({"kind": "certify", "operator": _EVERY_ALGORITHM, "stop": _STOP_5,
                                        "algorithm": {"name": name, "x0": [1.0], **_ACCEPTED[name]},
                                        "certificates": [{"hypothesis": hypothesis, **params}]})
            path = None
        except ConfigError as exc:
            path = exc.path
        try:
            check(_short_trace(name), catalog_lookup(_EVERY_ALGORITHM), params)
            check_rejects = False
        except ValueError:
            check_rejects = True
        assert (path is not None) == check_rejects, (path, params)
        nonpositive = {f"certificates[0].{key}" for key in keys if values[key] <= 0}
        assert path is None or path in nonpositive or (not nonpositive and path == "certificates[0].hypothesis")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values=st.fixed_dictionaries({key: st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
                                         for key in ("M", "q_exp", "eta", "neighborhood_radius")}))
    def test_the_cli_accepts_exactly_what_plk_config_accepts(self, values):
        try:
            ExperimentConfig.from_dict({"kind": "plk", "operator": "square", "analysis": {"plk": values}})
            path = None
        except ConfigError as exc:
            path = exc.path
        try:
            PlkConfig(**values)
            config_rejects = False
        except ValueError:
            config_rejects = True
        assert (path is not None) == config_rejects, (path, values)
        out_of_range = {key for key in ("M", "eta", "neighborhood_radius") if values[key] <= 0}
        out_of_range |= set() if 0 <= values["q_exp"] < 1 else {"q_exp"}
        assert path is None if not out_of_range else path in {f"analysis.plk.{key}" for key in out_of_range}

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(tolerance=st.sampled_from([-1.0, 0.0, 5e-324, 1e-6, 1.0]),
           kind=st.sampled_from(["modulus", "solve", "full-pipeline"]))
    def test_the_cli_accepts_exactly_what_the_distance_verdict_accepts(self, tolerance, kind):
        raw = {"kind": kind, "operator": "quad", "tolerance": tolerance,
               "algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]}}
        if kind == "modulus":
            del raw["algorithm"]
        try:
            ExperimentConfig.from_dict(raw)
            path = None
        except ConfigError as exc:
            path = exc.path
        trace = _short_trace("gdm")
        try:
            distance_trace(trace, catalog_lookup(_EVERY_ALGORITHM).solution_set, tolerance)
            verdict_rejects = False
        except ValueError:
            verdict_rejects = True
        assert (path is not None) == verdict_rejects, (path, tolerance)
        assert path in (None, "tolerance")

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(grid_count=st.sampled_from([-3, 0, 1, 2, 9]), kind=st.sampled_from(["lojasiewicz", "plk"]),
           operator=st.sampled_from(["square", "double-well", "rm1"]))
    def test_the_cli_accepts_exactly_what_the_grid_estimators_accept(self, grid_count, kind, operator):
        window = {"kind": "box", "center": [0.0], "extent": [1.0]}
        analysis_cfg = {"grid_count": grid_count, **({"window": window} if kind == "lojasiewicz" else {"plk": _PLK_1})}
        try:
            ExperimentConfig.from_dict({"kind": kind, "operator": operator, "analysis": analysis_cfg})
            path = None
        except ConfigError as exc:
            path = exc.path
        entry = catalog_lookup(operator)
        try:
            if kind == "lojasiewicz":
                lojasiewicz_fit(entry, Window.from_dict(window), grid_count)
            else:
                check_plk_exponent(entry, [0.0], PlkConfig(**_PLK_1), grid_count)
            estimator_rejects = False
        except ValueError as exc:
            estimator_rejects = True
            named = getattr(exc, "param", None)
        assert (path is not None) == estimator_rejects, (path, grid_count)
        if grid_count < 1:
            assert path == "analysis.grid_count" and named == "grid_count"
        elif path is not None:
            assert path in ("operator", f"analysis.{named}")

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(operator=st.sampled_from(["square", "abs-subdiff", "flat-exp", "double-well", "quad", "quad2"]),
           extent=st.floats(5e-324, 1.0, allow_subnormal=True) | st.sampled_from([5e-324, 1e-300, 1e-170, 1e-160]),
           grid_count=st.sampled_from([2, 9, 65]))
    def test_a_lojasiewicz_window_of_any_extent_fits_fails_or_is_rejected(self, operator, extent, grid_count):
        # f and the distances to the zero set underflow on small enough windows
        entry = catalog_lookup(operator)
        center = [float(v) for v in entry.solution_set.points[0]]
        window = {"kind": "box", "center": center, "extent": [extent] * entry.dim_in}
        try:
            cfg = ExperimentConfig.from_dict({"kind": "lojasiewicz", "operator": operator,
                                              "analysis": {"window": window, "grid_count": grid_count}})
        except ConfigError as exc:
            assert exc.path == "analysis.window"
            return
        with tempfile.TemporaryDirectory() as out:
            fit = run_experiment(cfg, out_dir=Path(out)).verdicts["lojasiewicz"]
        assert fit["failed"] or all(np.isfinite([fit["theta_hat"], fit["c_hat"]]))

    def test_a_lojasiewicz_fit_on_an_underflowing_function_fails(self, tmp_path, capsys):
        # exp(-1/x^2) reads 0 on the whole window, off the zero set {0} as well
        window = 'analysis.window={"kind": "box", "center": [0.0], "extent": [0.01]}'
        assert main(["loja", "--set", "operator=flat-exp", "--set", window, "--out", str(tmp_path)]) == 0
        fit = json.loads(capsys.readouterr().out)["verdicts"]["lojasiewicz"]
        assert fit["failed"] is True and fit["theta_hat"] is None and fit["level_exponents"] == []

    @pytest.mark.parametrize("extent", ["1e-300", "1e-170"])
    def test_a_lojasiewicz_fit_where_the_square_underflows_fails(self, extent, tmp_path, capsys):
        # x^2 reads 0 on the whole window, but the distances to {0} are |x| and
        # do not underflow, so the window is valid and the fit fails
        window = f'analysis.window={{"kind": "box", "center": [0.0], "extent": [{extent}]}}'
        assert main(["loja", "--set", "operator=square", "--set", window, "--out", str(tmp_path)]) == 0
        fit = json.loads(capsys.readouterr().out)["verdicts"]["lojasiewicz"]
        assert fit["failed"] is True and fit["theta_hat"] is None and fit["level_exponents"] == []

    def test_a_lojasiewicz_fit_below_the_square_underflow(self, tmp_path, capsys):
        # |x| on a window of 1e-200: its distances to {0} are |x| itself, so the
        # fit finds theta = 1, where a squaring norm read every distance as 0
        window = 'analysis.window={"kind": "box", "center": [0.0], "extent": [1e-200]}'
        assert main(["loja", "--set", "operator=abs-subdiff", "--set", window, "--out", str(tmp_path)]) == 0
        fit = json.loads(capsys.readouterr().out)["verdicts"]["lojasiewicz"]
        assert fit["failed"] is False and fit["theta_hat"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("operator, extent", [("square", [1e200]), ("quad2", [1.7e308, 1.7e308])])
    def test_a_lojasiewicz_fit_on_a_huge_window_writes_strict_json(self, operator, extent, tmp_path, capsys):
        # f overflows on most of the grid; such points join no band, as zeros of f do
        window = json.dumps({"kind": "box", "center": [0.0] * len(extent), "extent": extent})
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["loja", "--set", f"operator={operator}", "--set", f"analysis.window={window}",
                         "--out", str(tmp_path)])
        out = capsys.readouterr()
        if code == 2:
            assert "analysis.window" in out.err
            return
        assert code == 0
        fit = _strict_json(out.out)["verdicts"]["lojasiewicz"]
        assert fit == _strict_json((tmp_path / "loja_fit.json").read_text())
        assert fit["failed"] is True and fit["theta_hat"] is None and fit["level_exponents"] == []

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(operator=st.sampled_from(["square", "abs-subdiff", "flat-exp", "double-well", "quad", "quad2"]),
           extent=st.floats(1.0, 1.7e308) | st.sampled_from([1e150, 1.3e154, 1e155, 1e200, 1e300, 1.7e308]))
    def test_a_lojasiewicz_fit_on_a_window_of_any_size_writes_finite_numbers(self, operator, extent):
        entry = catalog_lookup(operator)
        center = [float(v) for v in entry.solution_set.points[0]]
        window = {"kind": "box", "center": center, "extent": [extent] * entry.dim_in}
        try:
            cfg = ExperimentConfig.from_dict({"kind": "lojasiewicz", "operator": operator,
                                              "analysis": {"window": window, "grid_count": 65}})
        except ConfigError as exc:
            assert exc.path == "analysis.window"
            return
        with tempfile.TemporaryDirectory() as out, np.errstate(over="ignore", invalid="ignore"):
            run_experiment(cfg, out_dir=Path(out))
            fit = _strict_json((Path(out) / "loja_fit.json").read_text())
        assert fit["failed"] or all(np.isfinite([fit["theta_hat"], fit["c_hat"], *fit["level_exponents"]]))

    def test_a_modulus_run_evaluates_the_base_value_once(self, tmp_path):
        for kind, extra in (("modulus", {"analysis": {"target": "inverse"}}),
                            ("full-pipeline", {"algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]}})):
            with mock.patch.object(analysis, "_base_value", wraps=analysis._base_value) as base_value:
                run_experiment(ExperimentConfig.from_dict({"kind": kind, "operator": "quad", **extra}),
                               out_dir=tmp_path / kind)
            assert base_value.call_count == 1, kind

    @pytest.mark.parametrize("kind, estimator, expected", [
        ("modulus", estimate_modulus, {"samples_per_radius": 64, "scheme": "grid"}),
        ("lojasiewicz", lojasiewicz_fit, {"grid_count": 2001}),
        ("plk", check_plk_exponent, {"grid_count": 257}),
    ])
    def test_analysis_defaults_are_the_estimators(self, kind, estimator, expected):
        analysis = {"modulus": {"target": "inverse"}, "lojasiewicz": {"window": {"kind": "box", "center": [0.0],
                                                                                 "extent": [1.0]}},
                    "plk": {"plk": _PLK_1}}[kind]
        echo = ExperimentConfig.from_dict({"kind": kind, "operator": "square", "analysis": analysis}).resolved
        signature = inspect.signature(estimator).parameters
        assert {key: echo["analysis"][key] for key in expected} == expected
        assert {key: signature[key].default for key in expected} == expected

    @pytest.mark.parametrize("key, value", [("max_iter", 0), ("step_tol", 0.0), ("divergence_guard", -1.0)])
    def test_stop_rule_out_of_range_names_the_field(self, key, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "solve", "operator": "quad", "stop": {key: value},
                                        "algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]}})
        assert err.value.path == f"stop.{key}"

    def test_stop_echo_keeps_its_types(self):
        cfg = ExperimentConfig.from_dict({"kind": "solve", "operator": "quad", "stop": {"step_tol": 1, "max_iter": 5.0},
                                          "algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]}})
        stop = cfg.resolved["stop"]
        assert stop == {"step_tol": 1.0, "max_iter": 5, "divergence_guard": 1e12}
        assert [type(v) for v in stop.values()] == [float, int, float]

    def test_defaults_are_resolved_into_the_echo(self):
        cfg = ExperimentConfig.from_dict(pipeline_config())
        assert cfg.resolved["stop"]["max_iter"] == 100_000
        assert cfg.resolved["analysis"]["scheme"] == "grid"


class TestRunExperiment:
    def test_pipeline_distance_column(self, tmp_out):
        cfg = ExperimentConfig.from_dict(pipeline_config())
        run_experiment(cfg, out_dir=tmp_out)
        rows = (tmp_out / "trace.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        dist_col = header.index("distance")
        distances = [float(r.split(",")[dist_col]) for r in rows[1:6]]
        assert distances == pytest.approx([1.0, 0.7, 0.4, 0.1, 0.0], abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = ExperimentConfig.from_dict(pipeline_config())
        cfg2 = ExperimentConfig.from_dict(pipeline_config())
        r1 = run_experiment(cfg1, out_dir=tmp_path / "a")
        r2 = run_experiment(cfg2, out_dir=tmp_path / "b")
        assert r1.manifest == r2.manifest
        for name in r1.manifest:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("kind", list(_KINDS))
    def test_config_round_trip(self, kind, tmp_path):
        raw = {"modulus": {"analysis": {"target": "inverse", "samples_per_radius": 16}},
               "lojasiewicz": {"analysis": {"window": {"kind": "box", "center": [0.0], "extent": [1.0]}}},
               "plk": {"analysis": {"plk": _PLK_1}},
               "solve": {"algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]}},
               "certify": {"algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]},
                           "certificates": [{"hypothesis": "H1", "alpha": 1.0}]},
               "full-pipeline": pipeline_config()}[kind]
        r1 = run_experiment(ExperimentConfig.from_dict({"kind": kind, "operator": "square", **raw}),
                            out_dir=tmp_path / "a")
        echoed = json.loads((tmp_path / "a" / "report.json").read_text())["config"]
        r2 = run_experiment(ExperimentConfig.from_dict(echoed), out_dir=tmp_path / "b")
        assert r1.manifest == r2.manifest
        if kind == "modulus":
            assert (echoed["stop"], echoed["algorithm"], echoed["certificates"]) == (asdict(StopRule()), {}, [])

    def test_manifest_digests_match_files(self, tmp_out):
        import hashlib
        cfg = ExperimentConfig.from_dict(pipeline_config())
        report = run_experiment(cfg, out_dir=tmp_out)
        for name, digest in report.manifest.items():
            assert hashlib.sha256((tmp_out / name).read_bytes()).hexdigest() == digest

    def test_writes_only_inside_out_dir(self, tmp_path):
        out = tmp_path / "only"
        cfg = ExperimentConfig.from_dict(pipeline_config())
        run_experiment(cfg, out_dir=out)
        produced = {p.name for p in out.iterdir()}
        assert set(cfg.resolved.keys()) is not None  # config untouched
        assert {p.name for p in tmp_path.iterdir()} == {"only"}
        assert "report.json" in produced

    def test_modulus_experiment_on_inverse_target(self, tmp_out):
        cfg = ExperimentConfig.from_dict({
            "kind": "modulus",
            "operator": "square",
            "analysis": {"target": "inverse",
                         "radii": {"start": 1e-4, "stop": 1e-1, "count": 13},
                         "samples_per_radius": 64},
        })
        report = run_experiment(cfg, out_dir=tmp_out)
        fit = report.verdicts["holder_fit"]
        assert 0.45 <= fit["theta_hat"] <= 0.55

    def test_lojasiewicz_experiment(self, tmp_out):
        cfg = ExperimentConfig.from_dict({
            "kind": "lojasiewicz",
            "operator": "square",
            "analysis": {"window": {"kind": "box", "center": [0.0], "extent": [1.0]}},
        })
        report = run_experiment(cfg, out_dir=tmp_out)
        assert report.verdicts["lojasiewicz"]["theta_hat"] == pytest.approx(2.0, abs=1e-6)

    def test_plk_experiment(self, tmp_out):
        cfg = ExperimentConfig.from_dict({
            "kind": "plk",
            "operator": "square",
            "analysis": {"plk": {"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1.0}},
        })
        report = run_experiment(cfg, out_dir=tmp_out)
        assert report.verdicts["plk"] == "pass"

    def test_solve_experiment_writes_trace(self, tmp_out):
        cfg = ExperimentConfig.from_dict({
            "kind": "solve",
            "operator": "quad",
            "algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]},
        })
        report = run_experiment(cfg, out_dir=tmp_out)
        assert "trace.csv" in report.manifest
        assert report.verdicts["termination"] == "tolerance"

    def test_overflowing_step_diverges_with_a_finite_trace(self, tmp_path, capsys):
        gdm = 'algorithm={"name": "gdm", "step": 1e300, "x0": [1e10]}'
        assert main(["solve", "--set", "operator=quad", "--set", gdm, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["diverged"] is True
        rows = (tmp_path / "trace.csv").read_text().strip().split("\n")
        cells = [float(c) for row in rows[1:] for c in row.split(",") if c]
        assert cells and np.isfinite(cells).all()

    @pytest.mark.parametrize("operator, algorithm", [
        # f = x^2/2 overflows in Python's ** while the run records f values
        ("quad", {"name": "gdm", "step": 0.5, "x0": [1e200]}),
        # the resolvent y / (1 - 2 gamma) overflows
        ("linear-neg", {"name": "ppa", "gamma": 0.4999, "x0": [1e305]}),
        # the resolvent's input x + gamma grad h(x) overflows
        ("dc-quad", {"name": "dca", "gamma": 1e300, "x0": [1e10]}),
        # the gradient 2v(v - 1)(2v - 1) overflows
        ("double-well", {"name": "gdm", "step": 0.01, "x0": [1e110]}),
        # the polish's penalty |u - c| ** 3 and the witness 4 delta ** 2 (x_1 - x_0) overflow
        ("linear-neg", {"name": "qpower", "gamma": 1.0, "q": 4, "x0": [1e103]}),
    ], ids=["gdm-f", "ppa-resolvent", "dca-input", "gdm-grad", "qpower-witness"])
    def test_overflow_inside_a_run_diverges(self, operator, algorithm, tmp_path, capsys):
        argv = ["solve", "--set", f"operator={operator}", "--set", f"algorithm={json.dumps(algorithm)}",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["diverged"] is True
        rows = [row.split(",") for row in (tmp_path / "trace.csv").read_text().strip().split("\n")]
        iterates = [float(row[rows[0].index("x0")]) for row in rows[1:]]
        assert iterates and np.isfinite(iterates).all()

    @pytest.mark.parametrize("operator, algorithm", [
        ("quad", '{"name":"gdm","step":0.5,"x0":[1e200]}'),  # the step norm squares past the float range
        ("dc-quad", '{"name":"dca","gamma":1e300,"x0":[1e10]}'),  # the resolvent's input overflows
        # the projection of x0 onto the solution set measures a norm that squares past the float range
        ("quad", '{"name":"shifted-ppa","kappa":0.1,"gamma":0.5,"x0":[1e200]}'),
        # the distance column measures 2-d iterates whose squares overflow
        ("quad2", '{"name":"ppa","gamma":0.5,"x0":[1e200,1e200]}'),
    ], ids=["gdm-norm", "dca-input", "shifted-ppa-project", "ppa-2d-distance"])
    def test_a_handled_overflow_prints_no_runtime_warning(self, operator, algorithm, tmp_path):
        # a fresh interpreter, so that numpy's warnings reach stderr as a user sees them
        argv = [sys.executable, "-m", "rcontinuity", "solve", "--set", f"operator={operator}",
                "--set", f"algorithm={algorithm}", "--out", str(tmp_path)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(README.parent / "src")})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdicts"]["diverged"] is True
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("operator, window", [
        # every band point sits at d = 5e-324, so log d has no spread to fit a slope on
        ("abs-subdiff", '{"kind":"box","center":[0.0],"extent":[5e-324]}'),
        # f = x'Qx/2 - b'x overflows on the grid; a non-finite f joins no band
        ("quad2", '{"kind":"box","center":[0.0,0.0],"extent":[1.7e308,1.7e308]}'),
    ], ids=["no-distance-spread", "f-overflow"])
    def test_a_handled_loja_extreme_prints_no_warning(self, operator, window, tmp_path):
        argv = [sys.executable, "-m", "rcontinuity", "loja", "--set", f"operator={operator}",
                "--set", f"analysis.window={window}", "--out", str(tmp_path)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(README.parent / "src")})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdicts"]["lojasiewicz"]["failed"] is True
        assert "Warning" not in proc.stderr

    def test_finite_step_past_the_dot_overflow_is_recorded(self, tmp_path, capsys):
        # ||1e200 - 5e199|| squares past the float range; the step is finite
        gdm = 'algorithm={"name": "gdm", "step": 0.5, "x0": [1e200]}'
        assert main(["solve", "--set", "operator=quad", "--set", gdm, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["termination"] == "divergence"
        rows = [row.split(",") for row in (tmp_path / "trace.csv").read_text().strip().split("\n")]
        header, rows = rows[0], rows[1:]
        assert [float(row[header.index("x0")]) for row in rows] == [1e200, 5e199]
        assert float(rows[0][header.index("delta")]) == 5e199

    def test_distance_column_past_the_dot_overflow_is_finite(self, tmp_path, capsys):
        # the squares of 1e200 and 5e199 overflow; their distances to {0} do not
        gdm = 'algorithm={"name": "gdm", "step": 0.5, "x0": [1e200]}'
        assert main(["solve", "--set", "operator=quad", "--set", gdm, "--out", str(tmp_path)]) == 0
        rows = [row.split(",") for row in (tmp_path / "trace.csv").read_text().strip().split("\n")]
        assert [row[rows[0].index("distance")] for row in rows[1:]] == ["1e+200", "5e+199"]

    @pytest.mark.parametrize("side, cert_request", [
        ("next", {"hypothesis": "H1", "alpha": 1.0}),
        ("next", {"hypothesis": "H2", "beta": 2.0}),
        ("current", {"hypothesis": "H3", "beta": 2.0}),
        ("current", {"hypothesis": "H4"}),
        ("current", {"hypothesis": "RCLASS", "alpha": 1.0, "beta": 2.0}),
    ], ids=["H1", "H2", "H3", "H4", "RCLASS"])
    def test_certificates_on_a_trace_without_steps_are_vacuous(self, side, cert_request, tmp_path, capsys):
        # each run's first step overflows, so its trace holds x0 and no witness
        algorithm = {"current": {"name": "gdm", "step": 1e300, "x0": [1e10]},
                     "next": {"name": "qpower", "gamma": 1.0, "q": 3, "x0": [1e160]}}[side]
        argv = ["certify", "--set", "operator=quad", "--set", f"algorithm={json.dumps(algorithm)}",
                "--set", f"certificates={json.dumps([cert_request])}", "--out", str(tmp_path)]
        assert main(argv) == 4
        [cert] = json.loads(capsys.readouterr().out)["verdicts"]["certificates"]
        assert cert["vacuous"] is True and cert["pass"] is False
        assert (tmp_path / "trace.csv").read_text().count("\n") == 2  # the header and x0

    def test_qpower_whose_f_overflows_diverges(self, tmp_path, capsys):
        # f(1e160) overflows, and with it the bracket of the scalar subproblem
        qpower = 'algorithm={"name": "qpower", "gamma": 1.0, "q": 3, "x0": [1e160]}'
        assert main(["solve", "--set", "operator=quad", "--set", qpower, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["termination"] == "divergence"

    @pytest.mark.parametrize("x0", ["1e250", "1e280", "1e290", "1e300"])
    def test_qpower_whose_polish_does_not_converge_keeps_the_unpolished_point(self, x0, tmp_path, capsys):
        # the stationarity root finder does not converge in 100 iterations on the first
        # subproblem; the step keeps the bounded minimizer's point, past the guard
        qpower = f'algorithm={{"name":"qpower","gamma":1.0,"q":1.5,"x0":[{x0}]}}'
        assert main(["solve", "--set", "operator=linear-neg", "--set", qpower, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["termination"] == "divergence"
        assert (tmp_path / "trace.csv").read_text().count("\n") == 3  # the header, x0 and x1

    def test_shifted_run_records_ledger_column(self, tmp_out):
        cfg = ExperimentConfig.from_dict({
            "kind": "solve",
            "operator": "linear-neg",
            "algorithm": {"name": "shifted-ppa", "gamma": 2.0, "kappa": 0.5, "x0": [1.0]},
        })
        run_experiment(cfg, out_dir=tmp_out)
        rows = (tmp_out / "trace.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        assert "fejer_ledger" in header
        first = float(rows[1].split(",")[header.index("fejer_ledger")])
        assert abs(first) < 1e-12


class TestCatalogListing:
    def test_contains_required_entries(self):
        names = {item["name"] for item in catalog_listing()}
        required = {"rm1", "flat-exp", "square", "double-well",
                    "abs-subdiff", "quad", "linear-neg", "dc-quad"}
        assert required <= names

    def test_flags(self):
        listing = {item["name"]: item for item in catalog_listing()}
        assert listing["rm1"]["window_required"] is True
        assert listing["linear-neg"]["oracles"]["prox"] is True
        assert listing["linear-neg"]["monotone"] is False


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(pipeline_config()))
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_validation_error_is_2(self, tmp_path, capsys):
        code = main(["modulus", "--set", "operator=rm1", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_verdict_failure_is_4(self, tmp_path, capsys):
        cfg = {
            "operator": "quad",
            "algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]},
            "certificates": [{"hypothesis": "H3", "beta": 1.5}],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 4

    def test_an_unconverged_pipeline_is_4(self, tmp_path, capsys):
        # 50 steps of 0.001 leave quad's iterate near 0.95: the distance verdict fails
        assert main(["pipeline", "--set", "operator=quad", "--set",
                     'algorithm={"name": "gdm", "step": 0.001, "x0": [1.0]}', "--set", "stop.max_iter=50",
                     "--out", str(tmp_path)]) == 4
        assert json.loads(capsys.readouterr().out)["verdicts"]["distance"]["converged"] is False

    @pytest.mark.parametrize("operator", ["square", "double-well"])
    def test_an_overflowing_modulus_value_gives_a_divergent_curve(self, operator, tmp_path, capsys):
        # the values at radii 1e200 and 1e300 overflow to inf, an unbounded excess
        assert main(["modulus", "--set", f"operator={operator}", "--set", "analysis.radii=[1e200, 1e300]",
                     "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "holder_fit.json").read_text()) == {
            "L_hat": None, "theta_hat": None, "residual": None, "degenerate": None, "divergent": True}
        assert (tmp_path / "modulus.csv").read_text() == "sigma,rho_hat,samples\n1e+200,inf,64\n1e+300,inf,64\n"

    def test_the_seed_flag_is_echoed(self, tmp_path, capsys):
        assert main(_SOLVE + ["--seed", "7", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["config"]["seed"] == 7

    @pytest.mark.parametrize("argv, message", [
        (["modulus", "--set", "operator=rm1", "--set", "analysis.target=inverse"],
         "analysis.target: entry 'rm1' has no inverse oracle"),
        (["pipeline", "--set", "operator=double-well", "--set",
          'algorithm={"name": "gdm", "step": 0.01, "x0": [2.0]}'],
         "operator: entry 'double-well' has no grad_inverse oracle"),
        (["plk", "--set", "operator=square", "--set", 'analysis.plk={"M": 2.0, "q_exp": 0.5, "eta": 1.0}'],
         "analysis.plk.neighborhood_radius: missing"),
    ], ids=["modulus-inverse", "pipeline-grad-inverse", "plk-field"])
    def test_what_is_missing_is_named_missing(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_catalog_subcommand(self, capsys):
        assert main(["catalog"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert any(item["name"] == "rm1" for item in out)

    @pytest.mark.parametrize("flags", [["--set", "operator=nope"], ["--seed", "5"], ["--config", "cfg.json"]],
                             ids=["set", "seed", "config"])
    def test_catalog_takes_only_out(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", *flags])
        assert exc.value.code == 2

    def test_set_override_parses_json_scalars(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(pipeline_config()))
        code = main([
            "pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--set", "algorithm.gamma=0.3", "--set", "tolerance=1e-6",
        ])
        assert code == 0

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_an_unreadable_config_exits_2(self, name, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / name), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: --config: ")


_H1 = '{"hypothesis": "H1", "alpha": 0.1}'
_MODULUS_4 = ["--set", "analysis.samples_per_radius=4"]


def _subcommands(parser):
    """The subcommands of an ``argparse`` parser, in order."""
    [sub] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return list(sub.choices)


class TestStageTable:
    """``cli._KINDS``: each subcommand's kind and stages, and what they write."""

    @pytest.mark.parametrize("argv, artifacts", [
        (["modulus", "--set", "operator=square", *_MODULUS_4], {"modulus.csv", "holder_fit.json"}),
        (_LOJA, {"loja_fit.json"}),
        (["plk", "--set", "operator=square", "--set", f"analysis.plk={json.dumps(_PLK_1)}"], {"plk.json"}),
        (_SOLVE, {"trace.csv"}),
        (_SOLVE + ["--set", f"certificates=[{_H1}]"], {"trace.csv", "certificates.json"}),
        (_CERTIFY + ["--set", f"certificates=[{_H1}]"], {"trace.csv", "certificates.json"}),
        (["pipeline", "--set", "operator=quad", "--set", _GDM, *_MODULUS_4],
         {"trace.csv", "modulus.csv", "holder_fit.json", "distance.json"}),
        (["pipeline", "--set", "operator=quad", "--set", _GDM, *_MODULUS_4, "--set", f"certificates=[{_H1}]"],
         {"trace.csv", "modulus.csv", "holder_fit.json", "certificates.json", "distance.json"}),
    ], ids=["modulus", "loja", "plk", "solve", "solve-certificates", "certify", "pipeline", "pipeline-certificates"])
    def test_each_kind_writes_exactly_its_artifacts(self, argv, artifacts, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) in (0, 4)
        assert set(json.loads(capsys.readouterr().out)["manifest"]) == artifacts
        assert {p.name for p in tmp_path.iterdir()} == artifacts | {"report.json"}

    def test_the_subcommands_are_the_tables(self):
        parser = _build_parser()
        assert _subcommands(parser) == [name for name, _ in _KINDS.values()] + ["catalog"]
        for kind, (name, _) in _KINDS.items():
            assert parser.parse_args([name]).kind == kind

    def test_the_readme_library_example_runs(self):
        # a fresh interpreter on the package as checked out, so that a removed public name breaks this test
        block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block.group(1)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(README.parent / "src")})
        assert proc.returncode == 0, proc.stderr

    def test_the_readme_lists_the_subcommands_kinds_and_stages(self):
        text = README.read_text(encoding="utf-8")
        listed = re.search(r"Subcommands:(.*?)\.\n", text, re.S).group(1)
        assert re.findall(r"`([a-z-]+)`", listed) == _subcommands(_build_parser())
        rows = re.findall(r"^\| `([a-z-]+)` \| `([a-z-]+)` \| ([a-z, ]+) \| ([^|]+) \|", text, re.M)
        assert rows == [(name, kind, ", ".join(stage.__name__.lstrip("_") for stage in stages),
                         ", ".join(f"`{key}`" for key in dict.fromkeys(k for s in stages for k in _READS[s])) or "none")
                        for kind, (name, stages) in _KINDS.items()]

    @pytest.mark.parametrize("kind, extra", [
        ("lojasiewicz", {"analysis": {"window": {"kind": "box", "center": [0.0], "extent": [1.0]}}}),
        ("full-pipeline", {"algorithm": {"name": "ppa", "gamma": 0.3, "x0": [1.0]},
                           "analysis": {"window": {"kind": "box", "center": [0.0], "extent": [10.0]},
                                        "samples_per_radius": 4}}),
    ])
    def test_the_catalog_and_the_window_are_read_once(self, kind, extra, tmp_path):
        with mock.patch.object(catalog, "catalog_lookup", wraps=catalog.catalog_lookup) as lookup, \
                mock.patch.object(Window, "from_dict", wraps=Window.from_dict) as window:
            run_experiment(ExperimentConfig.from_dict({"kind": kind, "operator": "abs-subdiff", **extra}),
                           out_dir=tmp_path)
        assert (lookup.call_count, window.call_count) == (1, 1)

    @pytest.mark.parametrize("argv", [
        ["modulus", "--set", "operator=square", "--set", "analysis.samples_per_radius=%s"],
        _LOJA + ["--set", "analysis.grid_count=%s"],
        ["plk", "--set", "operator=square", "--set", f"analysis.plk={json.dumps(_PLK_1)}",
         "--set", "analysis.grid_count=%s"],
    ], ids=["modulus", "loja", "plk"])
    def test_an_integral_float_count_runs_as_its_integer(self, argv, tmp_path, capsys):
        manifests = []
        for count in ("9", "9.0"):
            assert main([arg.replace("%s", count) for arg in argv] + ["--out", str(tmp_path / count)]) == 0
            manifests.append(json.loads(capsys.readouterr().out)["manifest"])
        assert manifests[0] == manifests[1]


class TestCsvFormat:
    def test_shortest_roundtrip_rendering(self, tmp_out):
        cfg = ExperimentConfig.from_dict(pipeline_config())
        run_experiment(cfg, out_dir=tmp_out)
        text = (tmp_out / "trace.csv").read_text()
        assert "\r" not in text
        first = text.strip().split("\n")[1].split(",")
        assert first[1] == "1.0"  # x0 rendered with shortest round trip
        for cell in first:
            if cell:
                float(cell) if cell[0].isdigit() or cell[0] in "-+." else None


# One short 1-d certify run per algorithm, with the sha256 of each artifact as
# written by the code before the runners shared one driver, plus the README
# pipeline (all six artifacts), a 2-d trace and a Lojasiewicz fit, recorded
# before distances became row-wise, and a 2-d pipeline whose witness norms feed
# the modulus-link audit (41 checked, 6 out of range), recorded before traces
# became arrays, and four modulus sweeps (the 2-d halton solve, the log branch,
# the two- and four-root branches, a windowed forward map), recorded before map
# evaluation became row-wise, and one short run of each entry whose closed
# forms were then rewritten once for both the maps and the scalar oracles (the
# linear maps' resolvents, GDM on square and flat-exp, the Lojasiewicz fit and
# PLK check), plus the catalog listing, recorded before that rewrite.  An
# entry's ``kind`` defaults to certify; an entry without a config is the
# ``catalog`` subcommand.
# A change to any of these bytes is a change of the artifact contract, not a
# refactor.
_RADII_5 = {"start": 1e-4, "stop": 1e-1, "count": 5}
GOLDEN = {
    "ppa": (
        {"operator": "abs-subdiff", "algorithm": {"name": "ppa", "gamma": 0.3, "x0": [1.0]},
         "certificates": [{"hypothesis": "H1", "alpha": 1.6666666666666667},
                          {"hypothesis": "H2", "beta": 3.3333333333333335},
                          {"hypothesis": "H4"},
                          {"hypothesis": "RCLASS", "alpha": 3.3333333333333335, "beta": 1.0}]},
        {"trace.csv": "c82ca12f728748c1a58e0dddf7bbefa48178f94b2838a7c5fa2f203eeeeda075",
         "certificates.json": "9286d9787d72acca43f41c6f77202d029f0e307a7d9b938f7624be400cdba5ef",
         "report.json": "a9f23cce73ad075c8e8ee207a51b66bf7e8820b6008fed7ad9bf83c9f5a08cfd"},
    ),
    "gdm": (
        {"operator": "quad", "algorithm": {"name": "gdm", "step": 0.5, "x0": [1.0]},
         "certificates": [{"hypothesis": "H1", "alpha": 1.0},
                          {"hypothesis": "H3", "beta": 2.0},
                          {"hypothesis": "H4"},
                          {"hypothesis": "RCLASS", "alpha": 2.0, "beta": 1.0}]},
        {"trace.csv": "4e704b8f9732de156967fcf25d9abb9e3687d429c5b1e63541e311da372a96e8",
         "certificates.json": "cb5c15440f39bdc410e481e89d6e3b606d00682bad28c0d831fd58d879d63d66",
         "report.json": "84d4599823adeb9504b10a0582f0d2d0908d6ff491540289a71ca1cf7289bbf3"},
    ),
    "qpower": (
        {"operator": "double-well",
         "algorithm": {"name": "qpower", "gamma": 1.0, "q": 1.5, "x0": [2.0]},
         "stop": {"max_iter": 50},
         "certificates": [{"hypothesis": "H1", "alpha": 0.1},
                          {"hypothesis": "H2", "beta": 10.0},
                          {"hypothesis": "RCLASS", "alpha": 10.0, "beta": 0.5}]},
        {"trace.csv": "9d14ee4ad225d2647629b3e83cc21e2ba87feef8a86c382c41bb7083dcbae792",
         "certificates.json": "be6c0f049f4016c53df8fad18c3e7be53ead373d930fd7c43a3b62aca6ea1acd",
         "report.json": "6d294b07c98d622389520d453bf871f552137bbe3626f4417b255690b9902023"},
    ),
    # the benchmark's long-trace qpower job at seed 0 (digests as recorded in
    # perfbench/reference_digests.json): 3000 subproblems, capped
    "qpower-3000": (
        {"operator": "double-well", "seed": 0,
         "algorithm": {"name": "qpower", "gamma": 1.0, "q": 1.5, "x0": [2.0]},
         "certificates": [{"hypothesis": "H1", "alpha": 0.1},
                          {"hypothesis": "RCLASS", "alpha": 10.0, "beta": 0.5}],
         "stop": {"max_iter": 3000}},
        {"trace.csv": "4f5598336f3e44afc2d380433498a164326ef1e51f63f9831ef694d2c6ea3920",
         "certificates.json": "d4639115212d858881f507ad75938c7f5f1487846c42e0c2f847112dd3f0edd3",
         "report.json": "ff06ae66504382b74245456be7f6abe9e3a34e185904d1eac0e27b94fc9142fc"},
    ),
    "dca": (
        {"operator": "dc-quad", "algorithm": {"name": "dca", "gamma": 0.5, "x0": [1.0]},
         "certificates": [{"hypothesis": "H1", "alpha": 0.1},
                          {"hypothesis": "H2", "beta": 5.0},
                          {"hypothesis": "H4"},
                          {"hypothesis": "RCLASS", "alpha": 5.0, "beta": 1.0}]},
        {"trace.csv": "0e4b3fd2af6ba45aba66efbf7e95815ed7c3edf70f3a9519863ffb1fcd1138c7",
         "certificates.json": "c6f62bbedbc0eac4c349389970a810e3224fd4052f14deb49103a441e0bc9f87",
         "report.json": "04e0ba8532bf44925bb9a649600594f6118770f9817a47bf311cc1ad5fd1605b"},
    ),
    "shifted-ppa": (
        {"operator": "quad",
         "algorithm": {"name": "shifted-ppa", "kappa": 0.25, "gamma": 1.0, "x0": [1.0]},
         "certificates": [{"hypothesis": "H1", "alpha": 0.5},
                          {"hypothesis": "H2", "beta": 1.0},
                          {"hypothesis": "RCLASS", "alpha": 1.0, "beta": 1.0}]},
        {"trace.csv": "6de69481decf21a8046f5e28c4bcbc82943e3731fcc5f745fa981fd11a9c8352",
         "certificates.json": "2937a4dd1b2e6912ba34b88d8df73cbf197f8d0add317eb9fed5376555ddf1c0",
         "report.json": "9dbeb42fa7a4b7da41c8333ff460daf3f754133ec213a837c8b955604ee21446"},
    ),
    "readme-pipeline": (
        {"kind": "full-pipeline", "operator": "abs-subdiff",
         "algorithm": {"name": "ppa", "gamma": 0.3, "x0": [1.0]},
         "analysis": {"window": {"kind": "box", "center": [0.0], "extent": [10.0]},
                      "radii": {"start": 0.01, "stop": 1.0, "count": 9},
                      "samples_per_radius": 65},
         "certificates": [{"hypothesis": "H1", "alpha": 1.6666666666666667},
                          {"hypothesis": "H2", "beta": 3.3333333333333335}],
         "tolerance": 1e-6},
        {"trace.csv": "c82ca12f728748c1a58e0dddf7bbefa48178f94b2838a7c5fa2f203eeeeda075",
         "modulus.csv": "986cd82a83181b79923ebfdbb6c56a6304dfd4b51aa44e299b3b6c0746086238",
         "holder_fit.json": "710246c993a09101cecb3582a6d95171d560250d8656dd54de8f5f8bb2edf29e",
         "certificates.json": "c03c80077e1775e80014ecc4a718872fdab74dd653cfebc48e06e3e8ca0cf3f9",
         "distance.json": "4e22428d8a5a59c2adc942e606b420cd728a50f0518f6195290ea16d92290ef9",
         "report.json": "40ae113de804597157f2495a559a794be4a79908c02ec97d33d911554f78106a"},
    ),
    "quad2-shifted-ppa": (
        {"operator": "quad2",
         "algorithm": {"name": "shifted-ppa", "kappa": 0.25, "gamma": 1.0, "x0": [1.0, -0.5]},
         "certificates": [{"hypothesis": "H1", "alpha": 0.5},
                          {"hypothesis": "H2", "beta": 1.0}]},
        {"trace.csv": "86d325cee2f8050b1cb438683953542c151cebea97bce441cd8b5ba5aa001611",
         "certificates.json": "9787026062ec4fbc3a583fc04dc7f125fdd2475521c8d405bda7d01366520589",
         "report.json": "a75f9e30f43f390b8adf484325422961c80219d806b106a0d8aba18ca118eff0"},
    ),
    "quad2-gdm-pipeline": (
        {"kind": "full-pipeline", "operator": "quad2",
         "algorithm": {"name": "gdm", "step": 0.5, "x0": [3.0, -2.0]},
         "analysis": {"radii": {"start": 1e-3, "stop": 0.1, "count": 5}, "samples_per_radius": 16},
         "certificates": [{"hypothesis": "H3", "beta": 3.0},
                          {"hypothesis": "RCLASS", "alpha": 3.0, "beta": 1.0}]},
        {"trace.csv": "45b0c0f9d30645639cd7e3a860e8167a56f842d428897747580a379e7aead9a7",
         "modulus.csv": "33355c0590c7869f87687cd3fa21b286abc8c68b8d3e65fbda233e47da52f113",
         "holder_fit.json": "0c5fcef1b9edf7fe98c26c418e07b19ef2ea3a13417c5b0e657a6dd943da75d4",
         "certificates.json": "d20b076c976857dcb6692b25f33d00e4d9af421e2da348442c6fdd7b6033ce60",
         "distance.json": "a91d712d28d28a434a46162475b0f4ec36c15e422a2dbb352b4437dda45ea99b",
         "report.json": "1a61f20c5a657f43814c6daf9df9d8179f79b19cafa0cce58875fb99efeba168"},
    ),
    "quad2-inverse-modulus": (
        {"kind": "modulus", "operator": "quad2",
         "analysis": {"target": "inverse", "xbar": [0.0, 0.0], "radii": _RADII_5,
                      "samples_per_radius": 64, "scheme": "halton"}},
        {"modulus.csv": "941637e6ddab110b204050275adff6a6294cb099fd94c0ac45505bc19ee7a2b8",
         "holder_fit.json": "1a882b2ad56f394f902ba2254304bd901328232b873c263cbea95eb40bf8a6d5",
         "report.json": "718726925a1911d6b1a848ae80836c4dcbe3146feb0a5a2ddb25f5f1b338f0d1"},
    ),
    "flat-exp-inverse-modulus": (
        {"kind": "modulus", "operator": "flat-exp",
         "analysis": {"target": "inverse", "xbar": [0.0], "radii": _RADII_5, "samples_per_radius": 64}},
        {"modulus.csv": "bc772d01b8c5f9b803140e15bf63a90da78d06658c3572503452b947f00cfbc3",
         "holder_fit.json": "7a46e1b74b8cf5a05c3d8558dcc1109c3a007bcddf7bc3b677c486058c678a44",
         "report.json": "ec2a21141845770269756a0c5751282869b2815994ef993e9ca4924568a0784d"},
    ),
    "double-well-inverse-modulus": (
        {"kind": "modulus", "operator": "double-well",
         "analysis": {"target": "inverse", "xbar": [0.0], "radii": _RADII_5, "samples_per_radius": 64}},
        {"modulus.csv": "3b2aaa644a6d328bbb61ec7900414c67ada9658fe994fc7e7027c07e4c87d398",
         "holder_fit.json": "70471f7000a0c95bf0b19a72d09ae7fc4e654c541abd3abb407e3ccf363b1865",
         "report.json": "40fc8f042f8456e27328cc90ac714877a637511728c32f15ed5abbb43dfa3752"},
    ),
    "rm1-forward-modulus": (
        {"kind": "modulus", "operator": "rm1",
         "analysis": {"target": "forward", "xbar": [1.0], "radii": _RADII_5, "samples_per_radius": 64,
                      "window": {"kind": "box", "center": [0.0], "extent": [5.0]}}},
        {"modulus.csv": "620c7618f522d9057a972146a219392892c2e211a6d864a2db6f14f992b5034f",
         "holder_fit.json": "0fa45aeb44a843f51ebe89fcbc4066f7298e416d74d02856fd106c6d9e7723c8",
         "report.json": "4620e632b8a40f986b063072ef29a4897cb056958dca6463f5f8167572b661cd"},
    ),
    "square-loja": (
        {"kind": "lojasiewicz", "operator": "square",
         "analysis": {"window": {"kind": "box", "center": [0.0], "extent": [1.0]}}},
        {"loja_fit.json": "91132f5ccdb5a843f1291fba2fc05926986783f50925cb711f12bcf5f5e2ab09",
         "report.json": "8161bcdd20cee4e0cbd3363aa43d0aaa034cff5f0632972645a0120e54204190"},
    ),
    "linear-neg-ppa": (
        {"kind": "solve", "operator": "linear-neg", "algorithm": {"name": "ppa", "gamma": 2.0, "x0": [1.0]}},
        {"trace.csv": "a418b21821abefccb109a324036acc829808d4f3777bbc21153102d3a254bfd8",
         "report.json": "da30797fa94c2433fec861ec2863bf6c1562241e047bdd74feb4c029abf72d47"},
    ),
    "dc-quad-ppa": (
        {"kind": "solve", "operator": "dc-quad", "algorithm": {"name": "ppa", "gamma": 1.0, "x0": [1.0]}},
        {"trace.csv": "be2361256208e4f0f1585bc54183b35cd1526a7169586a20726768d24004cc7f",
         "report.json": "9e9490949fb9b57e654d80d7c70b0109f25a66a49418feac3e878e78dc04ddc3"},
    ),
    "square-gdm": (
        {"kind": "solve", "operator": "square", "algorithm": {"name": "gdm", "step": 0.1, "x0": [1.0]},
         "stop": {"max_iter": 200}},
        {"trace.csv": "0f754fdb4b67a2abf824a9d748793c7da2bb5e00ad1457c41b84325d1de528d9",
         "report.json": "3a7f042489059f7476bb696ca3f06b59185ebd6b594f035a2e224ed55c214202"},
    ),
    "flat-exp-gdm": (
        {"kind": "solve", "operator": "flat-exp", "algorithm": {"name": "gdm", "step": 0.5, "x0": [0.5]},
         "stop": {"max_iter": 200}},
        {"trace.csv": "62db4547987f5f18706aefbc160b70048d913ddec5688aa3a5d4e2090f716bbe",
         "report.json": "8c4337305a1b18a8aaf55e51c4e4775f4518e94849a03e6d320ba6f72c17a71b"},
    ),
    "double-well-loja": (
        {"kind": "lojasiewicz", "operator": "double-well",
         "analysis": {"window": {"kind": "box", "center": [0.5], "extent": [1.0]}, "grid_count": 257}},
        {"loja_fit.json": "4142375ae2ecb351000047ed46ef45d1f70fd2c0576d1884eef75f2b80833999",
         "report.json": "aeaf3808c305402aa962bcff985746755c6c4ae167a203105d25323ed77581fc"},
    ),
    "square-plk": (
        {"kind": "plk", "operator": "square", "analysis": {"plk": _PLK_1}},
        {"plk.json": "ed242bd896fd2fec911539cdc1a7aea2f896e8026b4646f61b5640abee46f177",
         "report.json": "86a123b3c72434ac52d6f1af5a309cc866e6f6c40b04f0961f76b226290eaf21"},
    ),
    "double-well-plk": (
        {"kind": "plk", "operator": "double-well", "analysis": {"xbar": [1.0], "plk": _PLK_1}},
        {"plk.json": "7e9d956357e84863cbbda43a99a9c9387ee482499d27da8cff24c68928f24f0d",
         "report.json": "ae5d805d66b4210d8c208dde09bfea569990d6349e955802b4dcce2f34739345"},
    ),
    "catalog": (None, {"catalog.json": "9776e1b7534ea2944ee694dbcea5bd01088b8e01e76e3884aaffb409ebe73969"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifact_digests(name, tmp_out):
    import hashlib
    raw, expected = GOLDEN[name]
    if raw is None:
        assert main(["catalog", "--out", str(tmp_out)]) == 0
    else:
        run_experiment(ExperimentConfig.from_dict({"kind": "certify", **raw}), out_dir=tmp_out)
    got = {name: hashlib.sha256((tmp_out / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected
