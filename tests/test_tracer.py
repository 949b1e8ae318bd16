"""The benchmark's per-layer tracer (``perfbench/tracer.py``) patches names of
the package by hand; these tests fail when one of them is deleted or moved,
and check that ``uninstall`` puts every original back."""

import dataclasses
import json
from pathlib import Path

import pytest

from rcontinuity import analysis, catalog, certify, cli, geometry, serialize, setmap, solvers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_OWNERS = (analysis, catalog, certify, cli, geometry, serialize, setmap, solvers,
           geometry.Region, setmap.SetValuedMap, setmap.ProxOracle, cli.ExperimentConfig)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    t = Tracer()
    before = {owner: dict(owner.__dict__) for owner in _OWNERS}
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
    for owner, attrs in before.items():
        now = dict(owner.__dict__)
        assert now.keys() == attrs.keys()
        assert all(now[name] is attrs[name] for name in attrs), owner


def test_install_wraps_every_patched_name(tracer):
    assert tracer._patches
    for owner, name, original in tracer._patches:
        assert owner in _OWNERS
        assert owner.__dict__[name] is not original


def test_traced_run_counts_the_writers_and_oracles(tracer, tmp_path):
    argv = ["modulus", "--set", "operator=square", "--set", "analysis.samples_per_radius=4",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert tracer.calls["serialize.json_csv"] >= 2  # modulus.csv and the JSON summary
    assert tracer.calls["setmap.eval"] >= 1
    assert tracer.counts["serialize.bytes_written"] > 0
    catalog.catalog_lookup("quad").f([1.0])
    assert tracer.calls["catalog.oracle"] == 1


@pytest.mark.parametrize("operator, algorithm", [
    ("quad", {"name": "ppa", "gamma": 0.5, "x0": [1.0]}),
    ("quad2", {"name": "shifted-ppa", "gamma": 0.5, "kappa": 0.1, "x0": [2.0, 2.0]}),
    ("dc-quad", {"name": "dca", "gamma": 0.5, "x0": [1.0]}),
], ids=["ppa", "shifted-ppa", "dca"])
def test_traced_solver_run_counts_every_resolvent(tracer, tmp_path, monkeypatch, operator, algorithm):
    # solvers call the resolvent that ProxOracle.bind returns, not ProxOracle.resolve,
    # so the resolvent calls are counted by a counting oracle put into the catalog
    resolvents = []

    def counting(prox):
        def resolvent(gamma):
            bound = prox.resolvent(gamma)

            def count(y):
                resolvents.append(y)
                return bound(y)

            return count

        return dataclasses.replace(prox, resolvent=resolvent)

    entry = catalog._CATALOG[operator]
    counted = (dataclasses.replace(entry, dc=dataclasses.replace(entry.dc, g_prox=counting(entry.dc.g_prox)))
               if entry.dc is not None else dataclasses.replace(entry, prox=counting(entry.prox)))
    monkeypatch.setitem(catalog._CATALOG, operator, counted)
    argv = ["certify", "--set", f"operator={operator}", "--set", f"algorithm={json.dumps(algorithm)}",
            "--set", 'certificates=[{"hypothesis": "H1", "alpha": 0.1}]', "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    name = algorithm["name"]
    iterations = tracer.counts[f"solvers.{name}.iterations"]
    assert tracer.calls[f"solvers.{name}"] == 1
    assert iterations > 0
    # one resolvent per recorded step
    assert len(resolvents) == iterations


_GDM = '{"name": "gdm", "step": 0.5, "x0": [1.0]}'
_QPOWER = '{"name": "qpower", "gamma": 1.0, "q": 1.5, "x0": [2.0]}'
_H1_H4 = '[{"hypothesis": "H1", "alpha": 0.1}, {"hypothesis": "H4"}]'
_PLK = '{"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1.0}'
_WINDOW = '{"kind": "box", "center": [0.0], "extent": [1.0]}'


@pytest.mark.parametrize("argv, booked", [
    # the modulus stage calls the estimator's core, not estimate_modulus
    (["modulus", "--set", "analysis.samples_per_radius=4"], ["geometry.excess", "analysis.fit_holder"]),
    (["loja", "--set", f"analysis.window={_WINDOW}"], ["analysis.lojasiewicz"]),
    (["plk", "--set", f"analysis.plk={_PLK}"], ["analysis.plk"]),
    (["solve", "--set", f"algorithm={_GDM}"], ["solvers.gdm", "certify.distance_trace", "serialize.trace_csv"]),
    (["solve", "--set", f"algorithm={_QPOWER}", "--set", "stop.max_iter=5"],
     ["solvers.qpower", "certify.distance_trace", "serialize.trace_csv"]),
    (["certify", "--set", f"algorithm={_GDM}", "--set", f"certificates={_H1_H4}"],
     ["solvers.gdm", "certify.checks", "certify.h4", "certify.distance_trace", "serialize.trace_csv"]),
    (["pipeline", "--set", f"algorithm={_GDM}", "--set", "analysis.samples_per_radius=4",
      "--set", f"certificates={_H1_H4}"],
     ["solvers.gdm", "certify.checks", "certify.h4", "geometry.excess", "analysis.fit_holder",
      "certify.distance_trace", "serialize.trace_csv"]),
], ids=["modulus", "loja", "plk", "solve", "solve-qpower", "certify", "pipeline"])
def test_a_traced_run_of_each_kind_books_its_layers(tracer, tmp_path, argv, booked):
    argv = [argv[0], "--set", "operator=square", *argv[1:], "--out", str(tmp_path / "out")]
    assert cli.main(argv) in (0, 4)
    booked = ["cli.validate", "cli.run", "serialize.json_csv", "serialize.sha256", *booked]
    assert [key for key in booked if not tracer.calls[key]] == []


def test_a_traced_loja_run_counts_f_at_every_grid_point_it_reads(tracer, tmp_path):
    argv = ["loja", "--set", "operator=square", "--set", f"analysis.window={_WINDOW}",
            "--set", "analysis.grid_count=101", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    # level 0 reads all its 101 grid points, levels 1 and 2 the 50 and 26 of their bands
    assert tracer.calls["catalog.oracle"] >= 101 + 50 + 26


def test_a_traced_qpower_run_counts_its_subproblem_oracles(tracer, tmp_path):
    argv = ["solve", "--set", "operator=square", "--set", f"algorithm={_QPOWER}", "--set", "stop.max_iter=5",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    iterations = tracer.counts["solvers.qpower.iterations"]
    assert 0 < iterations < tracer.calls["catalog.oracle"]
