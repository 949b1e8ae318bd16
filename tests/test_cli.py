import json
from pathlib import Path

import numpy as np
import pytest

from rcontinuity import catalog_listing
from rcontinuity.cli import ConfigError, ExperimentConfig, main, run_experiment


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


def _rejected(name, argv, path, config=None):
    """An input the CLI must refuse with exit 2, naming ``path``; ``config``
    is the text of a config file passed with ``--config``."""
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
    _rejected("qpower-quad2-q", ["solve", "--set", "operator=quad2", "--set", _QPOWER % "[1.0, 1.0]"],
              "algorithm.q"),
    _rejected("qpower-rm1", ["solve", "--set", "operator=rm1", "--set", _QPOWER % "[1.0]"], "algorithm.name"),
    _rejected("radii-count-fraction", ["modulus", "--set", "operator=square", "--set", _RADII],
              "analysis.radii.count"),
    _rejected("samples-bool", ["modulus", "--set", "operator=square", "--set", "analysis.samples_per_radius=true"],
              "analysis.samples_per_radius"),
    _rejected("window-dimension", ["modulus", "--set", "operator=quad2", "--set", _WINDOW_1D], "analysis.window"),
    _rejected("grid_count-fraction",
              ["loja", "--set", "operator=square", "--set", _WINDOW_1D, "--set", "analysis.grid_count=10.5"],
              "analysis.grid_count"),
]


class TestValidation:
    @pytest.mark.parametrize("config, argv, path", REJECTED)
    def test_rejected_input_exits_2_naming_the_field(self, config, argv, path, tmp_path, capsys):
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
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

    def test_config_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(pipeline_config())
        r1 = run_experiment(cfg, out_dir=tmp_path / "a")
        echoed = ExperimentConfig.from_dict(json.loads(json.dumps(r1.config)))
        r2 = run_experiment(echoed, out_dir=tmp_path / "b")
        assert r1.manifest == r2.manifest

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

    def test_catalog_subcommand(self, capsys):
        assert main(["catalog"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert any(item["name"] == "rm1" for item in out)

    def test_set_override_parses_json_scalars(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(pipeline_config()))
        code = main([
            "pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--set", "algorithm.gamma=0.3", "--set", "tolerance=1e-6",
        ])
        assert code == 0


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
# written by the code before the runners shared one driver.  A change to any
# of these bytes is a change of the artifact contract, not a refactor.
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
}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_artifact_digests(algorithm, tmp_out):
    import hashlib
    raw, expected = GOLDEN[algorithm]
    run_experiment(ExperimentConfig.from_dict(dict(raw, kind="certify")), out_dir=tmp_out)
    got = {name: hashlib.sha256((tmp_out / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected
