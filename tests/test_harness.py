"""Config handling, comparisons, emission, determinism, and the CLI."""

import dataclasses
import inspect
import io
import json
import math
import re
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import fracsis
from fracsis import cli, coeffs, harness
from fracsis.errors import GridMismatchError, ValidationError
from fracsis.harness import (
    compare_methods,
    config_from_dict,
    crossing_node,
    emit,
    linf_distance,
    load_config,
    population_curve,
    preset_config,
    run_c0_suite,
    run_methods,
    run_table1,
)
from fracsis.model import derive
from fracsis.solvers import Method, TimeGrid, Trajectory


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


class TestLoadConfig:
    def test_minimal_config_gets_defaults(self, tmp_path, capsys):
        p = write_config(
            tmp_path, {"beta": 0.7, "gamma": 0.05, "mu": 0.12, "alpha": 0.7, "i0": 0.3}
        )
        cfg = load_config(p)
        assert cfg.grid.T == 5.0 and cfg.grid.dt == 0.05
        assert cfg.series_terms == 120
        assert cfg.formats == ("csv", "json")
        assert cfg.methods == (Method.PECE, Method.L1)
        # they are the key table's, as are RunConfig's, run_table1's and the flags'
        default = {k: key.default for k, key in harness._KEYS.items()}
        assert (default["T"], default["dt"], default["terms"]) == (5.0, 0.05, 120)
        assert default["formats"] == cfg.formats and default["methods"] == ("pece", "l1")
        fields = {f.name: f.default for f in dataclasses.fields(harness.RunConfig)}
        assert (fields["series_terms"], fields["formats"]) == (120, cfg.formats)
        assert inspect.signature(run_table1).parameters["terms"].default == 120
        parser = cli.build_parser()
        args = parser.parse_args(["population", "--alpha", "1", "--lambda", "1", "--mu", "1"])
        assert (args.T, args.dt) == (5.0, 0.05)
        assert parser.parse_args(["table1"]).terms == 120
        with pytest.raises(SystemExit):
            cli.main(["table1", "--help"])
        assert "series truncation order (default 120)" in " ".join(capsys.readouterr().out.split())

    def test_flags_and_manifest_keys_are_the_config_keys(self, tmp_path):
        parser = cli.build_parser()
        for argv in (["solve", "--method", "pece"], ["compare"]):
            flags = set(vars(parser.parse_args(argv))) - {"command", "func", "config"}
            assert flags == harness.CONFIG_KEYS
        cfg = preset_config("c-nonzero", 0.7, methods="pece,l1", out=tmp_path)
        emit(run_methods(cfg), [], cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["config"]) == harness.CONFIG_KEYS - {"preset"}

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n "beta": 0.7,\n oops\n}')
        with pytest.raises(ValidationError, match="line 3"):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = write_config(tmp_path, {"beta": 0.7, "gamma": 0.1, "mu": 0.1, "alpha": 0.5, "i0": 0.2, "betta": 1.0})
        with pytest.raises(ValidationError, match="betta"):
            load_config(p)

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match="alpha"):
            config_from_dict({"beta": 0.7, "gamma": 0.1, "mu": 0.1, "i0": 0.2})

    def test_l1_at_alpha_one_rejected(self, tmp_path):
        p = write_config(
            tmp_path,
            {"beta": 0.7, "gamma": 0.05, "mu": 0.12, "alpha": 1.0, "i0": 0.3, "methods": "l1"},
        )
        with pytest.raises(ValidationError, match="excluded"):
            load_config(p)

    def test_preset_c_nonzero(self):
        cfg = preset_config("c-nonzero", 0.7)
        p = cfg.params
        assert (p.beta, p.gamma, p.mu) == (0.7, 0.05, 0.12)
        d = derive(p)
        assert p.i0 == d.c / 2.0
        assert cfg.grid.T == 5.0 and cfg.grid.dt == 0.05

    def test_preset_c_zero(self):
        cfg = preset_config("c-zero", 0.7)
        assert cfg.params.i0 == 1.0 / 1.4
        assert derive(cfg.params).c == 0.0
        assert cfg.grid.T == 1.0 and cfg.grid.dt == 0.01

    def test_series_hypothesis_validated(self):
        with pytest.raises(ValidationError, match="i0"):
            config_from_dict(
                {"beta": 0.7, "gamma": 0.05, "mu": 0.12, "alpha": 0.7, "i0": 0.2,
                 "methods": "series,pece"}
            )

    @pytest.mark.parametrize(
        "key, match", [("T", "T=0"), ("dt", "dt=0"), ("terms", "terms")]
    )
    def test_zero_values_rejected_not_defaulted(self, key, match):
        cfg = {"preset": "c-nonzero", "alpha": 0.7, key: 0}
        with pytest.raises(ValidationError, match=match):
            config_from_dict(cfg)

    @pytest.mark.parametrize(
        "formats", ["", " , ", [], ()], ids=["empty", "separators", "list", "tuple"]
    )
    def test_empty_formats_rejected_not_defaulted(self, formats):
        cfg = {"preset": "c-nonzero", "alpha": 0.7, "formats": formats}
        with pytest.raises(ValidationError, match="formats"):
            config_from_dict(cfg)

    @pytest.mark.parametrize(
        "raw, want",
        [(None, ("csv", "json")), ("svg", ("svg",)), ("csv, svg", ("csv", "svg")),
         (["json"], ("json",))],
    )
    def test_formats_parsed(self, raw, want):
        cfg = {"preset": "c-nonzero", "alpha": 0.7, "formats": raw}
        assert config_from_dict(cfg).formats == want

    def test_manifest_with_lambda_refused(self, tmp_path):
        # lambda is no config key: only the population curve reads a birth rate
        cfg = preset_config("c-nonzero", 0.7, methods=("pece",), out=str(tmp_path / "run"))
        emit(run_methods(cfg), [], cfg)
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert "lambda" not in manifest["config"]
        manifest["config"]["lambda"] = 0.12
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="unknown config keys.*lambda"):
            load_config(path)

    @pytest.mark.parametrize("preset", ["c-nonzero", "c-zero"])
    def test_built_config_carries_everything_a_run_needs(self, preset, tmp_path, monkeypatch):
        # a run reads the derived parameters from its RunConfig, never derives them again
        cfg = preset_config(preset, 0.7, methods=("series", "pece", "l1"), out=str(tmp_path))

        def refuse(params):
            raise AssertionError("derive called after the config was built")

        monkeypatch.setattr(harness, "derive", refuse)
        trajs = run_methods(cfg)
        emit(trajs, [compare_methods(trajs, 0.7)], cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["derived"] == dataclasses.asdict(derive(cfg.params))

    def test_no_methods_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict(
                {"beta": 0.7, "gamma": 0.05, "mu": 0.12, "alpha": 0.7, "i0": 0.3,
                 "methods": []}
            )


class TestComparisons:
    def test_identical_trajectories(self):
        g = TimeGrid(1.0, 0.25)
        a = Trajectory(g, np.full(5, 0.4), Method.PECE)
        assert linf_distance(a, a) == 0.0

    def test_constant_trajectories(self):
        g = TimeGrid(1.0, 0.25)
        a = Trajectory(g, np.full(5, 0.2), Method.PECE)
        b = Trajectory(g, np.full(5, 0.5), Method.L1)
        assert linf_distance(a, b) == pytest.approx(0.3, abs=1e-16)

    def test_symmetry_exact(self):
        g = TimeGrid(1.0, 0.1)
        rng = np.random.default_rng(5)
        a = Trajectory(g, rng.uniform(0, 1, 11), Method.PECE)
        b = Trajectory(g, rng.uniform(0, 1, 11), Method.L1)
        assert linf_distance(a, b) == linf_distance(b, a)

    def test_grid_mismatch(self):
        a = Trajectory(TimeGrid(1.0, 0.25), np.zeros(5), Method.PECE)
        b = Trajectory(TimeGrid(1.0, 0.2), np.zeros(6), Method.L1)
        with pytest.raises(GridMismatchError):
            linf_distance(a, b)

    def test_series_vs_pece_order_on_099_preset(self):
        cfg = preset_config("c-nonzero", 0.99, methods=("series", "pece"))
        report = compare_methods(run_methods(cfg), 0.99)
        assert report.distance("series", "pece") < 1e-4  # reference magnitude 1e-5


class TestTable1:
    def test_rows_and_magnitudes(self):
        reports = run_table1()
        assert [r.alpha for r in reports] == [0.99, 0.7, 0.3]
        r99, r07, r03 = reports
        assert r99.distance("series", "pece") == pytest.approx(1e-5, abs=9e-5)
        assert r03.distance("series", "l1") == pytest.approx(8e-3, rel=0.9)
        for r in reports:
            for _, _, d in r.pairs:
                assert 0.0 < d < 0.05


@pytest.fixture(scope="module")
def entries():
    return run_c0_suite()


class TestC0Suite:
    def test_blowup_only_at_half(self, entries):
        by_alpha = {e.alpha: e for e in entries}
        assert by_alpha[0.5].series_diverged_at is not None
        assert by_alpha[0.5].series_diverged_at <= 1.0
        assert by_alpha[0.99].series_diverged_at is None

    def test_schemes_stay_bounded(self, entries):
        assert all(e.schemes_bounded for e in entries)

    def test_series_tracks_schemes_where_convergent(self, entries):
        by_alpha = {e.alpha: e for e in entries}
        for alpha in (0.99, 0.7):
            e = by_alpha[alpha]
            s = e.trajectories[Method.SERIES]
            p = e.trajectories[Method.PECE]
            ok = np.array(s.meta["converged"])
            assert np.max(np.abs(s.u[ok] - p.u[ok])) < 1e-3

    def test_crossing_moves_right_for_small_alpha(self, entries):
        by_alpha = {e.alpha: e for e in entries}
        assert by_alpha[0.5].crossing["pece"] > by_alpha[0.99].crossing["pece"]
        assert by_alpha[0.5].crossing["l1"] > by_alpha[0.99].crossing["l1"]


class TestCrossing:
    def test_rising_curve(self):
        cfg = preset_config("c-nonzero", 0.99, methods=("pece",))
        traj = run_methods(cfg)[Method.PECE]
        t = crossing_node(traj)
        # classical crossing of I = S sits near t ~ 1.26 for these rates
        assert t is not None and 1.0 < t < 1.6

    def test_no_crossing(self):
        g = TimeGrid(1.0, 0.25)
        traj = Trajectory(g, np.full(5, 0.2), Method.PECE)
        assert crossing_node(traj) is None

    def test_start_on_the_crossing(self):
        g = TimeGrid(1.0, 0.25)
        traj = Trajectory(g, np.array([0.5, 0.6, 0.7, 0.8, 0.9]), Method.PECE)
        assert crossing_node(traj) == 0.0


class TestEmit:
    def test_csv_format_and_complement(self, tmp_path):
        cfg = preset_config("c-nonzero", 0.7, methods=("pece",), out=str(tmp_path / "run"))
        files = emit(run_methods(cfg), [], cfg)
        csv = next(f for f in files if f.name == "pece.csv")
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,I,S"
        assert len(lines) == 102
        for row in lines[1:]:
            t, i, s = row.split(",")
            assert float(s) == 1.0 - float(i)

    def test_manifest_content(self, tmp_path):
        cfg = preset_config(
            "c-nonzero", 0.7, methods=("series", "pece"), out=str(tmp_path / "run")
        )
        trajs = run_methods(cfg)
        emit(trajs, [compare_methods(trajs, 0.7)], cfg)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["tool"] == "fracsis"
        assert manifest["version"] == fracsis.__version__
        assert manifest["config"]["alpha"] == 0.7
        assert manifest["derived"]["b"] == pytest.approx(0.53)
        assert manifest["series_radius"]["theoretical"] > 0
        assert len(manifest["trajectories"]["series"]["converged"]) == 101

    def test_manifest_roundtrip_bit_identical(self, tmp_path):
        cfg = preset_config(
            "c-nonzero", 0.7, methods=("series", "pece", "l1"), out=str(tmp_path / "a")
        )
        trajs = run_methods(cfg)
        emit(trajs, [compare_methods(trajs, 0.7)], cfg)
        # a manifest is itself a loadable config; rerun it into a new dir
        reloaded = load_config(tmp_path / "a" / "manifest.json")
        assert reloaded.params == cfg.params
        raw = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
        cfg2 = config_from_dict({**raw, "out": str(tmp_path / "b")})
        trajs2 = run_methods(cfg2)
        emit(trajs2, [compare_methods(trajs2, 0.7)], cfg2)
        for name in ("series.csv", "pece.csv", "l1.csv", "comparison.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @given(
        preset=st.sampled_from(sorted(harness.PRESETS)),
        alpha=st.floats(min_value=0.05, max_value=0.99),
        methods=st.lists(
            st.sampled_from(["series", "pece", "l1", "classical"]),
            min_size=1, max_size=4, unique=True,
        ),
        grid=st.sampled_from([(0.2, 0.02), (0.5, 0.05), (1.0, 0.1)]),
        formats=st.sampled_from([("csv",), ("json",), ("csv", "json"), ("csv", "json", "svg")]),
    )
    @settings(max_examples=25, deadline=None)
    def test_rerun_from_manifest_is_byte_identical(self, preset, alpha, methods, grid, formats):
        def run_and_emit(cfg):
            trajs = run_methods(cfg)
            reports = [compare_methods(trajs, alpha)] if len(trajs) > 1 else []
            emit(trajs, reports, cfg)

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            cfg = preset_config(
                preset, alpha, methods=methods, T=grid[0], dt=grid[1],
                out=str(out), formats=formats,
            )
            run_and_emit(cfg)
            first = {p.name: p.read_bytes() for p in out.iterdir()}
            rerun = load_config(out / "manifest.json")
            assert rerun == cfg
            shutil.rmtree(out)
            run_and_emit(rerun)
            assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_table1_determinism(self, tmp_path):
        # CSVs must be byte-identical across repeated runs (the manifests
        # differ only in their embedded output path)
        run_table1(out=tmp_path / "r1")
        run_table1(out=tmp_path / "r2")
        a = (tmp_path / "r1" / "table1.csv").read_bytes()
        b = (tmp_path / "r2" / "table1.csv").read_bytes()
        assert a == b
        first = a.decode().splitlines()
        assert first[0] == "alpha,series_vs_pece,series_vs_l1,pece_vs_l1"
        for name in ("alpha-0.99", "alpha-0.7", "alpha-0.3"):
            for f in ("series.csv", "pece.csv", "l1.csv", "comparison.csv"):
                assert (tmp_path / "r1" / name / f).read_bytes() == (
                    tmp_path / "r2" / name / f
                ).read_bytes()
            ma = json.loads((tmp_path / "r1" / name / "manifest.json").read_text())
            mb = json.loads((tmp_path / "r2" / name / "manifest.json").read_text())
            ma["config"].pop("out"), mb["config"].pop("out")
            assert ma == mb

    @pytest.mark.parametrize("suite", [run_table1, run_c0_suite], ids=["table1", "c0-suite"])
    def test_warm_cache_output_identity(self, suite, tmp_path, monkeypatch):
        # the second run takes every table from the cache; with the same
        # relative out path the two trees, manifests included, are equal
        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        coeffs._table.cache_clear()
        trees = []
        for side in ("cold", "warm"):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            misses = coeffs._table.cache_info().misses
            suite(out=Path("out"), formats=("csv", "json", "svg"))
            trees.append(tree(tmp_path / side))
        assert coeffs._table.cache_info().misses == misses  # the warm run built no table
        assert trees[0] == trees[1]

    def test_svg_output(self, tmp_path):
        cfg = preset_config(
            "c-nonzero", 0.7, methods=("pece", "l1"),
            out=str(tmp_path / "run"), formats=("csv", "json", "svg"),
        )
        trajs = run_methods(cfg)
        files = emit(trajs, [], cfg)
        svg = next(f for f in files if f.suffix == ".svg")
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_series_radius_from_the_run(self, tmp_path, monkeypatch):
        # the manifest's radius comes from the series trajectory: one table
        calls = []
        real = harness.euler_alpha
        monkeypatch.setattr(harness, "euler_alpha", lambda *a: calls.append(a) or real(*a))
        rc = cli.main(
            ["compare", "--preset", "c-nonzero", "--alpha", "0.7",
             "--methods", "series,pece,l1", "--out", str(tmp_path / "run")]
        )
        assert rc == 0 and calls == [(0.7, 120)]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["series_radius"]["k_used"] > 0

    def test_creates_missing_nested_output_dir(self, tmp_path):
        out = tmp_path / "a" / "b" / "run"
        cfg = preset_config("c-nonzero", 0.7, methods=("pece", "l1"), out=str(out))
        trajs = run_methods(cfg)
        files = emit(trajs, [compare_methods(trajs, 0.7)], cfg)
        assert [f.name for f in files] == ["pece.csv", "l1.csv", "comparison.csv", "manifest.json"]
        assert all(f.parent == out and f.is_file() for f in files)

    def test_requires_output_dir(self):
        cfg = preset_config("c-nonzero", 0.7, methods=("pece",))
        with pytest.raises(ValidationError):
            emit(run_methods(cfg), [], cfg)

    def test_csv_text_matches_per_cell_format(self):
        # one % per file, checked against formatting each cell on its own;
        # every row has the cell types of the first
        def reference(header, rows):
            lines = [",".join(v if isinstance(v, str) else format(v, ".17g") for v in row)
                     for row in rows]
            return "\n".join([header, *lines]) + "\n"

        rng = np.random.default_rng(15)
        specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -2.5e-310, 1e308, 0.1]
        cells = {
            "float": lambda: float(rng.choice(specials)) if rng.random() < 0.5
            else float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)),
            "int": lambda: int(rng.integers(-10**6, 10**6)),
            "str": lambda: str(rng.choice(["series", "pece", "l1", "%s", "a,b"])),
        }
        assert harness.csv_text("t,N", []) == "t,N\n"
        assert harness.csv_text("t,N", iter([])) == "t,N\n"
        for _ in range(200):
            kinds = rng.choice(list(cells), size=int(rng.integers(1, 5)))
            rows = [tuple(cells[k]() for k in kinds) for _ in range(int(rng.integers(0, 6)))]
            assert harness.csv_text("h", rows) == reference("h", rows)
            assert harness.csv_text("h", iter(rows)) == reference("h", rows)


class TestPopulationCurve:
    def test_constant_population(self):
        g = TimeGrid(2.0, 0.5)
        n = population_curve(0.6, 0.3, 0.3, 5.0, g)
        np.testing.assert_array_equal(n, 5.0)

    def test_growth_above_balance(self):
        g = TimeGrid(2.0, 0.5)
        n = population_curve(0.6, 0.4, 0.3, 1.0, g)
        assert np.all(np.diff(n) > 0)


BASE = {"beta": 0.7, "gamma": 0.05, "mu": 0.12, "alpha": 0.7, "i0": 0.3}


class TestRefusals:
    """Each refusal of a config, a comparison or a CLI call says what is wrong;
    where the CLI reaches it, it exits 1 with one ``error:`` line."""

    PRESET = ["--preset", "c-nonzero", "--alpha", "0.7"]

    @staticmethod
    def assert_cli_error(argv, message, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["population", "--lambda", "1", "--mu", "0"],
         ["compare", "--preset", "c-nonzero", "--methods", "pece,l1,series"]],
        ids=["population", "compare"],
    )
    def test_subnormal_alpha(self, argv, capsys):
        # 1/alpha overflows: refused by the one alpha check, naming alpha
        message = "alpha must be in (0, 1] with 1/alpha finite, got 1e-310"
        self.assert_cli_error([*argv, "--alpha", "1e-310", "--T", "1", "--dt", "0.5"],
                              message, capsys)

    def test_unknown_preset(self, tmp_path, capsys):
        message = "unknown preset 'c-one'; available: ['c-nonzero', 'c-zero']"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            config_from_dict({**BASE, "preset": "c-one"})
        p = write_config(tmp_path, {**BASE, "preset": "c-one"})
        self.assert_cli_error(["compare", "--config", str(p)], message, capsys)

    def test_missing_config_file(self, tmp_path, capsys):
        p = tmp_path / "missing.json"
        with pytest.raises(ValidationError, match=re.escape(f"cannot read config {p}: ")):
            load_config(p)
        assert cli.main(["solve", "--method", "pece", "--config", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read config {p}: ")
        assert err.count("\n") == 1

    def test_config_root_must_be_an_object(self, tmp_path, capsys):
        p = write_config(tmp_path, [BASE])
        with pytest.raises(ValidationError, match="^config root must be an object, got list$"):
            load_config(p)
        self.assert_cli_error(
            ["compare", "--config", str(p)], "config root must be an object, got list", capsys
        )

    def test_duplicate_methods(self, capsys):
        with pytest.raises(ValidationError, match="^duplicate methods in config$"):
            config_from_dict({**BASE, "methods": "pece,l1,pece"})
        argv = ["compare", *self.PRESET, "--methods", "pece,pece"]
        self.assert_cli_error(argv, "duplicate methods in config", capsys)

    def test_duplicate_formats(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="^duplicate formats in config$"):
            config_from_dict({**BASE, "formats": ["csv", "json", "csv"]})
        argv = ["compare", *self.PRESET, "--methods", "pece,l1", "--formats", "csv,csv",
                "--out", str(tmp_path / "d")]
        self.assert_cli_error(argv, "duplicate formats in config", capsys)
        assert not (tmp_path / "d").exists()

    def test_unknown_output_formats(self, capsys):
        message = "unknown output formats: ['pdf', 'png']"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            config_from_dict({**BASE, "formats": "csv,png,pdf"})
        self.assert_cli_error(
            ["compare", *self.PRESET, "--methods", "pece,l1", "--formats", "pdf,csv,png"],
            message, capsys,
        )

    def test_unknown_method(self, capsys):
        message = "unknown method in ['pece', 'rk4']; choose from " + str([m.value for m in Method])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            config_from_dict({**BASE, "methods": "pece,rk4"})
        argv = ["compare", *self.PRESET, "--methods", "pece,rk4"]
        self.assert_cli_error(argv, message, capsys)

    EMPTY_OUT = "config key 'out' must be a non-empty path, got ''"

    def test_empty_out_in_a_config(self):
        # "" is neither "no output" nor the working directory
        with pytest.raises(ValidationError, match=f"^{re.escape(self.EMPTY_OUT)}$"):
            config_from_dict({"preset": "c-nonzero", "alpha": 0.7, "out": ""})
        for run in (run_table1, run_c0_suite):
            with pytest.raises(ValidationError, match=f"^{re.escape(self.EMPTY_OUT)}$"):
                run(out="")

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--method", "pece", *PRESET], ["compare", *PRESET], ["table1"], ["c0-suite"],
         ["coeffs", "--kind", "a", "--alpha", "0.7"],
         ["population", "--alpha", "0.7", "--lambda", "1", "--mu", "0.5"]],
        ids=["solve", "compare", "table1", "c0-suite", "coeffs", "population"],
    )
    def test_empty_out_flag(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self.assert_cli_error([*argv, "--out", ""], self.EMPTY_OUT, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_compare_needs_two_methods(self, capsys):
        self.assert_cli_error(
            ["compare", *self.PRESET, "--methods", "pece"],
            "compare needs at least two methods (use --methods)", capsys,
        )

    def test_comparison_needs_two_trajectories(self):
        traj = Trajectory(TimeGrid(1.0, 0.25), np.full(5, 0.4), Method.PECE)
        with pytest.raises(ValidationError, match="^comparison needs at least two trajectories"):
            compare_methods({Method.PECE: traj}, 0.7)

    def test_distance_of_a_missing_pair(self):
        report = harness.ComparisonReport(alpha=0.7, pairs=(("series", "pece", 1e-3),))
        assert report.distance("pece", "series") == 1e-3
        with pytest.raises(KeyError, match=re.escape("no pair (pece, l1) in report")):
            report.distance("pece", "l1")


class TestCli:
    def test_coeffs_stdout(self, capsys):
        assert cli.main(["coeffs", "--kind", "euler", "--alpha", "1.0", "-K", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k,value"
        assert out[1] == "0,0.5"
        assert len(out) == 7

    def test_solve_stdout(self, capsys):
        rc = cli.main(
            ["solve", "--method", "pece", "--preset", "c-nonzero", "--alpha", "0.7"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,I,S"
        assert len(out) == 102

    def test_compare_prints_pairs(self, capsys):
        rc = cli.main(
            ["compare", "--preset", "c-nonzero", "--alpha", "0.7",
             "--methods", "series,pece,l1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "series vs pece" in out

    def test_validation_exit_code(self, capsys):
        rc = cli.main(
            ["solve", "--method", "l1", "--preset", "c-nonzero", "--alpha", "1.0"]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--T", "0"],
            ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--dt", "0"],
            ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--terms", "0"],
            ["table1", "--terms", "0"],
        ],
        ids=["T", "dt", "terms", "table1-terms"],
    )
    def test_zero_value_exit_code(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("terms", "abc"), ("terms", 12.7), ("terms", True), ("T", "x"), ("alpha", "0.7"),
         ("beta", True), ("methods", 5), ("methods", ["pece", 5]), ("formats", 5),
         ("preset", ["c-nonzero"]), ("out", 5)],
        ids=["terms-str", "terms-float", "terms-bool", "T-str", "alpha-str", "beta-bool",
             "methods-int", "methods-list-int", "formats-int", "preset-list", "out-int"],
    )
    def test_wrong_typed_config_value_exit_code(self, key, value, tmp_path, capsys):
        path = write_config(tmp_path, {"preset": "c-nonzero", "alpha": 0.7, key: value})
        assert cli.main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    @pytest.mark.parametrize(
        "argv",
        [["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--T", "inf"],
         ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--T", "1e300",
          "--dt", "1e-300"],
         ["population", "--alpha", "0.5", "--lambda", "0.1", "--mu", "0.1", "--T", "inf"],
         ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--T", "1e200",
          "--dt", "1e-100"],
         ["population", "--alpha", "0.5", "--lambda", "0.1", "--mu", "0.1", "--T", "1e200",
          "--dt", "1e-100"]],
        ids=["compare-T", "compare-T-over-dt", "population-T", "compare-huge-N",
             "population-huge-N"],
    )
    def test_non_finite_grid_exit_code(self, argv, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "T=" in err and "dt=" in err

    @pytest.mark.parametrize(
        "key, value",
        [("mu", "inf"), ("gamma", "inf"), ("gamma", "nan"), ("beta", "inf"), ("beta", "nan"),
         ("mu", "-inf")],
    )
    def test_non_finite_rate_exit_code(self, key, value, capsys):
        argv = ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--methods", "pece,l1",
                f"--{key}={value}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {key} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize(
        "rates",
        [["--beta", "5e-324", "--gamma", "10"], ["--gamma", "1e308", "--mu", "1e308"]],
        ids=["quotient-underflows", "sum-overflows"],
    )
    def test_sigma_zero_exit_code(self, rates, capsys):
        argv = ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--methods", "pece,l1",
                *rates]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sigma = beta / (gamma + mu) = 0.0 from beta=")
        assert err.count("\n") == 1
        assert all(f"{key}=" in err for key in ("beta", "gamma", "mu"))

    @pytest.mark.parametrize(
        "flag, value",
        [("lambda", "inf"), ("lambda", "-inf"), ("mu", "nan"), ("n0", "inf"), ("n0", "nan")],
    )
    def test_population_non_finite_input_exit_code(self, flag, value, capsys):
        argv = ["population", "--alpha", "0.6", "--lambda", "0.1", "--mu", "0.6",
                f"--{flag}={value}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {flag} must be finite, got {float(value)}\n")

    def test_population_negative_alpha_exit_code(self, capsys):
        argv = ["population", "--alpha", "-0.5", "--lambda", "0.1", "--mu", "0.6"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: alpha must be in (0, 1], got -0.5\n"

    # beta = 1e-300: sigma ~ 6e-300, so the default i0 = c/2 ~ -8.5e298; at
    # sigma = 1 with beta < 1/2 the default 1/(2 beta) exceeds 1
    @pytest.mark.parametrize(
        "rates, rule",
        [(["--preset", "c-nonzero", "--beta", "1e-300"], "c/2 = -8.499999999999999e+298"),
         (["--beta", "0.3", "--gamma", "0.1", "--mu", "0.2"], "1/(2 beta) = 1.6666666666666667")],
        ids=["c-over-2", "one-over-2-beta"],
    )
    def test_derived_default_i0_says_where_it_came_from(self, rates, rule, capsys):
        argv = ["compare", "--alpha", "0.7", "--methods", "pece,l1", *rates]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: i0 must be in [0, 1], got the default {rule}, derived from ")
        assert all(f"{key}=" in err for key in ("beta", "gamma", "mu"))
        assert cli.main(argv + ["--i0", "0.4"]) == 0

    # sigma ~ 1.00014 and b ~ 1.0e-4 at alpha = 0.01: M and both series radii
    # are past binary64 and are written as Infinity
    @pytest.mark.parametrize(
        "methods",
        [["--i0", "0.1", "--methods", "pece,l1"], ["--methods", "series,pece,l1"]],
        ids=["pece-l1", "series-pece-l1"],
    )
    def test_derived_values_past_binary64_exit_code(self, methods, tmp_path, capsys):
        argv = ["compare", "--beta", "0.7", "--gamma", "0.69", "--mu", "0.0099",
                "--alpha", "0.01", *methods, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        derived = json.loads((tmp_path / "manifest.json").read_text())["derived"]
        assert derived["M"] == float("inf") and derived["r_alpha"] == float("inf")

    # b = 2 at alpha = 1e-4: b^(1/alpha) is past binary64.  The schemes do
    # not use the series hypothesis, and a series run is refused by it
    @pytest.mark.parametrize(
        "methods, code, err",
        [("pece,l1", 0, ""),
         ("series,pece,l1", 1, "error: carrying-capacity series requires c > 0 and "
                               "b^(1/alpha) < 1, got c=0.6666666666666666, b=2.0\n")],
        ids=["pece-l1", "series-pece-l1"],
    )
    def test_hypothesis_power_past_binary64_exit_code(self, methods, code, err, capsys):
        argv = ["compare", "--beta", "3", "--gamma", "0.5", "--mu", "0.5",
                "--alpha", "0.0001", "--i0", "0.1", "--methods", methods]
        assert cli.main(argv) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "argv",
        [["table1", "--formats", ""], ["c0-suite", "--formats", ","]],
        ids=["table1", "c0-suite"],
    )
    def test_empty_formats_exit_code(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "formats" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--lambda", "0.3"],
         ["solve", "--method", "pece", "--preset", "c-nonzero", "--alpha", "0.7",
          "--lambda", "0.3"]],
        ids=["compare", "solve"],
    )
    def test_lambda_flag_only_on_population(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--lambda" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, capsys):
        rc = cli.main(
            ["population", "--alpha", "0.5", "--lambda", "5.0", "--mu", "0.0",
             "--T", "100", "--dt", "50"]
        )
        assert rc == 2

    def test_population_overflow_exit_code(self, capsys):
        # N0 E_0.6(t^0.6) is past binary64 from t = 0.5 on; numpy warns nothing
        argv = ["population", "--alpha", "0.6", "--lambda", "1", "--mu", "0", "--n0", "1e308",
                "--T", "1", "--dt", "0.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("numeric failure: N(t) = N0 E_alpha((lambda - mu) t^alpha) ")
        assert "overflowed at t=0.5 " in err

    def test_coeffs_out_creates_parent_directories(self, tmp_path, capsys):
        out = tmp_path / "nope" / "x.csv"
        assert cli.main(["coeffs", "--kind", "a", "--alpha", "0.5", "--out", str(out)]) == 0
        assert out.read_text().startswith("k,value\n0,0.5\n")
        assert capsys.readouterr().out == ""

    COEFFS = ["coeffs", "--kind", "euler", "--alpha", "0.5"]
    POPULATION = ["population", "--alpha", "0.5", "--lambda", "0.2", "--mu", "0.3"]
    PRESET = ["--preset", "c-nonzero", "--alpha", "0.7"]

    @pytest.mark.parametrize(
        "argv, out, named, printed",
        [
            (COEFFS, ".", ".", 0),
            (COEFFS, "file/x.csv", "file/x.csv", 0),
            (POPULATION, ".", ".", 0),
            (POPULATION, "file/x.csv", "file/x.csv", 0),
            (["compare", *PRESET, "--methods", "pece,l1"], "d", "d/pece.csv", 1),
            (["solve", "--method", "pece", *PRESET], "file/run", "file/run/pece.csv", 0),
            (["table1"], "d", "d/table1.csv", 0),
        ],
        ids=[
            "coeffs-directory", "coeffs-under-a-file",
            "population-directory", "population-under-a-file",
            "compare-csv-is-a-directory", "solve-under-a-file", "table1-csv-is-a-directory",
        ],
    )
    def test_unwritable_out_exit_code(self, argv, out, named, printed, tmp_path, capsys):
        # an OSError from --out is a validation error naming the file it
        # could not write, not a traceback.  `file` is a regular file; a
        # named path outside it is made a directory.  `printed` counts the
        # stdout lines written before the failure (compare's pair line).
        (tmp_path / "file").write_text("")
        if not named.startswith("file"):
            (tmp_path / named).mkdir(parents=True, exist_ok=True)
        assert cli.main(argv + ["--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {tmp_path / named}: ")
        assert len(captured.out.splitlines()) == printed
        assert str(tmp_path) not in captured.out

    def test_c0_suite_prints_one_line_per_alpha(self, entries, capsys):
        assert cli.main(["c0-suite"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(entries) == len(harness.C0_SUITE_ALPHAS)
        for line, e in zip(lines, entries):
            status = (
                "converged on the whole grid" if e.series_diverged_at is None
                else f"series lost convergence at t={e.series_diverged_at:g}"
            )
            assert line == (
                f"alpha={e.alpha:g}: {status}; schemes bounded in [0,1]: "
                f"{e.schemes_bounded}; crossing nodes {e.crossing}"
            )
        assert lines[0].startswith("alpha=0.99: converged on the whole grid; ")
        assert lines[2].startswith("alpha=0.5: series lost convergence at t=")

    def test_population_csv(self, tmp_path, capsys):
        argv = ["population", "--alpha", "0.6", "--lambda", "0.1", "--mu", "0.6",
                "--T", "1", "--dt", "0.25"]
        grid = TimeGrid(1.0, 0.25)
        n = population_curve(0.6, 0.1, 0.6, 1.0, grid)
        want = harness.csv_text("t,N", zip(grid.nodes().tolist(), n.tolist()))
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (want, "")
        out = tmp_path / "n.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr() == (f"{out}\n", "")
        assert out.read_text() == want and len(want.splitlines()) == 6

    def test_solve_out_prints_each_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["solve", "--method", "pece", *self.PRESET, "--formats", "csv,svg"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        names = sorted(Path(f).name for f in printed)
        assert names == ["manifest.json", "pece.csv", "trajectories.svg"]
        assert sorted(printed) == sorted(str(f) for f in out.iterdir())

    def test_svg_only_run_writes_its_manifest(self, tmp_path, capsys):
        # every emitted run is reproducible from its manifest, whatever its formats
        out = tmp_path / "run"
        argv = ["solve", "--method", "pece", *self.PRESET, "--out", str(out), "--formats", "svg"]
        assert cli.main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "trajectories.svg"]
        want = preset_config("c-nonzero", 0.7, methods=("pece",), out=str(out), formats="svg")
        assert load_config(out / "manifest.json") == want

    def test_table1_emits_files(self, tmp_path, capsys):
        rc = cli.main(["table1", "--out", str(tmp_path / "t1")])
        assert rc == 0
        assert (tmp_path / "t1" / "table1.csv").exists()

    def test_solve_method_overrides_config_methods(self, tmp_path, capsys):
        raw = {"preset": "c-nonzero", "alpha": 0.7, "methods": ["pece", "l1"]}
        p = write_config(tmp_path, raw)
        assert cli.main(["solve", "--method", "series", "--config", str(p)]) == 0
        cfg = preset_config("c-nonzero", 0.7, methods=("series",))
        out = capsys.readouterr().out
        assert out == harness.trajectory_csv(harness.solve_method(cfg, Method.SERIES))
        assert len(out.splitlines()) == 102  # header + 101 nodes

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"preset": "c-nonzero", "alpha": 0.7}))
        rc = cli.main(
            ["solve", "--method", "pece", "--config", str(p), "--T", "1.0", "--dt", "0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 12  # header + 11 nodes


class TestSharedParser:
    """Calls in one process share one parser; no call leaks into the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_default_order_after_explicit_one(self, capsys):
        argv = ["coeffs", "--kind", "euler", "--alpha", "0.5"]
        assert cli.main(argv + ["-K", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 42  # header + 41 rows

    def test_no_out_after_out(self, tmp_path, capsys):
        argv = ["compare", "--preset", "c-nonzero", "--alpha", "0.7", "--methods", "series,pece,l1"]
        assert cli.main(argv + ["--out", str(tmp_path / "d")]) == 0
        assert str(tmp_path) in capsys.readouterr().out
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 3 and str(tmp_path) not in out

    def test_good_call_after_bad_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--kind", "euler", "--alpha", "zero"])
        assert exc.value.code == 2
        assert cli.main(["coeffs", "--kind", "a", "--alpha", "0.5", "-K", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[:2] == ["k,value", "0,0.5"]

    def test_help_repeats_byte_identical(self, capsys):
        def helps():
            texts = []
            for sub in ([], ["coeffs"], ["solve"], ["compare"], ["table1"], ["c0-suite"],
                        ["population"]):
                with pytest.raises(SystemExit) as exc:
                    cli.main(sub + ["--help"])
                assert exc.value.code == 0
                texts.append(capsys.readouterr())
            return texts

        first = helps()
        assert all(t.out.startswith("usage: fracsis") and t.err == "" for t in first)
        assert helps() == first


#: the values of --terms and --formats that table1 and c0-suite must refuse
BAD_TERMS = [0, -3, 201, 10**9]
BAD_FORMATS = ["", ",", "xml", "csv,xml", "CSV"]

#: the rates, alpha, i0 and n0 of the argv gate: decimals and the float
#: boundaries
GATE_NUMBERS = st.decimals(-3, 3, places=3).map(float) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan]
)


@st.composite
def gate_values(draw, required, optional=(), nonneg=()):
    """A value per key: from ``GATE_NUMBERS`` (at least 0 for the ``nonneg``
    keys) for up to two drawn keys, a decimal in (0, 1] for the others, or none
    for an ``optional`` one, so that many calls run past validation."""
    keys = required + optional
    odd = draw(st.sets(st.sampled_from(keys), max_size=2))
    values = {}
    for k in keys:
        if k in odd:
            strategy = GATE_NUMBERS.filter(lambda v: not v < 0) if k in nonneg else GATE_NUMBERS
        else:
            strategy = st.decimals("0.001", 1, places=3).map(float)
            if k in optional:
                strategy = st.none() | strategy
        values[k] = draw(strategy)
    return values


@st.composite
def gate_grid(draw):
    """``--T``/``--dt`` flags with T/dt <= 200, a non-positive T, or none."""
    if draw(st.booleans()):
        return []
    dt = float(draw(st.decimals("0.001", 1, places=3)))
    T = draw(st.integers(1, 200).map(lambda n: n * dt) | st.sampled_from([0.0, -0.0, -1.0]))
    return [f"--T={T}", f"--dt={dt}"]


def gate_flags(values):
    """``--key=value`` for each value given, in a form argparse never takes
    for an option (as it would ``-inf``)."""
    return [f"--{key}={value}" for key, value in values.items() if value is not None]


class TestCliArgvGate:
    """Every argv of valid syntax exits 0 with finite output, 1 with an
    ``error:`` line that names a key of the argv or the required keys it
    lacks, or 2 with a ``numeric failure:`` line; none raises."""

    @staticmethod
    def assert_outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        event(f"exit {code}")
        if code == 0:
            cells = [c for c in re.split(r"[,:\s]+", out) if c]
            numbers = []
            for c in cells:
                try:
                    numbers.append(float(c))
                except ValueError:
                    pass
            assert numbers and all(map(math.isfinite, numbers)), (argv, out)
        else:
            prefix = {1: "error: ", 2: "numeric failure: "}.get(code)
            assert prefix and err.startswith(prefix) and err.count("\n") == 1, (argv, code, err)
        if code == 1:
            # each key as its flag spells it, e.g. n0 for --n0 and K for -K
            keys = {a.lstrip("-").partition("=")[0] for a in argv if a.startswith("-")}
            missing = re.match(r"error: missing required config keys: (.*)", err)
            if missing:
                lacked = set(re.findall(r"\w+", missing[1]))
                assert lacked and not lacked & keys, (argv, err)
            else:
                assert keys & set(re.findall(r"\w+", err)), (argv, err)
        return code

    @settings(max_examples=500, deadline=None)
    @given(
        solve=st.booleans(),
        methods=st.lists(st.sampled_from([m.value for m in Method]), min_size=1, max_size=4,
                         unique=True),
        preset=st.sampled_from([None, *sorted(harness.PRESETS)]),
        values=gate_values(("alpha",), ("beta", "gamma", "mu", "i0")),
        terms=st.none() | st.sampled_from([0, 1, -3, 120, 200, 201]),
        grid=gate_grid(),
    )
    def test_solve_and_compare(self, solve, methods, preset, values, terms, grid):
        if solve:
            argv = ["solve", f"--method={methods[0]}"]
        else:
            argv = ["compare", f"--methods={','.join(methods)}"]
        values.update(preset=preset, terms=terms)
        self.assert_outcome(argv + gate_flags(values) + grid)

    @settings(max_examples=300, deadline=None)
    @given(
        values=gate_values(("alpha", "lambda", "mu"), ("n0",), nonneg=("lambda", "mu")),
        grid=gate_grid(),
    )
    def test_population(self, values, grid):
        self.assert_outcome(["population", *gate_flags(values), *grid])

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["euler", "a"]),
        values=gate_values(("alpha",)),
        K=st.none() | st.integers(0, 200) | st.sampled_from([-1, -7, 201, 10**9]),
    )
    def test_coeffs(self, kind, values, K):
        order = [] if K is None else [f"-K={K}"]
        self.assert_outcome(["coeffs", f"--kind={kind}", *gate_flags(values), *order])

    @settings(max_examples=60, deadline=None)
    @given(
        table1=st.booleans(),
        terms=st.none() | st.sampled_from([1, 200, *BAD_TERMS]),
        formats=st.none() | st.sampled_from(["csv", "json,svg", *BAD_FORMATS]),
    )
    def test_table1_and_c0_suite(self, table1, terms, formats):
        # only argvs that must be refused: a whole suite takes about a second
        values = {"terms": terms if table1 else None, "formats": formats}
        assume(values["terms"] in BAD_TERMS or formats in BAD_FORMATS)
        assert self.assert_outcome(["table1" if table1 else "c0-suite", *gate_flags(values)]) == 1

    @pytest.mark.xfail(strict=True, reason="population accepts a negative rate (ROADMAP item 3)")
    def test_population_refuses_a_negative_rate(self, capsys):
        # it exits 0 with a decaying N(t), though ModelParams refuses a
        # negative rate
        assert cli.main(["population", "--alpha", "0.6", "--lambda", "-0.5", "--mu", "0.1"]) == 1
        assert capsys.readouterr().err.startswith("error: lambda")
