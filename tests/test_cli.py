import importlib.util
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjc
from gjc import analytic, cli, model, oracle
from gjc.cli import build_parser, main, parse_initial
from gjc.errors import ConfigError
from gjc.model import ModelSpec, registry, registry_model

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("check_csv_digits", TOOLS / "check_csv_digits.py")
check_csv_digits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_csv_digits)


def read_csv(path):
    """Split a gjc CSV into (header_lines, column_names, data array)."""
    header, names, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif names is None:
            names = line.split(",")
        else:
            rows.append(line.split(","))
    return header, names, rows


class TestList:
    def test_eight_rows(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9  # header + 8 models

    def test_jc_row(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        jc_row = next(l for l in out.splitlines() if l.startswith("jc "))
        assert "0.1" in jc_row and " 1 " in jc_row

    def test_q_deformed_row(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("q-deformed"))
        assert "q=0.9" in row


class TestSpectrum:
    def test_jc_rabi_column(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--model", "jc", "--nmax", "16", "--out", str(out)]) == 0
        header, names, rows = read_csv(out)
        assert names == ["kind", "n_lower", "N", "beta", "Omega", "E_plus", "E_minus"]
        dark = [r for r in rows if r[0] == "dark"]
        manifold = [r for r in rows if r[0] == "manifold"]
        assert len(dark) == 1
        assert len(manifold) == 16
        for r in manifold:
            n = int(r[1])
            assert float(r[4]) == pytest.approx(0.2 * math.sqrt(n + 1), rel=1e-14)

    def test_dark_rows_count_equals_k(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--model", "stark-two-photon", "--nmax", "12", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert sum(1 for r in rows if r[0] == "dark") == 2

    def test_decoupled_beta_column(self, tmp_path):
        doc = registry_model("jc").to_dict()
        doc["g"] = 0.0
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--nmax", "8", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        for r in rows:
            if r[0] == "manifold":
                assert float(r[3]) in (0.0, math.pi)

    def test_negative_coupling_beta_wraps_to_three_halves_pi(self, tmp_path):
        # resonant, g < 0: atan2 gives -pi/2, and beta is wrapped into [0, 2pi)
        doc = {
            "omega": 1.0, "omega0": 1.0, "g": -0.1, "k": 1,
            "f": {"kind": "One", "params": []},
            "F": {"kind": "Zero", "params": []},
            "G": {"kind": "Zero", "params": []},
        }
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--nmax", "8", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        betas = [r[3] for r in rows if r[0] == "manifold"]
        assert betas == ["4.7123889803846897e+00"] * 8

    def test_default_nmax(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--model", "jc", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert sum(1 for r in rows if r[0] == "manifold") == 64

    def test_header_carries_manifest(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--model", "jc", "--nmax", "8", "--out", str(out)])
        header, _, _ = read_csv(out)
        assert header[0].startswith("# format: gjc-csv-1")
        manifest = json.loads(header[1].removeprefix("# manifest: "))
        assert manifest == {"mode": "spectrum", "model": "jc", "n_max": 8}


class TestEvolve:
    def test_both_engines_residuals(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "evolve",
                "--model",
                "jc",
                "--initial",
                "coherent:g:3.0",
                "--tmax",
                "20",
                "--points",
                "101",
                "--engine",
                "both",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, names, rows = read_csv(out)
        assert names == [
            "t",
            "sigma_z",
            "n_mean",
            "x_mean",
            "y_mean",
            "resid_sigma_z",
            "resid_n_mean",
            "resid_x_mean",
            "resid_y_mean",
        ]
        data = np.array([[float(x) for x in r] for r in rows])
        assert data.shape == (101, 9)
        # initial coherent means
        assert data[0, 1] == pytest.approx(-1.0, abs=1e-9)
        assert data[0, 2] == pytest.approx(9.0, abs=1e-9)
        assert data[0, 3] == pytest.approx(3.0, abs=1e-9)
        assert data[0, 4] == pytest.approx(0.0, abs=1e-9)
        # path-equivalence residual columns
        assert np.max(data[:, 5:]) <= 1e-8

    def test_deterministic_output(self, tmp_path):
        args = [
            "evolve",
            "--model",
            "kerr-two-photon",
            "--tmax",
            "10",
            "--points",
            "11",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_decoupled_core_columns(self, tmp_path):
        doc = registry_model("jc").to_dict()
        doc["g"] = 0.0
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        main(
            [
                "evolve",
                "--config",
                str(cfg),
                "--initial",
                "coherent:g:3.0",
                "--tmax",
                "50",
                "--points",
                "26",
                "--out",
                str(out),
            ]
        )
        _, _, rows = read_csv(out)
        for r in rows:
            assert float(r[1]) == pytest.approx(-1.0, abs=1e-10)

    def test_fock_initial_oracle_engine(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "evolve",
                "--model",
                "jc",
                "--initial",
                "fock:e:0",
                "--tmax",
                "5",
                "--points",
                "6",
                "--engine",
                "oracle",
                "--nmax",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_exit_code(self, tmp_path, capsys):
        code = main(
            ["evolve", "--model", "jc", "--initial", "coherent:g:3.0", "--nmax", "12"]
        )
        assert code == 3
        assert "truncation" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("alpha", ["38", "38.5", "39"])
    def test_coherent_start_weight_below_normal_range(self, alpha, tmp_path):
        # e^{-|alpha|^2/2} is subnormal from |alpha| ~ 37.6 and 0 from ~ 38.6
        out = tmp_path / "trace.csv"
        argv = ["evolve", "--model", "jc", "--nmax", "3000", "--initial", f"coherent:g:{alpha}"]
        assert main(argv + ["--points", "3", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][2]) == pytest.approx(float(alpha) ** 2, rel=1e-12)

    def test_large_coherent_suggested_nmax_succeeds(self, tmp_path, capsys):
        argv = ["evolve", "--model", "jc", "--initial", "coherent:g:39", "--points", "3"]
        assert main(argv + ["--nmax", "1000"]) == 3
        suggested = re.search(r"n_max >= (\d+)", capsys.readouterr().err).group(1)
        out = tmp_path / "trace.csv"
        assert main(argv + ["--nmax", suggested, "--out", str(out)]) == 0

    @pytest.mark.parametrize("alpha", ["1e6", "1e150"])
    def test_huge_coherent_alpha_exit_code(self, alpha, tmp_path, capsys):
        # the support of |alpha|^2 ~ 1e12 or 1e300 photons is never built
        out = tmp_path / "trace.csv"
        argv = ["evolve", "--model", "jc", "--nmax", "64", "--initial", f"coherent:g:{alpha}"]
        assert main(argv + ["--points", "3", "--out", str(out)]) == 3
        assert "retry with n_max >=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_top_fock_level_exit_code(self, engine, tmp_path, capsys):
        # both engines apply the same guard-level leak check
        out = tmp_path / "trace.csv"
        argv = ["evolve", "--model", "jc", "--nmax", "8", "--initial", "fock:e:8"]
        assert main(argv + ["--engine", engine, "--out", str(out)]) == 3
        assert "truncation" in capsys.readouterr().err.lower()
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_leak_suggestion_succeeds(self, entry, engine, tmp_path, capsys):
        # at n_max = k the start |e, 0> feeds the top 2k levels; the
        # suggested cutoff must clear them
        argv = ["evolve", "--model", entry.name, "--initial", "fock:e:0", "--engine", engine]
        out = tmp_path / "trace.csv"
        code = main([*argv, "--nmax", str(entry.spec.k), "--out", str(out)])
        if code == 0:
            return
        assert code == 3
        suggested = re.search(r"suggestion: (\d+)\)", capsys.readouterr().err).group(1)
        assert main([*argv, "--nmax", suggested, "--out", str(out)]) == 0

    def test_large_spectrum_both_engines(self, tmp_path):
        # max |E| ~ 2.4e6 at this cutoff; the eigenpair check scales with it
        out = tmp_path / "trace.csv"
        argv = ["evolve", "--model", "q-deformed", "--nmax", "256", "--initial", "coherent:g:10"]
        assert main(argv + ["--engine", "both", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        data = np.array([[float(x) for x in r] for r in rows])
        assert data.shape == (2001, 9)
        assert np.all(np.isfinite(data))


class TestVerify:
    def test_jc_passes(self, capsys):
        assert main(["verify", "--model", "jc", "--nmax", "32"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_all_registry_models_pass(self, capsys):
        from gjc.model import registry

        for entry in registry():
            assert main(["verify", "--model", entry.name, "--nmax", "64"]) == 0, entry.name
        capsys.readouterr()

    def test_unreachable_threshold_fails(self, tmp_path, capsys):
        # exit 2 is a finished run: its report replaces --out
        out = tmp_path / "report.json"
        argv = ["verify", "--model", "q-deformed", "--nmax", "32", "--threshold", "1e-16"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "FAIL" in capsys.readouterr().out
        assert json.loads(out.read_text())["pass"] is False

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert (
            main(["verify", "--model", "kerr-two-photon", "--nmax", "32", "--out", str(out)])
            == 0
        )
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["manifest"]["guard"] == 4
        assert all(v <= 1e-10 for v in report["residuals"].values())

    def test_guard_flag(self):
        assert main(["verify", "--model", "jc", "--nmax", "32", "--guard", "6"]) == 0


class TestManifest:
    """The manifest is the parsed command line, and rerunning it alone
    reproduces the output."""

    @staticmethod
    def manifest_of(path):
        text = path.read_text()
        if text.startswith("{"):
            return json.loads(text)["manifest"]
        return json.loads(text.splitlines()[1].removeprefix("# manifest: "))

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["spectrum", "--model", "kerr-two-photon", "--nmax", "12"], "model n_max"),
            (
                ["evolve", "--model", "jc", "--nmax", "20", "--initial", "coherent:e:1.5",
                 "--tmax", "7.25", "--points", "31", "--engine", "both"],
                "model n_max initial t_max points engine",
            ),
            (
                ["verify", "--model", "q-deformed", "--nmax", "24", "--guard", "5",
                 "--threshold", "3e-9"],
                "model n_max guard threshold",
            ),
            (["evolve", "--config", "model.json", "--nmax", "10", "--initial", "fock:g:2"],
             "config n_max initial t_max points engine"),
        ],
        ids=["spectrum", "evolve-both", "verify", "config"],
    )
    def test_rerun_from_the_manifest(self, argv, keys, tmp_path, capsys, monkeypatch):
        doc = {**registry_model("kerr-two-photon").to_dict(), "g": 0.3}
        (tmp_path / "model.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        first, second = tmp_path / "first.out", tmp_path / "second.out"
        assert main([*argv, "--out", str(first)]) == 0
        manifest = self.manifest_of(first)
        parsed = vars(build_parser().parse_args([*argv, "--out", str(first)]))
        options = {k for k, v in parsed.items() if v is not None} - {"command", "out"}
        assert set(manifest) == set(keys.split()) | {"mode"}
        assert manifest == {**{k: parsed[k] for k in options}, "mode": argv[0]}

        rerun = [manifest["mode"]]
        for key, value in manifest.items():
            if key != "mode":
                rerun += ["--" + key.replace("_", ""), str(value)]
        first_stdout = capsys.readouterr().out
        assert main([*rerun, "--out", str(second)]) == 0
        assert capsys.readouterr().out == first_stdout
        assert second.read_bytes() == first.read_bytes()

    def test_config_path_starting_with_a_brace(self, tmp_path, monkeypatch):
        # a --config value is always a path, never a JSON text
        (tmp_path / "{m}.json").write_text(json.dumps(registry_model("jc").to_dict()))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", "{m}.json", "--nmax", "8", "--out", str(out)]) == 0
        assert self.manifest_of(out)["config"] == "{m}.json"


class TestErrors:
    def test_unknown_model_exit1(self, capsys):
        assert main(["spectrum", "--model", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_model_or_config_required(self, capsys):
        assert main(["spectrum"]) == 1

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{broken")
        assert main(["spectrum", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tmax", "nan"),
            ("--tmax", "inf"),
            ("--initial", "coherent:g:nan"),
            ("--initial", "coherent:e:inf"),
            ("--initial", "coherent:g:1+infj"),
        ],
    )
    def test_non_finite_input(self, flag, value, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["evolve", "--model", "jc", flag, value, "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--model", "q-deformed", "--nmax", "8000"],
            ["verify", "--model", "q-deformed", "--nmax", "8000"],
            ["spectrum", "--config", "power200.json", "--nmax", "64"],
            ["spectrum", "--config", "k400.json", "--nmax", "450"],
            ["evolve", "--config", "k400.json", "--nmax", "450"],
            ["verify", "--config", "k400.json", "--nmax", "800"],
        ],
        ids=[
            "q-bracket-spectrum",
            "q-bracket-verify",
            "power-200",
            "k400-spectrum",
            "k400-evolve",
            "k400-verify",
        ],
    )
    def test_overflow_exit1(self, argv, tmp_path, capsys, monkeypatch):
        # an overflowing model or cutoff is a configuration error: one line, no output
        zero = {"kind": "Zero", "params": []}
        common = {"omega": 1.0, "omega0": 1.0, "g": 0.1, "F": zero, "G": zero}
        docs = {
            "power200.json": {**common, "k": 1, "f": {"kind": "PowerN", "params": [200]}},
            "k400.json": {**common, "k": 400, "f": {"kind": "One", "params": []}},
        }
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "result.out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_overflow_after_a_leaking_chunk_exit1(self, tmp_path, capsys):
        # t*E overflows from t ~ 3 on; the leak of the first time chunk does
        # not hide the NaN of later ones (exit 1, as over the whole grid)
        one, zero = {"kind": "One", "params": []}, {"kind": "Zero", "params": []}
        doc = {"omega": 1.0, "omega0": 1.0, "g": 1e306, "k": 1, "f": one, "F": zero, "G": zero}
        cfg, out = tmp_path / "model.json", tmp_path / "trace.csv"
        cfg.write_text(json.dumps(doc))
        argv = ["evolve", "--config", str(cfg), "--nmax", "4096", "--initial", "fock:e:4096"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite result: t*E overflows at --tmax 200.0 with --nmax 4096"]
        assert not out.exists()

    def test_overflow_of_the_final_time_names_tmax(self, tmp_path, capsys):
        # refused before the write: no file, and nothing on stdout
        out = tmp_path / "trace.csv"
        argv = ["evolve", "--model", "jc", "--tmax", "1e308", "--points", "3"]
        for target in (["--out", str(out)], []):
            assert main(argv + target) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: non-finite result: t*E overflows at --tmax 1e+308 with --nmax 64"
            ]
            assert captured.out == ""
        assert not out.exists()

    # F = -G, and the ground diagonal 2 G(n) overflows on the dark levels alone
    DARK_OVERFLOW = {"k": 4, "F": {"kind": "Poly", "params": [-1.7e308, 2.5e307]},
                     "G": {"kind": "Poly", "params": [1.7e308, -2.5e307]}}

    @staticmethod
    def _model_file(path, doc):
        zero = {"kind": "Zero", "params": []}
        path.write_text(json.dumps({"omega": 1.0, "omega0": 1.0, "g": 0.1, "f": {"kind": "One", "params": []},
                                    "F": zero, "G": zero, **doc}))
        return str(path)

    @pytest.mark.parametrize("engine", ["analytic", "oracle", "both"])
    @pytest.mark.parametrize(
        "doc, n_max",
        [
            # (m+400)!/m! overflows: every coupling is infinite
            ({"k": 400, "f": {"kind": "One", "params": []}}, 450),
            (DARK_OVERFLOW, 6),
        ],
        ids=["coupling", "dark-levels"],
    )
    def test_overflowing_model_names_nmax_not_tmax(self, engine, doc, n_max, tmp_path, capsys):
        # the model overflows whatever the final time: --tmax is not at fault
        out = tmp_path / "trace.csv"
        argv = ["evolve", "--config", self._model_file(tmp_path / "model.json", doc), "--nmax", str(n_max),
                "--tmax", "1e-300", "--initial", "fock:e:0", "--engine", engine]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: non-finite result: the model overflows at n_max={n_max}"]
        assert not out.exists()

    def test_spectrum_of_overflowing_dark_levels_names_nmax(self, tmp_path, capsys):
        # the manifolds are finite at n_max 6; the dark levels are refused
        # before the write: no file, and nothing on stdout
        out = tmp_path / "spectrum.csv"
        argv = ["spectrum", "--config", self._model_file(tmp_path / "model.json", self.DARK_OVERFLOW),
                "--nmax", "6"]
        for target in (["--out", str(out)], []):
            assert main(argv + target) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == ["error: non-finite result: the model overflows at n_max=6"]
            assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_non_finite_threshold(self, value, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--model", "jc", "--nmax", "16", f"--threshold={value}"]
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists()

    def test_negative_exponent_tmax_runs(self, tmp_path):
        # a negative value in exponent notation is a value, not an option
        runs = {}
        for value in ("-1e-3", "-0.001"):
            out = tmp_path / f"trace{value}.csv"
            argv = ["evolve", "--model", "jc", "--tmax", value, "--points", "2", "--out", str(out)]
            assert main(argv) == 0
            runs[value] = out.read_bytes()
        assert runs["-1e-3"] == runs["-0.001"]

    def test_negative_exponent_threshold_refused(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--model", "jc", "--nmax", "16", "--threshold", "-1e-300"]
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --threshold must be finite and >= 0, got -1e-300"]
        assert not out.exists()

    def test_negative_exponent_nmax_refused(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["evolve", "--model", "jc", "--nmax", "-1e3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: argument --nmax: invalid int value: '-1e3'"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, owner, callee, detail",
        [
            (["evolve", "--points", "1000000000"], np, "linspace",
             "Unable to allocate 7.45 GiB for an array with shape (1000000000,)"),
            (["verify"], cli, "verify_relations", ""),
        ],
        ids=["evolve", "verify"],
    )
    def test_out_of_memory_exit1(self, argv, owner, callee, detail, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError(detail)

        monkeypatch.setattr(owner, callee, exhausted)
        out = tmp_path / "result.out"
        assert main([*argv, "--model", "jc", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: out of memory: {detail or 'allocation failed'}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault",
        [
            {"omega": "1"},
            {"omega": None},
            {"g": True},
            {"f": {"kind": "One", "params": 5}},
            {"f": {"kind": "One", "params": "ab"}},
            {"G": {"kind": "Kerr", "params": None}},
            {"G": {"kind": "Kerr", "params": [{"x": 1}]}},
        ],
        ids=[
            "omega-string",
            "omega-null",
            "g-bool",
            "params-number",
            "params-string",
            "params-null",
            "params-object",
        ],
    )
    @pytest.mark.parametrize("command", ["spectrum", "evolve", "verify"])
    def test_malformed_config_exit1(self, command, fault, tmp_path, capsys):
        zero = {"kind": "Zero", "params": []}
        doc = {"omega": 1.0, "omega0": 1.0, "g": 0.1, "k": 1, "f": zero, "F": zero, "G": zero}
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({**doc, **fault}))
        out = tmp_path / "result.out"
        assert main([command, "--config", str(cfg), "--nmax", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind", [[], 5, None, "Banana"], ids=repr)
    def test_unknown_function_kind_exit1(self, kind, tmp_path, capsys):
        zero = {"kind": "Zero", "params": []}
        doc = {"omega": 1.0, "omega0": 1.0, "g": 0.1, "k": 1, "f": zero, "F": zero}
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({**doc, "G": {"kind": kind, "params": []}}))
        assert main(["spectrum", "--config", str(cfg), "--nmax", "8"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: unknown function kind {kind!r}"]

    def test_corrupted_eigenvector_exit1(self, tmp_path, capsys, monkeypatch):
        # the oracle's eigen-residual check is a refusal, not a traceback
        eigh = np.linalg.eigh

        def corrupted(mat):
            vals, vecs = eigh(mat)
            vecs = vecs.copy()
            vecs[:, 3] = np.roll(vecs[:, 3], 1)
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        out = tmp_path / "trace.csv"
        argv = ["evolve", "--model", "jc", "--nmax", "16", "--initial", "coherent:g:1.0"]
        assert main(argv + ["--engine", "both", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: eigendecomposition residual")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nmax", "16", "--initial", "coherent:g:1.0", "--engine", "both"],
            # the drift is reported before this start's leak (exit 1, not 3)
            ["--nmax", "64", "--initial", "fock:e:62", "--tmax", "8", "--points", "5000",
             "--engine", "oracle"],
            ["--nmax", "16", "--initial", "coherent:g:1.0"],
        ],
        ids=["both", "oracle-leaking", "analytic"],
    )
    def test_norm_drift_exit1(self, argv, tmp_path, capsys, monkeypatch):
        spectrum, dressed_states = oracle.spectrum, analytic.dressed_states

        def growing(h):
            vals, vecs = spectrum(h)
            return vals + 1e-12j, vecs

        if "--engine" in argv:
            # eigenvalues with an imaginary part of 1e-12: the norm grows with t
            # and drifts past 1e-12 after the first block of time points
            monkeypatch.setattr(oracle, "spectrum", growing)
        else:
            # the closed-form dressed pairs scaled off unit norm
            monkeypatch.setattr(analytic, "dressed_states", lambda table: dressed_states(table) * (1 + 1e-9))
        out = tmp_path / "trace.csv"
        assert main(["evolve", "--model", "jc", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: propagation norm drift")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--model", "jc", "--points", "abc"],
            ["evolve", "--model", "jc", "--engine", "gpu"],
            ["evolve", "--model", "jc", "--nmax", "1.5"],
            ["simulate", "--model", "jc"],
            [],
            ["spectrum", "--model", "jc", "--config", "model.json"],
            ["evolve", "--model", "jc", "--config", "model.json"],
        ],
        ids=["points-abc", "engine-gpu", "nmax-float", "unknown-command", "no-command",
             "model-and-config-spectrum", "model-and-config-evolve"],
    )
    def test_malformed_command_line_exit1(self, argv, tmp_path, capsys, monkeypatch):
        # the parser refuses through the one ConfigError path: one line, exit 1
        zero = {"kind": "Zero", "params": []}
        doc = {"omega": 1.0, "omega0": 1.0, "g": 0.1, "k": 1, "f": zero, "F": zero, "G": zero}
        (tmp_path / "model.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "result.out"
        assert main([*argv, "--out", str(out)] if argv else argv) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""
        assert not out.exists()

    def test_verify_nmax_below_k_exit1(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", "jc", "--nmax", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == ["error: --nmax 0 must be >= k=1"]
        assert captured.out == ""
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evolve", "--help"])
        assert excinfo.value.code == 0
        assert "--initial" in capsys.readouterr().out

    def test_bad_initial_descriptor(self):
        assert main(["evolve", "--model", "jc", "--initial", "banana:g:1"]) == 1
        assert main(["evolve", "--model", "jc", "--initial", "fock:e"]) == 1
        assert main(["evolve", "--model", "jc", "--initial", "fock:x:1"]) == 1

    @pytest.mark.parametrize("command", ["spectrum", "evolve", "verify"])
    def test_out_in_a_missing_directory_exit1(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "result.out"
        assert main([command, "--model", "jc", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write --out {out}: No such file or directory"]
        assert list(tmp_path.iterdir()) == []

    def test_out_is_a_directory_exit1(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "results").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--model", "jc", "--nmax", "16", "--out", "results"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: cannot write --out results: Is a directory"]
        assert [p.name for p in tmp_path.rglob("*")] == ["results"]

    @staticmethod
    def _gjc(argv, stdout):
        src = os.path.dirname(os.path.dirname(gjc.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "gjc.cli", *argv]
        return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)

    def test_closed_stdout_exit1(self):
        # the reader goes away after the first line: one line on stderr, no
        # traceback and no 'Exception ignored' at interpreter shutdown
        proc = self._gjc(["spectrum", "--model", "jc", "--nmax", "200000"], subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"# format: ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert err.splitlines() == ["error: cannot write to stdout: Broken pipe"]

    def test_closed_unbuffered_stdout_beside_out_exit1(self, tmp_path, monkeypatch):
        # verify prints its table to stdout while its report goes to --out;
        # unbuffered, the print itself fails inside the command
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        out = tmp_path / "report.json"
        proc = self._gjc(["verify", "--model", "jc", "--nmax", "8", "--out", str(out)], subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert err.splitlines() == ["error: cannot write to stdout: Broken pipe"]

    def test_closed_buffered_stdout_beside_out_exit1(self, tmp_path, monkeypatch):
        # buffered, verify's table fails only at the final flush; the
        # interpreter's own flush at exit must not fail (and exit 120) again
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        out = tmp_path / "report.json"
        with self._gjc(["verify", "--model", "jc", "--nmax", "8", "--out", str(out)], subprocess.PIPE) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        assert err.splitlines() == ["error: cannot write to stdout: Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exit1(self):
        with open("/dev/full", "w") as full:
            proc = self._gjc(["spectrum", "--model", "jc", "--nmax", "20"], full)
            err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert err.splitlines() == ["error: cannot write to stdout: No space left on device"]


def _one_shot_csv(manifest, header, columns, labels=()):
    """The CSV text as one join of every line, each formatted on its own:
    the reference for the streamed writer.  `labels` holds (label, rows)
    runs over the rows of the equal-length `columns`, in order."""
    names = [label for label, rows in labels for _ in range(rows)]
    lines = []
    for i, values in enumerate(np.column_stack(columns).tolist()):
        cells = [f"{v:.16e}" for v in values]
        if labels:
            cells = [names[i], str(int(values[0]))] + cells[1:]
        lines.append(",".join(cells))
    manifest_json = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return "\n".join([f"# format: {cli.FORMAT_VERSION}", f"# manifest: {manifest_json}", header] + lines) + "\n"


class TestStreamedCsv:
    """_write_csv formats and writes CSV_BLOCK_ROWS rows of its columns at a
    time, labelled by (label, rows) runs or plain; its bytes are those of
    the one-shot join, as text and through _output to a file.  The columns
    mix scaled normals, random bit patterns, edge values and zeros of both
    signs, and a labelled table's row numbers have 1 to 7 digits, as
    `spectrum --nmax 1000000` writes."""

    B = cli.CSV_BLOCK_ROWS
    MANIFEST = {"mode": "spectrum", "model": "jc", "n_max": 8}
    EDGES = check_csv_digits.edge_values()

    @classmethod
    def _columns(cls, rows, labelled=False, seed=0):
        rng = np.random.default_rng([rows, seed])
        scale = 10.0 ** rng.integers(-300, 300, size=rows)
        bits = rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64)
        columns = [rng.standard_normal(rows) * scale, np.where(np.isfinite(bits), bits, 0.0),
                   rng.choice(cls.EDGES, size=rows)]
        columns[1][::7] = 0.0
        columns[0][3::7] = -0.0
        if labelled:
            digits = 1 + np.arange(rows) % 7
            columns.insert(0, rng.integers(10 ** (digits - 1) - (digits == 1), 10**digits))
        return columns

    def _write(self, sink, columns, labels=()):
        """_write_csv of the columns and label runs; returns the reference text."""
        cli._write_csv(sink, self.MANIFEST, "a,b,c", columns, labels)
        return _one_shot_csv(self.MANIFEST, "a,b,c", columns, labels)

    def _write_file(self, out, columns, labels=()):
        """_write_csv through _output(out); returns the reference text."""
        with cli._output(str(out)) as sink:
            return self._write(sink, columns, labels)

    @pytest.mark.parametrize("labelled", [False, True], ids=["plain", "labelled"])
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_file_bytes_are_the_one_shot_join(self, rows, labelled, tmp_path):
        out = tmp_path / "table.csv"
        expected = self._write_file(out, self._columns(rows, labelled), [("row", rows)] if labelled else ())
        assert out.read_bytes() == expected.encode()
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("labelled", [False, True], ids=["plain", "labelled"])
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_stdout_text_is_the_one_shot_join(self, rows, labelled):
        sink = io.StringIO()
        expected = self._write(sink, self._columns(rows, labelled), [("row", rows)] if labelled else ())
        assert sink.getvalue() == expected

    @pytest.mark.parametrize(
        "first, second", [(1, 2 * B + 1), (B - 1, 2), (B, B + 1), (B + 1, B - 1), (0, B), (B + 3, 0)]
    )
    def test_two_sections_are_the_one_shot_join(self, first, second, tmp_path):
        # as cmd_spectrum writes them: two label runs, the second starting
        # anywhere in a block or at its edge
        columns = list(map(np.concatenate, zip(self._columns(first, True), self._columns(second, True, 1))))
        labels = [("dark", first), ("manifold", second)]
        out = tmp_path / "table.csv"
        expected = self._write_file(out, columns, labels)
        assert out.read_bytes() == expected.encode()
        sink = io.StringIO()
        self._write(sink, columns, labels)
        assert sink.getvalue() == expected

    def test_failure_mid_stream_keeps_the_target(self, tmp_path, monkeypatch):
        out = tmp_path / "table.csv"
        out.write_text("previous\n")
        seen = []
        rows = cli._csv_rows

        def failing(columns, labels):
            # the first block is written before the row source fails
            yield next(rows(columns, labels))
            seen.extend(p.name for p in tmp_path.glob(".gjc-*.tmp"))
            raise RuntimeError("row source failed")

        monkeypatch.setattr(cli, "_csv_rows", failing)
        columns = self._columns(self.B + 8, True)
        with pytest.raises(RuntimeError, match="row source failed"):
            self._write_file(out, columns, [("dark", self.B + 5), ("manifold", 3)])
        assert len(seen) == 1
        assert out.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [out]


    @pytest.mark.parametrize("engine, bound", [("analytic", 64), ("both", 144)])
    def test_no_copy_of_the_whole_table(self, engine, bound, tmp_path):
        # the times and the engines' columns hold 40 B a point (104 with
        # both traces and the residuals); a stacked copy of the written
        # table would add 40 (72) more
        points = 200_000
        argv = ["evolve", "--model", "jc", "--nmax", "8", "--initial", "fock:e:0", "--points", str(points),
                "--engine", engine, "--out", str(tmp_path / "trace.csv")]
        assert main(argv) == 0  # the warm-up: caches and the parser
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / points < bound


def _written(values):
    """The lines _csv_rows writes for one plain column of values."""
    return "".join(cli._csv_rows([np.asarray(values, np.float64)])).splitlines()


class TestValueDigits:
    """Every finite double is written as f"{v:.16e}" writes it: digits and
    exponent from the vectorized path, and from '%' for the values it
    cannot certify (exact ties, an exponent that does not settle)."""

    EDGE_SETS = check_csv_digits.edge_sets()

    @pytest.mark.parametrize("name", list(EDGE_SETS))
    def test_edge_values(self, name):
        values = self.EDGE_SETS[name]
        assert _written(values) == [f"{v:.16e}" for v in values.tolist()]

    def test_random_bit_patterns(self):
        values = np.random.default_rng(25).integers(0, 2**64, size=10**5, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert _written(values) == [f"{v:.16e}" for v in values.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_floats(self, values):
        assert _written(values) == [f"{v:.16e}" for v in values]

    def test_unsettled_exponent_falls_back_to_printf(self, monkeypatch):
        # every power of ten off by 2^10: no exponent settles in two moves,
        # and each value, zeros too, takes its digits from '%'
        table, q = cli._powers_of_ten()
        monkeypatch.setattr(cli, "_powers_of_ten", lambda: (table, q + 10))
        values = check_csv_digits.edge_values()
        N, E, unsure = cli._digits(np.abs(values))
        assert unsure.all()
        assert _written(values) == [f"{v:.16e}" for v in values.tolist()]

    def test_certified_values_need_no_printf(self):
        # the exact ties are unsure; a figures trace's values are not
        values = np.concatenate([self.EDGE_SETS["exact-ties"], np.linspace(0.0, 200.0, 2001)])
        unsure = cli._digits(np.abs(values))[2]
        assert unsure.tolist() == [True] * self.EDGE_SETS["exact-ties"].size + [False] * 2001


class TestOutputOpenedFirst:
    """--out is opened before the work: a destination that cannot be
    written is refused before the model is evaluated, a refused run leaves
    an existing target as it was, and the file gets open(path, "w")'s mode."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def evaluated(*_args):
            pytest.fail("the model was evaluated before --out was refused")

        monkeypatch.setattr(ModelSpec, "validate_range", evaluated)
        monkeypatch.setattr(cli, "verify_relations", evaluated)

    @pytest.fixture
    def umask(self):
        previous = os.umask(0o022)
        yield
        os.umask(previous)

    @pytest.mark.parametrize("command", ["spectrum", "evolve", "verify"])
    @pytest.mark.parametrize("source", [["--model", "jc"], ["--config", "model.json"]],
                             ids=["model", "config"])
    @pytest.mark.parametrize(
        "where, reason",
        [("results", "Is a directory"), ("missing/result.out", "No such file or directory")],
        ids=["directory", "missing-parent"],
    )
    def test_refused_before_the_work(self, command, source, where, reason, tmp_path, capsys,
                                     monkeypatch, no_work):
        (tmp_path / "results").mkdir()
        (tmp_path / "model.json").write_text(json.dumps(registry_model("jc").to_dict()))
        monkeypatch.chdir(tmp_path)
        assert main([command, *source, "--nmax", "1000000", "--out", where]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: cannot write --out {where}: {reason}"]
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["model.json", "results"]

    @pytest.mark.parametrize(
        "initial", ["coherent:g:3.0", "fock:e:8"], ids=["at-the-start", "during-the-evolution"]
    )
    def test_truncation_keeps_the_target(self, initial, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        out.write_bytes(b"previous,bytes\r\n")
        argv = ["evolve", "--model", "jc", "--nmax", "8", "--initial", initial]
        assert main([*argv, "--out", str(out)]) == 3
        assert "truncation" in capsys.readouterr().err.lower()
        assert out.read_bytes() == b"previous,bytes\r\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002, 0o000], ids=oct)
    def test_new_file_gets_the_open_mode(self, mask, tmp_path, umask):
        os.umask(mask)
        out, reference = tmp_path / "x.csv", tmp_path / "reference"
        open(reference, "w").close()
        assert main(["spectrum", "--model", "jc", "--nmax", "4", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~mask
        assert out.stat().st_mode == reference.stat().st_mode

    @pytest.mark.parametrize("mode", [0o644, 0o600, 0o640, 0o664], ids=oct)
    def test_existing_file_keeps_its_mode(self, mode, tmp_path, umask):
        out = tmp_path / "x.csv"
        out.write_text("previous\n")
        out.chmod(mode)
        assert main(["spectrum", "--model", "jc", "--nmax", "4", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_text().startswith("# format: ")

    def test_symlink_stays_a_link_to_the_new_target(self, tmp_path, capsys, umask):
        # the target lives in another directory: the temporary file goes beside it
        argv = ["spectrum", "--model", "jc", "--nmax", "4"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        (tmp_path / "data").mkdir()
        real, link = tmp_path / "data" / "real.csv", tmp_path / "link.csv"
        real.write_text("previous\n")
        real.chmod(0o640)
        link.symlink_to(real)
        assert main([*argv, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == expected
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.csv", "real.csv"]

    def test_fifo_is_written_through(self, tmp_path, capsys):
        argv = ["spectrum", "--model", "jc", "--nmax", "4"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        received = []

        def read_fifo():
            with open(fifo) as reader:
                received.append(reader.read())

        reader = threading.Thread(target=read_fifo, daemon=True)
        reader.start()
        assert main([*argv, "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == [expected]
        assert list(tmp_path.iterdir()) == [fifo]

    def test_fifo_closed_early_names_out(self, tmp_path, capfd, monkeypatch):
        # the reader leaves after 100 bytes: the broken pipe is the FIFO's,
        # and stdout, which works, is not pointed at os.devnull
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        received, dup2 = [], []
        monkeypatch.setattr(os, "dup2", lambda *fds: dup2.append(fds))

        def read_fifo():
            with open(fifo, "rb") as reader:
                received.append(reader.read(100))

        reader = threading.Thread(target=read_fifo, daemon=True)
        reader.start()
        assert main(["spectrum", "--model", "jc", "--nmax", "100000", "--out", str(fifo)]) == 1
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received[0].startswith(b"# format: ") and len(received[0]) == 100
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [f"error: cannot write --out {fifo}: Broken pipe"]
        assert captured.out == "" and dup2 == []
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_into_a_pipe_is_written_through(self, capsys):
        # /dev/stdout links to the pipe the reader holds; the links resolve
        # to no path, and os.stat finds the pipe itself
        argv = ["spectrum", "--model", "jc", "--nmax", "4"]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        with TestErrors._gjc([*argv, "--out", "/dev/stdout"], subprocess.PIPE) as proc:
            received, err = proc.communicate(timeout=120)
        assert (proc.returncode, err, received) == (0, b"", expected)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_appending_to_a_file_keeps_its_lines(self, tmp_path, capsys):
        # /dev/stdout resolves to the regular file stdout appends to: a
        # temporary file moved over it would drop the earlier line
        argv = ["spectrum", "--model", "jc", "--nmax", "2"]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        log = tmp_path / "app.log"
        log.write_bytes(b"earlier line\n")
        with open(log, "ab") as stdout, TestErrors._gjc([*argv, "--out", "/dev/stdout"], stdout) as proc:
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert log.read_bytes() == b"earlier line\n" + expected
        assert list(tmp_path.iterdir()) == [log]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_into_a_file_holds_verify_table_and_report(self, tmp_path, capsys):
        # verify's table and its --out report share stdout's file: a report
        # moved over the file would leave the table in an unlinked inode
        argv = ["verify", "--model", "jc", "--nmax", "8"]
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        expected = capsys.readouterr().out.encode() + (tmp_path / "report.json").read_bytes()
        log = tmp_path / "v.log"
        with open(log, "wb") as stdout, TestErrors._gjc([*argv, "--out", "/dev/stdout"], stdout) as proc:
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert log.read_bytes() == expected


class TestOneEvaluationPerEngine:
    """f, F and G are each tabulated once over 0..n_max per engine: the
    analytic one (manifolds with dark and top levels), the oracle's
    assembly and the algebra's operator set, for --model and --config alike;
    load_model only parses."""

    N_MAX = 64
    LABELS = ("coupling profile f", "F", "G")
    # k = 1, one non-polynomial kind per function
    DOCUMENT = {
        "omega": 1.0, "omega0": 1.0, "g": 0.1, "k": 1,
        "f": {"kind": "PowerN", "params": [0.5]},
        "F": {"kind": "AlgebraicSqrt", "params": [0.5, 2.0, 1.0]},
        "G": {"kind": "Kerr", "params": [0.01]},
    }

    @pytest.fixture
    def tables(self, monkeypatch, tmp_path):
        """Runs a command in tmp_path and returns its tabulate calls, as
        {(label, n_max): count}."""
        # counted in gjc.model, so no other module may hold its own reference
        assert not any(hasattr(m, "tabulate") for m in (analytic, cli, gjc.algebra, oracle))
        tabulate = model.tabulate

        def run(argv):
            counts = {}

            def counting(fn, n_max, label):
                counts[label, n_max] = counts.get((label, n_max), 0) + 1
                return tabulate(fn, n_max, label)

            monkeypatch.setattr(model, "tabulate", counting)
            assert main([*argv, "--nmax", str(self.N_MAX), "--out", "result.out"]) == 0
            return counts

        (tmp_path / "model.json").write_text(json.dumps(self.DOCUMENT))
        monkeypatch.chdir(tmp_path)
        return run

    def once_each(self, engines):
        return {(label, self.N_MAX): engines for label in self.LABELS}

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_call_counts(self, entry, tables):
        model_args = ["--model", entry.name]
        assert tables(["spectrum", *model_args]) == self.once_each(1)  # one model table
        argv = ["evolve", *model_args, "--engine", "both", "--points", "11"]
        assert tables(argv) == self.once_each(2)  # one per engine
        assert tables(["verify", *model_args]) == self.once_each(1)

    @pytest.mark.parametrize("source", [["--model", "kerr-two-photon"], ["--config", "model.json"]],
                             ids=["model", "config"])
    @pytest.mark.parametrize(
        "command, engines",
        [
            (["spectrum"], 1),
            (["evolve", "--engine", "analytic"], 1),
            (["evolve", "--engine", "oracle"], 1),
            (["evolve", "--engine", "both"], 2),
            (["verify"], 1),
        ],
        ids=["spectrum", "evolve-analytic", "evolve-oracle", "evolve-both", "verify"],
    )
    def test_each_function_once_per_engine(self, command, engines, source, tables):
        argv = [*command, *source]
        if command[0] == "evolve":
            argv += ["--initial", "fock:e:2", "--points", "11"]
        assert tables(argv) == self.once_each(engines)


class TestParseInitial:
    def test_fock(self):
        state = parse_initial("fock:e:3", 8)
        assert state.amp_e[3] == 1.0

    def test_coherent_complex_alpha(self):
        state = parse_initial("coherent:g:1+1j", 32)
        assert abs(state.amp_g[0]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_rejects_out_of_range_fock(self):
        with pytest.raises(ConfigError):
            parse_initial("fock:e:9", 8)
