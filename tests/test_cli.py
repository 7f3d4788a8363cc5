import json
import math
import re

import numpy as np
import pytest

from gjc.cli import main, parse_initial
from gjc.errors import ConfigError
from gjc.model import NonlinearFn, registry, registry_model


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

    def test_unreachable_threshold_fails(self, capsys):
        code = main(
            ["verify", "--model", "q-deformed", "--nmax", "32", "--threshold", "1e-16"]
        )
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold(self, value, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--model", "jc", "--nmax", "16", f"--threshold={value}"]
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
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

    def test_bad_initial_descriptor(self):
        assert main(["evolve", "--model", "jc", "--initial", "banana:g:1"]) == 1
        assert main(["evolve", "--model", "jc", "--initial", "fock:e"]) == 1
        assert main(["evolve", "--model", "jc", "--initial", "fock:x:1"]) == 1


class TestOneEvaluationPerEngine:
    """f, F and G are evaluated once over 0..n_max per engine: the analytic
    one (manifolds with dark and top levels), the oracle's assembly, and f
    alone for the algebra."""

    N_MAX = 64

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        evaluate = NonlinearFn.__call__

        def counting(fn, n):
            count[0] += 1
            return evaluate(fn, n)

        monkeypatch.setattr(NonlinearFn, "__call__", counting)
        return count

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_call_counts(self, entry, calls, tmp_path):
        n = self.N_MAX + 1
        model = ["--model", entry.name, "--nmax", str(self.N_MAX)]
        out = ["--out", str(tmp_path / "result.out")]
        assert main(["spectrum", *model, *out]) == 0
        assert calls[0] == 3 * n  # one model table
        calls[0] = 0
        assert main(["evolve", *model, "--engine", "both", "--points", "11", *out]) == 0
        assert calls[0] == 6 * n  # one per engine
        calls[0] = 0
        assert main(["verify", *model, *out]) == 0
        assert calls[0] == n


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
