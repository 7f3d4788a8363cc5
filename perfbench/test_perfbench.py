"""Tests of the benchmark's own checks and generator.

    python3 -m pytest perfbench

Each check must accept a real output of the program and reject the same
output broken on purpose.
"""

import json
import sys
from pathlib import Path

import pytest

import checks
import physics
import run
import tracing
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gjc.cli import main as gjc_main  # noqa: E402


def _run_gjc(argv):
    assert gjc_main([str(a) for a in argv]) == 0


def _nudge_cell(text: str, row: int, col: int, delta: float) -> str:
    lines = text.split("\n")
    header = sum(1 for line in lines if line.startswith("#")) + 1
    cells = lines[header + row].split(",")
    cells[col] = f"{float(cells[col]) + delta:.16e}"
    lines[header + row] = ",".join(cells)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("gjc")
    _run_gjc(["evolve", "--model", "jc", "--nmax", 64, "--initial", "coherent:g:3.0",
              "--tmax", 50, "--points", 201, "--engine", "both", "--out", d / "jc.csv"])
    _run_gjc(["spectrum", "--model", "kerr-two-photon", "--nmax", 16, "--out", d / "kerr.csv"])
    _run_gjc(["verify", "--model", "intensity-multiboson", "--nmax", 16, "--out", d / "v.json"])
    fock_doc = {**physics.REFERENCE_MODELS["stark-two-photon"], "g": 0.2}
    (d / "stark.json").write_text(json.dumps(fock_doc))
    _run_gjc(["evolve", "--config", d / "stark.json", "--nmax", 24, "--initial", "fock:e:5",
              "--tmax", 30, "--points", 301, "--engine", "both", "--out", d / "fock.csv"])
    return {name: (d / name).read_text() for name in ("jc.csv", "kerr.csv", "v.json", "fock.csv")} | {
        "fock_doc": fock_doc}


JC = dict(model=physics.REFERENCE_MODELS["jc"], n_max=64, initial="coherent:g:3.0",
          tmax=50.0, points=201, engine="both")


def test_evolve_check_accepts_program_output(outputs):
    assert checks.check_evolve(outputs["jc.csv"], **JC) == []


@pytest.mark.parametrize("col", [1, 2, 3, 4])
def test_evolve_check_rejects_nudged_trace_value(outputs, col):
    broken = _nudge_cell(outputs["jc.csv"], row=100, col=col, delta=1e-6)
    assert checks.check_evolve(broken, **JC)


def test_evolve_check_rejects_nudged_residual(outputs):
    broken = _nudge_cell(outputs["jc.csv"], row=7, col=5, delta=1e-6)
    assert checks.check_evolve(broken, **JC)


def test_fock_check_uses_two_level_solution(outputs):
    kw = dict(model=outputs["fock_doc"], n_max=24, initial="fock:e:5", tmax=30.0,
              points=301, engine="both")
    assert checks.check_evolve(outputs["fock.csv"], **kw) == []
    # sigma_z and <n> nudged together keep <n> + (k/2)<sigma_z> constant;
    # only the two-level solution can catch it.
    broken = _nudge_cell(outputs["fock.csv"], row=150, col=1, delta=1e-6)
    broken = _nudge_cell(broken, row=150, col=2, delta=-1e-6)
    assert any("two-level" in p for p in checks.check_evolve(broken, **kw))


def test_spectrum_check(outputs):
    model = physics.REFERENCE_MODELS["kerr-two-photon"]
    assert checks.check_spectrum(outputs["kerr.csv"], model, 16) == []
    for col in (3, 4, 5, 6):
        broken = _nudge_cell(outputs["kerr.csv"], row=6, col=col, delta=1e-6)
        assert checks.check_spectrum(broken, model, 16), col


def test_verify_check(outputs):
    assert checks.check_verify(outputs["v.json"], 1e-10) == []
    report = json.loads(outputs["v.json"])
    del report["residuals"]["aux_Y_squared"]
    assert checks.check_verify(json.dumps(report), 1e-10)
    report = json.loads(outputs["v.json"])
    report["residuals"]["charge_commutator"] = 2e-10
    assert checks.check_verify(json.dumps(report), 1e-10)


def test_refusal_check():
    ok = {"exit": 3, "exception": None, "stderr": "truncation error: raise n_max\n"}
    assert checks.check_refusal(ok, None) == []
    assert checks.check_refusal({**ok, "exception": "OverflowError: range"}, None)
    assert checks.check_refusal({**ok, "exit": 0}, None)
    assert checks.check_refusal({**ok, "stderr": "error\nmore\n"}, None)
    assert checks.check_refusal(ok, "# manifest\nt,sigma_z\n0.0,nan\n")


def test_judge_rejects_one_changed_byte(outputs, tmp_path):
    cmd = {"kind": "evolve", "label": "jc", **JC,
           "argv": ["evolve", "--out", str(tmp_path / "p{pass}" / "jc.csv")]}
    record = {"exit": 0, "exception": None, "stderr": "", "s": 0.1}
    passes = [{"commands": [record]}, {"commands": [record]}]
    for p in (0, 1):
        (tmp_path / f"p{p}").mkdir()
        (tmp_path / f"p{p}" / "jc.csv").write_text(outputs["jc.csv"])
    assert run.judge([cmd], passes) == (0, [], [])
    data = bytearray((tmp_path / "p1" / "jc.csv").read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    (tmp_path / "p1" / "jc.csv").write_bytes(bytes(data))
    failed, wrong, _notes = run.judge([cmd], passes)
    assert failed == 0 and any("differs from the first" in w for w in wrong)


def test_sweep_generator_is_deterministic():
    assert workloads.sweep_documents(7) == workloads.sweep_documents(7)
    assert workloads.sweep_documents(7) != workloads.sweep_documents(8)


@pytest.mark.parametrize("seed", range(20))
def test_sweep_documents_stay_in_domain(seed):
    docs = workloads.sweep_documents(seed)
    assert len(docs) == workloads.SWEEP_DOCS
    kinds = {d["model"]["f"]["kind"] for d in docs}
    assert kinds == set(workloads.F_KINDS)
    for d in docs:
        model, n_max = d["model"], workloads.SWEEP_NMAX
        assert model["k"] in (1, 2, 3)
        assert all(physics.fn_value(model["f"], n) >= 0.0 for n in range(n_max + 1))
        kind, _qubit, value = physics.parse_initial(d["initial"])
        if kind == "fock":
            assert 0 <= value <= n_max - 3 * model["k"]
        else:
            assert abs(value) <= 1.0


@pytest.mark.parametrize("seed", range(3))
def test_sweep_commands_pass_their_checks(seed, tmp_path, monkeypatch):
    """Every generated document runs cleanly and passes every check."""
    monkeypatch.chdir(tmp_path)
    plan = workloads.build_plan("sweep", seed, "out")
    regular = [c for c in plan["commands"] if not c.get("hostile")]
    Path("out/p0").mkdir(parents=True)
    for cmd in regular:
        argv = [a.replace("{pass}", "0") for a in cmd["argv"]]
        assert gjc_main(argv) == 0, argv
        text = Path(argv[argv.index("--out") + 1]).read_text()
        assert run.check_output(cmd, text) == [], argv


def test_tracer_self_times_balance(tmp_path):
    tracer = tracing.Tracer()

    def inner():
        return sum(range(1000))

    def failing():
        raise ValueError("expected")

    def outer():
        inner()
        inner()
        try:
            failing()
        except ValueError:
            pass

    inner, failing = tracer.wrap("inner", inner), tracer.wrap("failing", failing)
    outer = tracer.wrap("outer", outer)
    outer()
    outer()
    tracer.dump(str(tmp_path / "trace.npz"))
    stats, roots = tracing.aggregate(str(tmp_path / "trace.npz"))
    assert stats["inner"]["calls"] == 4 and stats["outer"]["calls"] == 2
    assert stats["failing"]["errors"] == 2 and stats["outer"]["errors"] == 0
    assert stats["inner"]["self_s"] == stats["inner"]["total_s"]
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"] - stats["failing"]["total_s"], abs=1e-12)
    assert [(name, dur == self_sum, bad) for name, dur, self_sum, bad in roots] == [("outer", True, 0)] * 2
