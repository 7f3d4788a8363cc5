"""Property test of the CLI contract: every command ends in exit 0, 1, 2 or 3
without an exception; a refusal (1 or 3) prints one stderr line and writes
nothing; a result (0 or 2) holds only finite numbers."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjc import model
from gjc.cli import main
from gjc.model import MAX_POLY_DEGREE, registry

# In-domain parameters of every function kind (README table).
PARAMS = {
    "Zero": [],
    "One": [],
    "SqrtN": [],
    "Poly": [st.floats(-1.0, 1.0)] * 3,
    "PowerN": [st.floats(0.0, 3.0)],
    "Kerr": [st.floats(-0.5, 0.5)],
    "QBracketSqrt": [st.floats(0.5, 1.0)],
    "Parity": [st.floats(-0.5, 0.5)],
    "AlgebraicSqrt": [st.floats(0.0, 0.9), st.floats(1.0, 3.0), st.just(1.0)],
    "LinearStark": [st.floats(-0.5, 0.5)],
}
assert set(PARAMS) == set(model._KINDS)

# One fault a document may carry: a non-finite, out-of-range or non-numeric
# scalar, a parameter count off by one, params that are not an array, or a
# coupling that overflows.
FAULTS = [
    lambda doc: doc.update(omega=math.nan),
    lambda doc: doc.update(g=math.inf),
    lambda doc: doc.update(omega0=str(doc["omega0"])),
    lambda doc: doc.update(k=0),
    lambda doc: doc["f"]["params"].append(0.5),
    lambda doc: doc["G"].update(params=5),
    lambda doc: doc["G"]["params"].append(0.5),
    lambda doc: doc["F"].update(params=doc["F"]["params"][:-1] or [0.5]),
    lambda doc: doc.update(f={"kind": "Poly", "params": [0.1] * (MAX_POLY_DEGREE + 2)}),
    lambda doc: doc.update(f={"kind": "PowerN", "params": [200.0]}),
]


# A fixed in-domain document whose parameter counts are fixed by its kinds,
# so that every fault above turns it into a refusal.
DOCUMENT = {
    "omega": 1.0,
    "omega0": 1.0,
    "g": 0.1,
    "k": 1,
    "f": {"kind": "PowerN", "params": [0.5]},
    "F": {"kind": "AlgebraicSqrt", "params": [0.5, 2.0, 1.0]},
    "G": {"kind": "Kerr", "params": [0.01]},
}


@st.composite
def functions(draw, coupling=False):
    """A function document; the coupling profile f takes |params| (f >= 0
    then holds for every kind but Parity)."""
    kind = draw(st.sampled_from(sorted(PARAMS)))
    params = [draw(param) for param in PARAMS[kind]]
    return {"kind": kind, "params": [abs(p) for p in params] if coupling else params}


@st.composite
def documents(draw, max_k):
    doc = {
        "omega": draw(st.floats(0.1, 2.0)),
        "omega0": draw(st.floats(0.1, 2.0)),
        "g": draw(st.floats(-1.0, 1.0)),
        "k": draw(st.one_of(st.integers(1, 4), st.integers(1, max_k), st.just(max_k))),
        "f": draw(functions(coupling=True)),
        "F": draw(functions()),
        "G": draw(functions()),
    }
    # Most documents are in domain; one in four carries a fault.
    fault = draw(st.one_of(st.none(), st.none(), st.none(), st.sampled_from(FAULTS)))
    if fault is not None:
        fault(doc)
    return doc


def initials(n_max):
    fock = st.builds("fock:{}:{}".format, st.sampled_from("eg"), st.integers(-1, n_max + 1))
    coherent = st.builds(
        "coherent:{}:{}".format,
        st.sampled_from("eg"),
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    )
    malformed = st.sampled_from(["coherent:g:nan", "fock:e", "fock:x:1", "banana:g:1"])
    return st.one_of(fock, coherent, fock, coherent, malformed)


@st.composite
def commands(draw):
    """(argv without --out, model document or None)."""
    command = draw(st.sampled_from(["spectrum", "verify", "verify", "evolve"]))
    max_k = 8 if command == "evolve" else 400
    doc = draw(st.one_of(documents(max_k), documents(max_k), st.none()))
    if doc is None:
        name = draw(st.sampled_from([e.name for e in registry()] + ["nope"]))
        model_args, k = ["--model", name], 1
    else:
        model_args, k = ["--config", "model.json"], doc["k"]
    if command == "evolve":
        n_max = draw(st.one_of(st.integers(0, 48), st.integers(min(k, 48), 48)))
        extra = [
            "--initial", draw(initials(n_max)),
            "--tmax", repr(draw(st.floats(0.0, 50.0))),
            "--points", str(draw(st.integers(1, 40))),
            "--engine", draw(st.sampled_from(["analytic", "oracle", "both"])),
        ]
    else:
        # The edges k, 2k (the default guard) and 2k+1 are where cutoffs and
        # overflows meet; (m+k)!/m! overflows from k = 171 on.
        edges = [n for n in (k, 2 * k, 2 * k + 1) if 0 <= n <= 800]
        n_max = draw(
            st.one_of(
                st.integers(0, 800), st.integers(min(2 * k, 800), 800), st.sampled_from(edges)
            )
        )
        extra = []
    return [command, *model_args, "--nmax", str(n_max), *extra], doc


def _reject_constant(token):
    raise AssertionError(f"non-finite number {token} in a JSON report")


def _assert_finite_csv(text, labels):
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    values = np.array([row[labels:] for row in rows[1:]], dtype=float)
    assert np.isfinite(values).all()


def _run_document(command, doc, tmp_path, capsys):
    cfg, out = tmp_path / "model.json", tmp_path / "result.out"
    cfg.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfg), "--nmax", "64", "--out", str(out)])
    return code, capsys.readouterr(), out


@pytest.mark.parametrize("command", ["spectrum", "evolve", "verify"])
def test_document_without_a_fault_runs(command, tmp_path, capsys):
    code, _, out = _run_document(command, DOCUMENT, tmp_path, capsys)
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("fault", range(len(FAULTS)))
@pytest.mark.parametrize("command", ["spectrum", "evolve", "verify"])
def test_every_fault_is_refused(command, fault, tmp_path, capsys):
    # the derandomized property test below draws only some FAULTS entries
    doc = copy.deepcopy(DOCUMENT)
    FAULTS[fault](doc)
    code, captured, out = _run_document(command, doc, tmp_path, capsys)
    assert code == 1
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(commands())
def test_exit_codes_messages_and_outputs(command):
    argv, doc = command
    with tempfile.TemporaryDirectory() as tmp:
        if doc is not None:
            with open(os.path.join(tmp, "model.json"), "w") as fh:
                json.dump(doc, fh)
        out = os.path.join(tmp, "result.out")
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", out])
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        if code in (1, 3):
            assert len(stderr.getvalue().splitlines()) == 1
            assert stdout.getvalue() == ""
            assert not os.path.exists(out)
            return
        assert code == 0 or argv[0] == "verify"
        with open(out) as fh:
            text = fh.read()
    if argv[0] == "verify":
        report = json.loads(text, parse_constant=_reject_constant)
        assert all(math.isfinite(r) for r in report["residuals"].values())
        assert "nan" not in stdout.getvalue() and "inf" not in stdout.getvalue()
    else:
        _assert_finite_csv(text, labels=2 if argv[0] == "spectrum" else 0)
