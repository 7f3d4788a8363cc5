"""The benchmark's workloads: the command lists of one pass, built from the seed.

Every workload is a fixed list of `gjc` commands (one pass) that the worker
repeats until the run length is reached.  Each command carries what the
checks need to judge its output.  The seed permutes the order of the
commands of `figures` and `scale` and generates the model documents of
`sweep`; the program only ever sees the resulting argv and files.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from physics import REFERENCE_MODELS, verify_threshold

WORKLOADS = ("figures", "scale", "sweep")

# Fresh interpreters that share a run's timed phase.  Their speed differs
# by several percent from one interpreter to the next, so pooling them
# steadies the medians.  A `scale` pass takes about 9 s, so with
# --seconds 36 each of its 4 interpreters runs one pass.
TIMED_WORKERS = {"figures": 5, "scale": 4, "sweep": 5}

FIGURES_NMAX = 64
FIGURES_EVOLVE = ["--initial", "coherent:g:3.0", "--tmax", "200", "--points", "2001", "--engine", "both"]

SCALE_NMAX = 384
SCALE_EVOLVE = ["--initial", "coherent:g:12", "--tmax", "200", "--points", "2001", "--engine", "analytic"]

SWEEP_DOCS = 18
SWEEP_NMAX = 24
SWEEP_POINTS = 301

# Kinds allowed for the coupling profile f, which must be non-negative
# (Parity alternates in sign, so it only appears in F and G).
F_KINDS = ("Zero", "One", "Poly", "SqrtN", "PowerN", "Kerr", "QBracketSqrt", "AlgebraicSqrt", "LinearStark")
ALL_KINDS = F_KINDS + ("Parity",)

# Commands that fail today because of faults in the program.  The correct
# outcome is exit 1 or 3 with a one-line message, no exception and no NaN.
HOSTILE = (
    ("q-bracket overflow", ["spectrum", "--model", "q-deformed", "--nmax", "8000"]),
    ("NaN final time", ["evolve", "--model", "jc", "--tmax", "nan"]),
    ("NaN coherent amplitude", ["evolve", "--model", "jc", "--initial", "coherent:g:nan"]),
    ("top Fock level, analytic engine", ["evolve", "--model", "jc", "--nmax", "8", "--initial", "fock:e:8", "--engine", "analytic"]),
)


def _num(x: float) -> str:
    return repr(float(x))


def _commands_for(label: str, model_args: list, model: dict, n_max: int, evolve_args: list,
                  threshold: float | None, out_dir: str) -> list:
    """spectrum, evolve and verify of one model; outputs go to p{pass}/."""
    out = f"{out_dir}/p{{pass}}/{label}"
    ev = dict(zip(evolve_args[::2], evolve_args[1::2]))
    common = {"model": model, "n_max": n_max, "label": label}
    verify_argv = ["verify", *model_args, "--nmax", str(n_max)]
    if threshold is not None:
        verify_argv += ["--threshold", _num(threshold)]
    return [
        {**common, "kind": "spectrum",
         "argv": ["spectrum", *model_args, "--nmax", str(n_max), "--out", f"{out}.spectrum.csv"]},
        {**common, "kind": "evolve",
         "argv": ["evolve", *model_args, "--nmax", str(n_max), *evolve_args, "--out", f"{out}.evolve.csv"],
         "initial": ev["--initial"], "tmax": float(ev["--tmax"]), "points": int(ev["--points"]),
         "engine": ev["--engine"]},
        {**common, "kind": "verify", "argv": [*verify_argv, "--out", f"{out}.verify.json"],
         "threshold": 1e-10 if threshold is None else threshold},
    ]


def _uniform(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def random_function(rng: random.Random, kind: str, i: int, coupling: bool) -> dict:
    """One function document of the given kind with parameters inside the
    README domain (a Poly of document i has 1 + i % 4 coefficients).  For
    the coupling profile the parameters also keep f >= 0.  Magnitudes stay
    small enough that |H| is O(10^3) at n_max = 24."""
    if kind in ("Zero", "One", "SqrtN"):
        params = []
    elif kind == "Poly":
        lo = 0.0 if coupling else -1.0
        params = [_uniform(rng, lo, 1.0) * 10.0**-j for j in range(1 + i % 4)]
    elif kind == "PowerN":
        params = [_uniform(rng, 0.0, 1.5)]
    elif kind == "Kerr":
        params = [_uniform(rng, 0.0 if coupling else -0.1, 0.1)]
    elif kind == "QBracketSqrt":
        params = [_uniform(rng, 0.8, 1.0)]
    elif kind == "Parity":
        params = [_uniform(rng, -0.5, 0.5)]
    elif kind == "AlgebraicSqrt":
        w = _uniform(rng, 0.5, 2.0)
        params = [_uniform(rng, 0.0, 0.9 * w), _uniform(rng, 1.0, 2.5), w]
    elif kind == "LinearStark":
        params = [_uniform(rng, 0.0 if coupling else -0.5, 0.5)]
    else:
        raise ValueError(kind)
    return {"kind": kind, "params": params}


def sweep_documents(seed: int) -> list:
    """SWEEP_DOCS model documents and their initial states, from the seed.

    The mix is the same for every seed, so that the cost of a pass barely
    depends on it: document i has k = 1 + i % 3, function kinds and Poly
    lengths fixed by i (each coupling kind twice), and a Fock start for
    even i, a coherent one for odd i.  The seed draws every parameter
    value, the qubit level, the Fock index, the coherent amplitude and
    tmax.
    """
    rng = random.Random(seed)
    docs = []
    for i in range(SWEEP_DOCS):
        k = 1 + i % 3
        model = {
            "omega": _uniform(rng, 0.5, 1.5),
            "omega0": 1.0,
            "g": _uniform(rng, 0.02, 0.3),
            "k": k,
            "f": random_function(rng, F_KINDS[i % len(F_KINDS)], i, coupling=True),
            "F": random_function(rng, ALL_KINDS[(i + 3) % len(ALL_KINDS)], i, coupling=False),
            "G": random_function(rng, ALL_KINDS[(3 * i + 7) % len(ALL_KINDS)], i, coupling=False),
        }
        qubit = rng.choice("eg")
        if i % 2 == 0:
            initial = f"fock:{qubit}:{rng.randint(0, SWEEP_NMAX - 3 * k)}"
        else:
            radius, phase = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            alpha = radius * complex(math.cos(phase), math.sin(phase))
            initial = f"coherent:{qubit}:{alpha.real:.4f}{alpha.imag:+.4f}j"
        docs.append({"model": model, "initial": initial, "tmax": _uniform(rng, 20.0, 60.0, 3)})
    return docs


def build_plan(workload: str, seed: int, out_dir: str) -> dict:
    """The warm-up command and the commands of one pass of a workload.

    `out_dir` is relative to the checkout root, which is the worker's
    working directory.  Sweep documents are written under it.
    """
    rng = random.Random(seed)
    commands = []
    if workload in ("figures", "scale"):
        names = list(REFERENCE_MODELS)
        rng.shuffle(names)
        for name in names:
            model = REFERENCE_MODELS[name]
            if workload == "figures":
                commands += _commands_for(name, ["--model", name], model, FIGURES_NMAX,
                                          FIGURES_EVOLVE, None, out_dir)
            else:
                commands += _commands_for(name, ["--model", name], model, SCALE_NMAX,
                                          SCALE_EVOLVE, verify_threshold(model, SCALE_NMAX), out_dir)
    elif workload == "sweep":
        Path(out_dir, "docs").mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(sweep_documents(seed)):
            path = f"{out_dir}/docs/d{i:02d}.json"
            Path(path).write_text(json.dumps(doc["model"], sort_keys=True) + "\n")
            evolve_args = ["--initial", doc["initial"], "--tmax", _num(doc["tmax"]),
                           "--points", str(SWEEP_POINTS), "--engine", "both"]
            commands += _commands_for(f"d{i:02d}", ["--config", path], doc["model"], SWEEP_NMAX,
                                      evolve_args, verify_threshold(doc["model"], SWEEP_NMAX), out_dir)
        for j, (why, argv) in enumerate(HOSTILE):
            out = f"{out_dir}/p{{pass}}/hostile{j}.out"
            commands.append({"kind": argv[0], "label": f"hostile{j}", "hostile": why,
                             "argv": [*argv, "--out", out]})
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    verify = next(c for c in commands if c["kind"] == "verify")
    warmup = [a.replace("/p{pass}/", "/warmup/") for a in verify["argv"]]
    return {"warmup": warmup, "commands": commands}
