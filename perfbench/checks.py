"""Checks of the program's outputs against the README closed forms.

Each check takes the text a command wrote and what the command was asked
to do, and returns a list of problems (empty when the output is correct).
Nothing here imports `gjc`; the expected values come from `physics`.
"""

from __future__ import annotations

import json
import math

import numpy as np

import physics

FORMAT_LINE = "# format: gjc-csv-1"
SPECTRUM_COLUMNS = ["kind", "n_lower", "N", "beta", "Omega", "E_plus", "E_minus"]
EVOLVE_COLUMNS = ["t", "sigma_z", "n_mean", "x_mean", "y_mean"]
RESIDUAL_COLUMNS = ["resid_sigma_z", "resid_n_mean", "resid_x_mean", "resid_y_mean"]
RELATIONS = frozenset((
    "nilpotent_Qdag", "nilpotent_Q", "commute_Q_H", "commute_Qdag_H", "commute_N_H",
    "commute_B_H", "commute_Q_N", "commute_Qdag_N", "commute_H_N", "commute_B_N",
    "intertwine_Q_Hf", "intertwine_Hf_Qdag", "ladder_B_Qdag", "ladder_B_Q",
    "charge_commutator", "aux_X_squared", "aux_Y_squared",
))

REL_TOL = 1e-12        # spectrum identities, relative to the block's scale
TRACE_TOL = 1e-9       # trace identities, relative to max(1, <n>)
ENGINE_RESID_TOL = 1e-8  # --engine both residual columns


def read_csv(text: str):
    """(manifest, column names, rows of cells) of a gjc CSV."""
    lines = text.split("\n")
    if len(lines) < 4 or lines[-1] != "" or lines[0] != FORMAT_LINE:
        raise ValueError("not a gjc-csv-1 file ending in a newline")
    if not lines[1].startswith("# manifest: "):
        raise ValueError("second line is not the manifest")
    manifest = json.loads(lines[1][len("# manifest: "):])
    return manifest, lines[2].split(","), [line.split(",") for line in lines[3:-1]]


def _manifest_problems(manifest: dict, expected: dict) -> list:
    return [
        f"manifest {key}={manifest.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if manifest.get(key) != value
    ]


def check_spectrum(text: str, model: dict, n_max: int) -> list:
    """Dark levels and manifold rows against the 2x2 blocks of the README H."""
    try:
        manifest, columns, rows = read_csv(text)
    except ValueError as exc:
        return [str(exc)]
    problems = _manifest_problems(manifest, {"mode": "spectrum", "n_max": n_max})
    if columns != SPECTRUM_COLUMNS:
        return problems + [f"columns {columns}"]
    k = model["k"]
    dark = [r for r in rows if r[0] == "dark"]
    blocks = [r for r in rows if r[0] == "manifold"]
    if len(dark) + len(blocks) != len(rows):
        problems.append("row kinds other than dark/manifold")
    if [int(r[1]) for r in dark] != list(range(k)):
        problems.append(f"dark levels {[r[1] for r in dark]}, expected 0..{k - 1}")
    if [int(r[1]) for r in blocks] != list(range(n_max - k + 1)):
        problems.append(f"{len(blocks)} manifold rows, expected n_lower 0..{n_max - k}")
    if problems:
        return problems
    for r in dark:
        n = int(r[1])
        total, beta, omega, e_plus, e_minus = map(float, r[2:])
        energy = physics.energy_g(model, n)
        if total != n - k / 2.0 or beta != 0.0 or omega != 0.0 or e_plus != e_minus:
            problems.append(f"dark row n={n}: {r}")
        if abs(e_plus - energy) > REL_TOL * max(1.0, abs(energy)):
            problems.append(f"dark n={n}: E={e_plus!r}, expected {energy!r}")
    for r in blocks:
        n = int(r[1])
        total, beta, omega, e_plus, e_minus = map(float, r[2:])
        ee, eg = physics.energy_e(model, n), physics.energy_g(model, n + k)
        c = physics.coupling(model, n)
        scale = max(1.0, abs(ee), abs(eg), abs(c))
        det = ee * eg - c * c
        bad = []
        if total != n + k / 2.0:
            bad.append(f"N={total!r}")
        if not all(map(math.isfinite, (beta, omega, e_plus, e_minus))):
            bad.append("non-finite value")
        elif abs(e_plus + e_minus - (ee + eg)) > REL_TOL * scale:
            bad.append(f"E+ + E- = {e_plus + e_minus!r}, trace {ee + eg!r}")
        elif abs(e_plus * e_minus - det) > REL_TOL * scale * scale:
            bad.append(f"E+ E- = {e_plus * e_minus!r}, determinant {det!r}")
        elif abs(e_plus - e_minus - k * omega) > REL_TOL * scale:
            bad.append(f"E+ - E- = {e_plus - e_minus!r}, k*Omega = {k * omega!r}")
        elif omega > 0.0 and (
            abs(math.sin(beta) - 2.0 * c / (k * omega)) > REL_TOL * scale / (k * omega)
            or abs(math.cos(beta) - (ee - eg) / (k * omega)) > REL_TOL * scale / (k * omega)
        ):
            bad.append(f"beta={beta!r} does not match the block's mixing angle")
        if bad:
            problems.append(f"manifold n={n}: " + "; ".join(bad))
    return problems


def check_evolve(text: str, model: dict, n_max: int, initial: str, tmax: float,
                 points: int, engine: str) -> list:
    """Grid, t=0 closed form, conservation, engine residuals, every column
    against the per-manifold two-level solution and, for resonant JC from
    |g,alpha>, the cosine series."""
    try:
        manifest, columns, rows = read_csv(text)
    except ValueError as exc:
        return [str(exc)]
    problems = _manifest_problems(manifest, {
        "mode": "evolve", "n_max": n_max, "initial": initial, "t_max": tmax,
        "points": points, "engine": engine,
    })
    expected = EVOLVE_COLUMNS + (RESIDUAL_COLUMNS if engine == "both" else [])
    if columns != expected:
        return problems + [f"columns {columns}, expected {expected}"]
    if len(rows) != points:
        return problems + [f"{len(rows)} rows, expected {points}"]
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        return problems + ["non-finite values"]
    t, sz, n_mean, x, y = data[:, :5].T
    k = model["k"]

    if np.max(np.abs(t - np.linspace(0.0, tmax, points))) > 1e-12 * max(1.0, tmax):
        problems.append("time column is not linspace(0, tmax, points)")

    kind, qubit, value = physics.parse_initial(initial)
    sign = 1.0 if qubit == "e" else -1.0
    if kind == "fock":
        start = (sign, float(value), 0.0, 0.0)
    else:
        start = (sign, abs(value) ** 2, value.real, value.imag)
    scale = max(1.0, abs(start[1]))
    for label, got, want in zip(EVOLVE_COLUMNS[1:], data[0, 1:5], start):
        if abs(got - want) > TRACE_TOL * scale:
            problems.append(f"t=0 {label}={got!r}, expected {want!r}")

    excitation = n_mean + 0.5 * k * sz
    drift = float(np.max(np.abs(excitation - excitation[0])))
    if drift > TRACE_TOL * scale:
        problems.append(f"<n> + (k/2)<sigma_z> drifts by {drift:.3e}")

    if engine == "both":
        worst = float(np.max(data[:, 5:]))
        if worst > ENGINE_RESID_TOL:
            problems.append(f"engine residual {worst:.3e} > {ENGINE_RESID_TOL:g}")

    reference = physics.block_evolution(model, initial, n_max, t)
    for label, got, want in zip(EVOLVE_COLUMNS[1:], (sz, n_mean, x, y), reference):
        err = float(np.max(np.abs(got - want)))
        if err > TRACE_TOL * scale:
            problems.append(f"{label} departs from the per-manifold two-level solution by {err:.3e}")

    if qubit == "g" and kind == "coherent" and _is_resonant_jc(model):
        ref = physics.jc_coherent_ground_sigma_z(model["g"], value, n_max, t)
        err = float(np.max(np.abs(sz - ref)))
        if err > TRACE_TOL:
            problems.append(f"JC sigma_z departs from -sum P(n) cos(2g sqrt(n) t) by {err:.3e}")
    return problems


def _is_resonant_jc(model: dict) -> bool:
    return (
        model["k"] == 1 and model["omega"] == model["omega0"]
        and model["f"]["kind"] == "One"
        and model["F"]["kind"] == "Zero" and model["G"]["kind"] == "Zero"
    )


def check_verify(text: str, threshold: float) -> list:
    """All 17 relations present, finite and within the threshold passed."""
    try:
        report = json.loads(text)
        residuals = report["residuals"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify report: {exc}"]
    problems = []
    if set(residuals) != RELATIONS:
        missing = sorted(RELATIONS - set(residuals))
        extra = sorted(set(residuals) - RELATIONS)
        problems.append(f"relations missing {missing}, unexpected {extra}")
    for name, value in residuals.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value <= threshold):
            problems.append(f"{name} residual {value!r} exceeds {threshold!r}")
    if report.get("threshold") != threshold or report.get("pass") is not True:
        problems.append(f"report threshold {report.get('threshold')!r}, pass {report.get('pass')!r}")
    return problems


def check_refusal(record: dict, written: str | None) -> list:
    """A command that must be refused: exit 1 or 3, one-line message,
    no exception and no NaN or inf written."""
    problems = []
    if record["exception"]:
        problems.append(f"uncaught {record['exception'].splitlines()[0]}")
    elif record["exit"] not in (1, 3):
        problems.append(f"exit {record['exit']}")
    if not record["exception"] and len(record["stderr"].strip().splitlines()) != 1:
        problems.append("message is not one line")
    if written is not None:
        cells = (c.strip().lower().lstrip("+-") for line in written.splitlines()
                 if not line.startswith("#") for c in line.split(","))
        if any(c in ("nan", "inf") for c in cells):
            problems.append("NaN or inf written")
    return problems
