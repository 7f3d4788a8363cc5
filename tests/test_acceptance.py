"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from gjc.algebra import e_index, g_index, verify_relations
from gjc.analytic import (
    aux_binomial,
    aux_two_point,
    dressed_states,
    evolve_amplitudes,
    manifolds,
    sigma_z_fock,
    trace_observables,
)
from gjc.model import ModelSpec, ONE, poly, registry, registry_model
from gjc.oracle import assemble, propagate
from gjc.states import coherent_state, observables

N_MAX = 64
ALPHA = 3.0
OBSERVABLE_NAMES = ("sigma_z", "n_mean", "x_mean", "y_mean")


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def runs():
    """Both evolution paths for every registry model, |g, alpha=3>, 2001 points."""
    times = np.linspace(0.0, 200.0, 2001)
    data = {}
    wall = time.perf_counter()
    for entry in registry():
        spec = entry.spec
        initial = coherent_state("g", ALPHA, N_MAX)

        analytic_trace = trace_observables(spec, initial, times)

        h = assemble(spec, N_MAX)
        oracle_e, oracle_g = propagate(h, initial, times)
        oracle_obs = np.column_stack(observables(oracle_e, oracle_g))
        columns = np.concatenate([oracle_e, oracle_g])
        oracle_norms = np.sqrt(np.sum(np.abs(columns) ** 2, axis=0))
        energies = np.real(np.einsum("it,it->t", np.conj(columns), h.mat @ columns))

        amp_e, amp_g = evolve_amplitudes(spec, initial, times)
        analytic_norms = np.sqrt(
            np.sum(np.abs(amp_e) ** 2, axis=0) + np.sum(np.abs(amp_g) ** 2, axis=0)
        )

        data[entry.name] = {
            "spec": spec,
            "tail": initial.tail_mass,
            "analytic": np.column_stack(
                [
                    analytic_trace.sigma_z,
                    analytic_trace.n_mean,
                    analytic_trace.x_mean,
                    analytic_trace.y_mean,
                ]
            ),
            "oracle": oracle_obs,
            "energies": energies,
            "norms_analytic": analytic_norms,
            "norms_oracle": oracle_norms,
        }
    data["_elapsed"] = time.perf_counter() - wall
    data["_times"] = times
    return data


def test_criterion_1_algebra_suite():
    started = time.perf_counter()
    worst_overall, worst_model = 0.0, ""
    for entry in registry():
        residuals = verify_relations(entry.spec, N_MAX, guard=2 * entry.spec.k)
        worst = max(residuals.values())
        if worst > worst_overall:
            worst_overall, worst_model = worst, entry.name
        assert worst <= 1e-10, f"{entry.name}: {worst:.3e}"
    elapsed = time.perf_counter() - started
    report(
        "1 algebra suite",
        worst_overall <= 1e-10 and elapsed < 10.0,
        f"worst interior residual {worst_overall:.2e} ({worst_model}), {elapsed:.1f}s",
    )


def test_criterion_2_path_equivalence(runs):
    worst, worst_label = 0.0, ""
    for entry in registry():
        run = runs[entry.name]
        diffs = np.max(np.abs(run["analytic"] - run["oracle"]), axis=0)
        for name, diff in zip(OBSERVABLE_NAMES, diffs):
            if diff > worst:
                worst, worst_label = float(diff), f"{entry.name}/{name}"
            assert diff <= 1e-8, f"{entry.name} {name}: {diff:.3e}"
    report(
        "2 path equivalence",
        worst <= 1e-8 and runs["_elapsed"] < 60.0,
        f"max |analytic - oracle| = {worst:.2e} ({worst_label}), "
        f"both paths computed in {runs['_elapsed']:.1f}s",
    )


def test_criterion_3_eigenstructure():
    worst_residual = 0.0
    worst_freq = 0.0
    for entry in registry():
        spec = entry.spec
        h = assemble(spec, N_MAX)
        m = manifolds(spec, spec.validate_range(N_MAX))
        dressed = dressed_states(m)
        for n_lower in range(N_MAX - 2 * spec.k + 1):
            plus, minus = dressed[n_lower]
            e_plus, e_minus = m.e_plus[n_lower], m.e_minus[n_lower]
            for (ce, cg), energy in ((plus, e_plus), (minus, e_minus)):
                v = np.zeros(h.dim)
                v[e_index(n_lower, N_MAX)] = ce
                v[g_index(n_lower + spec.k, N_MAX)] = cg
                residual = float(np.linalg.norm(h.mat @ v - energy * v))
                worst_residual = max(worst_residual, residual)
                assert residual <= 1e-10, f"{entry.name} n={n_lower}: {residual:.3e}"
            if spec.k == 1:
                defect = abs((e_plus - e_minus) - m.rabi_frequency[n_lower])
                worst_freq = max(worst_freq, defect)
                assert defect <= 1e-12, f"{entry.name} n={n_lower}: {defect:.3e}"
    report(
        "3 eigenstructure",
        True,
        f"worst ||Hv - Ev|| = {worst_residual:.2e}, "
        f"worst k=1 splitting defect vs printed frequency = {worst_freq:.2e}",
    )


def test_criterion_4_aux_reconciliation():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        f_fn = poly(*rng.uniform(-1.0, 1.0, size=7))
        g_fn = poly(*rng.uniform(-1.0, 1.0, size=7))
        for k in (1, 2, 3):
            spec = ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=k, f=ONE, F=f_fn, G=g_fn)
            for n_lower in range(30):
                n_total = n_lower + k / 2.0
                binom = aux_binomial(spec, n_total)
                exact = aux_two_point(spec, n_total)
                for b, e in zip(binom, exact):
                    rel = abs(b - e) / max(1.0, abs(e))
                    worst = max(worst, rel)
                    assert rel <= 1e-10, f"k={k} N={n_total}: rel error {rel:.3e}"
    report(
        "4 shift-function reconciliation",
        True,
        f"100 random degree-6 pairs, k in (1,2,3), 30 manifolds each; "
        f"worst relative error {worst:.2e}",
    )


def test_criterion_5_jc_closed_forms():
    jc = registry_model("jc")
    worst = 0.0
    m = manifolds(jc, jc.validate_range(N_MAX))
    for n in range(21):
        frequency = 2.0 * jc.g * math.sqrt(n + 1.0)
        period = 2.0 * math.pi / frequency
        t = np.linspace(0.0, period, 257)
        defect = float(np.max(np.abs(sigma_z_fock(m, t)[n] - np.cos(frequency * t))))
        worst = max(worst, defect)
        assert defect <= 1e-12, f"n={n}: {defect:.3e}"
    report(
        "5 JC closed form",
        True,
        f"inversion equals cos(2g sqrt(n+1) t) for n <= 20; worst defect {worst:.2e}",
    )


def test_criterion_6a_jc_collapse_and_revival():
    times = np.linspace(0.0, 220.0, 2201)
    trace = trace_observables(
        registry_model("jc"), coherent_state("g", ALPHA, N_MAX), times
    )
    collapse_window = (times >= 40.0) & (times <= 120.0)
    revival_window = (times >= 150.0) & (times <= 220.0)
    collapse = float(np.mean(np.abs(trace.sigma_z[collapse_window])))
    revival = float(np.max(np.abs(trace.sigma_z[revival_window])))
    report(
        "6a JC collapse and revival",
        collapse < 0.1 and revival > 0.3,
        f"mean |sigma_z| in [40,120] = {collapse:.3f} (< 0.1), "
        f"max |sigma_z| in [150,220] = {revival:.3f} (> 0.3)",
    )


def test_criterion_6b_kerr_periodicity():
    spec = registry_model("kerr-two-photon")
    dt = 0.005
    times = np.arange(0.0, 40.0 + dt / 2, dt)
    trace = trace_observables(spec, coherent_state("g", ALPHA, N_MAX), times)
    obs = np.stack([trace.sigma_z, trace.n_mean, trace.x_mean, trace.y_mean])

    # empirical period: the shift in [1, 20] minimizing the worst observable
    # mismatch between the trace and its shifted copy
    best_shift, best_mismatch = None, np.inf
    for shift in range(int(round(1.0 / dt)), int(round(20.0 / dt)) + 1):
        mismatch = float(np.max(np.abs(obs[:, shift:] - obs[:, :-shift])))
        if mismatch < best_mismatch:
            best_shift, best_mismatch = shift, mismatch
    period = best_shift * dt
    report(
        "6b Kerr periodicity",
        best_mismatch <= 5e-2,
        f"detected period T = {period:.3f} (2*pi = {2 * math.pi:.3f}); "
        f"max observable mismatch between t and t+T = {best_mismatch:.3f} (<= 0.05)",
    )


def test_criterion_6c_parity_negative_bias():
    # The claimed signature is collapse and revival 'localized around a
    # negative constant bias': the oscillation center (running mean over one
    # Rabi period) stays below zero after the initial transient, through the
    # revival included, while the JC reference bias hovers at zero.
    times = np.linspace(0.0, 300.0, 3001)
    dt = times[1] - times[0]
    window = int(round(10.0 / dt))  # one Rabi period is ~8.4 time units
    kernel = np.ones(window) / window

    def running_bias(name):
        trace = trace_observables(
            registry_model(name), coherent_state("g", ALPHA, N_MAX), times
        )
        bias = np.convolve(trace.sigma_z, kernel, mode="valid")
        centers = times[window - 1 :] - (window - 1) * dt / 2.0
        return centers, bias

    centers, parity_bias = running_bias("parity-deformed")
    _, jc_bias = running_bias("jc")
    after_transient = centers >= 10.0
    revival = (centers >= 180.0) & (centers <= 260.0)

    parity_max = float(np.max(parity_bias[after_transient]))
    parity_revival_max = float(np.max(parity_bias[revival]))
    jc_revival_extreme = float(np.max(np.abs(jc_bias[revival])))
    ok = parity_max < 0.0 and parity_revival_max < -0.2 and jc_revival_extreme < 0.1
    report(
        "6c parity negative bias",
        ok,
        f"parity oscillation center stays below zero for t >= 10 "
        f"(max {parity_max:+.3f}); at the revival it is {parity_revival_max:+.3f} "
        f"(< -0.2) while the JC bias stays within +-{jc_revival_extreme:.3f} of zero",
    )


def test_criterion_7_conservation(runs):
    worst_ntot, worst_energy, worst_norm = 0.0, 0.0, 0.0
    for entry in registry():
        run = runs[entry.name]
        spec = run["spec"]
        for label in ("analytic", "oracle"):
            obs = run[label]
            ntot = obs[:, 1] + (spec.k / 2.0) * obs[:, 0]
            drift = float(np.max(np.abs(ntot - ntot[0])))
            worst_ntot = max(worst_ntot, drift)
            assert drift <= 1e-10, f"{entry.name} {label} excitation drift {drift:.3e}"
        energy_drift = float(np.max(np.abs(run["energies"] - run["energies"][0])))
        worst_energy = max(worst_energy, energy_drift)
        assert energy_drift <= 1e-10, f"{entry.name} energy drift {energy_drift:.3e}"
        for key in ("norms_analytic", "norms_oracle"):
            defect = float(np.max(np.abs(run[key] - 1.0)))
            worst_norm = max(worst_norm, defect)
            assert defect <= 1e-12, f"{entry.name} {key} norm defect {defect:.3e}"
    report(
        "7 conservation",
        True,
        f"max total-excitation drift {worst_ntot:.2e}, max energy drift "
        f"{worst_energy:.2e}, max norm defect {worst_norm:.2e}",
    )
