import math
import tracemalloc

import numpy as np
import pytest

from gjc.algebra import (
    auxiliary_charges,
    build_operator_set,
    ladder_factor,
    ladder_product,
    verify_relations,
)
from gjc.errors import ConfigError
from gjc.model import ModelSpec, SQRT_N, ZERO, registry, registry_model
from gjc.oracle import assemble, basis_dim, e_index, g_index

JC = registry_model("jc")
INTENSITY = registry_model("intensity-multiboson")
N_MAX = 32

# Block indexing: |e, n> is slot 0 of row n + k, |g, n> is slot 1 of row n.


def interior_pairs(n_max: int, k: int, guard: int) -> np.ndarray:
    """(row, slot, slot) mask of the block entries between interior slots."""
    levels = np.arange(n_max + k + 1)[:, None] - np.array([k, 0])
    interior = (levels >= 0) & (levels <= n_max - guard)
    return interior[:, :, None] & interior[:, None, :]


def transpose(stack: np.ndarray) -> np.ndarray:
    return stack.transpose(0, 2, 1)


def dense_reference(spec: ModelSpec, n_max: int, guard: int) -> dict:
    """The 17 relation residuals from dense Fock-basis matrices (reference)."""
    k = spec.k
    dim = basis_dim(n_max)
    q_dag = np.zeros((dim, dim))
    for n in range(n_max - k + 1):
        q_dag[e_index(n), g_index(n + k, n_max)] = spec.f(n) * ladder_factor(n, k)
    q = q_dag.T.copy()
    diag = np.zeros(dim)
    for n in range(n_max + 1):
        diag[e_index(n)] = spec.f(n) ** 2 * ladder_product(n, k)
        if n >= k:
            diag[g_index(n, n_max)] = spec.f(n - k) ** 2 * ladder_product(n - k, k)
    ham = np.diag(diag)
    ns = np.arange(n_max + 1, dtype=float)
    ntot = np.diag(np.concatenate([ns + k / 2.0, ns - k / 2.0]))
    ones = np.ones(n_max + 1)
    b = np.diag(np.concatenate([ones * (k / 2.0), ones * (-k / 2.0)]))
    half = n_max + 1
    h_f = ham.copy()
    h_f[half:, half:] = 0.0
    h_b = ham.copy()
    h_b[:half, :half] = 0.0
    q_x, q_y = q_dag + q, 1j * (q_dag - q)
    kf = float(k)

    def comm(a, bb):
        return a @ bb - bb @ a

    mats = {
        "nilpotent_Qdag": q_dag @ q_dag,
        "nilpotent_Q": q @ q,
        "commute_Q_H": comm(q, ham),
        "commute_Qdag_H": comm(q_dag, ham),
        "commute_N_H": comm(ntot, ham),
        "commute_B_H": comm(b, ham),
        "commute_Q_N": comm(q, ntot),
        "commute_Qdag_N": comm(q_dag, ntot),
        "commute_H_N": comm(ham, ntot),
        "commute_B_N": comm(b, ntot),
        "intertwine_Q_Hf": q @ h_f - h_b @ q,
        "intertwine_Hf_Qdag": h_f @ q_dag - q_dag @ h_b,
        "ladder_B_Qdag": comm(b, q_dag) - kf * q_dag,
        "ladder_B_Q": comm(b, q) + kf * q,
        "charge_commutator": comm(q_dag, q) - (2.0 / kf) * ham @ b,
        "aux_X_squared": q_x @ q_x - ham,
        "aux_Y_squared": q_y @ q_y - ham,
    }
    keep = np.arange(n_max + 1) <= n_max - guard
    sub = np.ix_(np.concatenate([keep, keep]), np.concatenate([keep, keep]))
    return {name: float(np.max(np.abs(mat[sub]))) for name, mat in mats.items()}


class TestCharges:
    def test_jc_vacuum_element(self):
        q_dag = build_operator_set(JC, N_MAX)["Qdag"]
        assert q_dag[1, 0, 1] == 1.0  # <e,0| Q^dag |g,1>

    def test_intensity_element(self):
        # f(2) * sqrt(4!/2!) = sqrt(2) * sqrt(12) = sqrt(24); oracle: explicit product
        q_dag = build_operator_set(INTENSITY, N_MAX)["Qdag"]
        expected = math.sqrt(2.0) * math.sqrt(4.0 * 3.0)
        got = q_dag[4, 0, 1]  # <e,2| Q^dag |g,4>
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(4.898979485566356, rel=1e-15)

    def test_annihilates_excited_row(self):
        # Q^dag |e,n> = 0 for all n: the e-slot columns are identically zero
        q_dag = build_operator_set(INTENSITY, N_MAX)["Qdag"]
        assert np.all(q_dag[:, :, 0] == 0.0)

    def test_adjoint_is_exact_transpose(self):
        ops = build_operator_set(registry_model("kerr-two-photon"), N_MAX)
        assert np.array_equal(ops["Q"], transpose(ops["Qdag"]))

    def test_requires_nmax_ge_k(self):
        with pytest.raises(ConfigError):
            build_operator_set(INTENSITY, 1)


class TestSusyHamiltonian:
    def test_jc_sector_values(self):
        # k=1, f=1: (n+1) on the excited row, n on the ground row
        ham = build_operator_set(JC, N_MAX)["H"]
        for n in range(N_MAX + 1):
            assert ham[n + 1, 0, 0] == n + 1
            assert ham[n, 1, 1] == n

    def test_ground_vacuum_is_dark(self):
        for spec in (JC, INTENSITY):
            ham = build_operator_set(spec, N_MAX)["H"]
            for n in range(spec.k):
                assert ham[n, 1, 1] == 0.0

    def test_two_boson_entry(self):
        # k=2, f=1 at |e,3>: (3+2)!/3! = 5*4 = 20
        ham = build_operator_set(registry_model("stark-two-photon"), N_MAX)["H"]
        assert ham[3 + 2, 0, 0] == 20.0

    @pytest.mark.parametrize("name", ["jc", "intensity-multiboson", "q-deformed"])
    def test_matches_anticommutator_product(self, name):
        # oracle: the explicit matrix product Q^dag Q + Q Q^dag on the interior
        spec = registry_model(name)
        ops = build_operator_set(spec, N_MAX)
        product = ops["Qdag"] @ ops["Q"] + ops["Q"] @ ops["Qdag"]
        pairs = interior_pairs(N_MAX, spec.k, spec.k)
        assert np.max(np.abs(product - ops["H"])[pairs]) < 1e-11

    def test_k1_sector_formula_reduction(self):
        # at k=1 the sectors read (n+1) f(n)^2 and n f(n-1)^2
        spec = ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=1, f=SQRT_N, F=ZERO, G=ZERO)
        ham = build_operator_set(spec, N_MAX)["H"]
        for n in range(1, N_MAX + 1):
            assert ham[n + 1, 0, 0] == pytest.approx((n + 1) * n, rel=1e-14)
            assert ham[n, 1, 1] == pytest.approx(n * (n - 1), rel=1e-14)


class TestOperatorSet:
    def test_scaled_sigma_z_entries(self):
        b = build_operator_set(INTENSITY, 8)["B"]
        assert np.all(b[2:, 0, 0] == 1.0)  # +k/2 with k=2 on |e,0..8>
        assert np.all(b[:9, 1, 1] == -1.0)

    def test_total_excitation_entries(self):
        ntot = build_operator_set(INTENSITY, 8)["N"]
        for n in range(9):
            assert ntot[n + 2, 0, 0] == n + 1.0
            assert ntot[n, 1, 1] == n - 1.0


class TestVerifyRelations:
    def test_nilpotency_is_structural(self):
        res = verify_relations(JC, N_MAX, guard=4)
        assert res["nilpotent_Q"] == 0.0
        assert res["nilpotent_Qdag"] == 0.0

    def test_ladder_relations_roundoff_only(self):
        for entry in registry():
            res = verify_relations(entry.spec, N_MAX)
            assert res["ladder_B_Qdag"] <= 1e-13
            assert res["ladder_B_Q"] <= 1e-13

    def test_charge_commutator(self):
        for entry in registry():
            res = verify_relations(entry.spec, N_MAX)
            assert res["charge_commutator"] <= 1e-10

    def test_all_relations_all_models(self):
        for entry in registry():
            res = verify_relations(entry.spec, 64)
            worst = max(res.values())
            assert worst <= 1e-10, f"{entry.name}: worst residual {worst:.3e}"

    def test_one_residual_stack_at_a_time(self):
        # all 17 residual stacks held at once peak near 30 stacks
        spec, n_max = registry_model("kerr-two-photon"), 100_000
        tracemalloc.start()
        try:
            verify_relations(spec, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * (n_max + spec.k + 1) * 32

    def test_guard_validation(self):
        with pytest.raises(ConfigError):
            verify_relations(INTENSITY, N_MAX, guard=1)  # guard < k
        with pytest.raises(ConfigError):
            verify_relations(JC, N_MAX, guard=N_MAX + 1)

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_equals_dense_reference(self, entry):
        k = entry.spec.k
        for guard in (k, 2 * k, 16):
            assert verify_relations(entry.spec, 16, guard) == dense_reference(entry.spec, 16, guard)


class TestAuxiliaryCharges:
    def test_squares_equal_susy_hamiltonian(self):
        for name in ("jc", "kerr-two-photon", "q-deformed"):
            spec = registry_model(name)
            q_x, q_y = auxiliary_charges(spec, N_MAX)
            ham = build_operator_set(spec, N_MAX)["H"]
            pairs = interior_pairs(N_MAX, spec.k, 2 * spec.k)
            assert np.max(np.abs(q_x @ q_x - ham)[pairs]) <= 1e-12
            assert np.max(np.abs(q_y @ q_y - ham)[pairs]) <= 1e-12

    def test_hermiticity_exact(self):
        q_x, q_y = auxiliary_charges(INTENSITY, N_MAX)
        assert np.array_equal(q_x, transpose(q_x))
        assert np.array_equal(q_y, transpose(q_y).conj())

    def test_jc_interaction_part(self):
        # g * Q_X is exactly the off-diagonal part of the full Hamiltonian
        q_x, _ = auxiliary_charges(JC, N_MAX)
        h = assemble(JC, N_MAX).mat.copy()
        for m in range(N_MAX - JC.k + 1):
            e, g = e_index(m), g_index(m + JC.k, N_MAX)
            assert h[e, g] == JC.g * q_x[m + JC.k, 0, 1]
            assert h[g, e] == JC.g * q_x[m + JC.k, 1, 0]
            h[e, g] = h[g, e] = 0.0
        assert np.array_equal(h, np.diag(np.diag(h)))


class TestSectorSpectra:
    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_isospectral_sectors(self, entry):
        # nonzero spectra of Q^dag Q and Q Q^dag coincide once the charge is
        # restricted to the interior (AB vs BA isospectrality)
        spec = entry.spec
        n_max = 64
        pairs = interior_pairs(n_max, spec.k, 2 * spec.k)
        q_dag_i = np.where(pairs, build_operator_set(spec, n_max)["Qdag"], 0.0)
        q_i = transpose(q_dag_i)
        up = np.sort(np.diagonal(q_dag_i @ q_i, axis1=1, axis2=2).ravel())
        down = np.sort(np.diagonal(q_i @ q_dag_i, axis1=1, axis2=2).ravel())
        up = up[up > 1e-12]
        down = down[down > 1e-12]
        assert up.shape == down.shape
        assert np.max(np.abs(up - down)) <= 1e-10

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_intertwining_maps_eigenvectors(self, entry):
        # for every interior eigenpair (lam, v) of the excited sector with
        # lam > 0, Q v is an eigenvector of the ground sector with the same lam
        spec = entry.spec
        n_max = 48
        ops = build_operator_set(spec, n_max)
        h_b = ops["H"].copy()
        h_b[:, 0, 0] = 0.0
        for n in range(n_max - 2 * spec.k + 1):
            row = n + spec.k
            lam = ops["H"][row, 0, 0]
            if lam <= 0.0:
                continue
            qv = ops["Q"][row] @ np.array([1.0, 0.0])  # Q |e,n>
            norm = np.linalg.norm(qv)
            assert norm > 0.0
            assert np.linalg.norm(h_b[row] @ qv - lam * qv) <= 1e-9 * norm

def test_ladder_factor_matches_factorials():
    assert ladder_factor(3, 2) == pytest.approx(math.sqrt(math.factorial(5) / math.factorial(3)))
    assert ladder_factor(0, 1) == 1.0
