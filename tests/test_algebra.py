import math

import numpy as np
import pytest

from gjc.algebra import (
    auxiliary_charges,
    basis_dim,
    build_charges,
    build_operator_set,
    e_index,
    g_index,
    interior_mask,
    ladder_factor,
    susy_hamiltonian,
    verify_relations,
)
from gjc.errors import ConfigError
from gjc.model import ModelSpec, SQRT_N, ZERO, registry, registry_model
from gjc.oracle import assemble

JC = registry_model("jc")
INTENSITY = registry_model("intensity-multiboson")
N_MAX = 32


class TestCharges:
    def test_jc_vacuum_element(self):
        q_dag, _ = build_charges(JC, N_MAX)
        assert q_dag[e_index(0, N_MAX), g_index(1, N_MAX)] == 1.0

    def test_intensity_element(self):
        # f(2) * sqrt(4!/2!) = sqrt(2) * sqrt(12) = sqrt(24); oracle: explicit product
        q_dag, _ = build_charges(INTENSITY, N_MAX)
        expected = math.sqrt(2.0) * math.sqrt(4.0 * 3.0)
        got = q_dag[e_index(2, N_MAX), g_index(4, N_MAX)]
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(4.898979485566356, rel=1e-15)

    def test_annihilates_excited_row(self):
        # Q^dag |e,n> = 0 for all n: the e-columns are identically zero
        q_dag, _ = build_charges(INTENSITY, N_MAX)
        assert np.all(q_dag[:, : N_MAX + 1] == 0.0)

    def test_adjoint_is_exact_transpose(self):
        q_dag, q = build_charges(registry_model("kerr-two-photon"), N_MAX)
        assert np.array_equal(q, q_dag.T)

    def test_requires_nmax_ge_k(self):
        with pytest.raises(ConfigError):
            build_charges(INTENSITY, 1)


class TestSusyHamiltonian:
    def test_jc_sector_values(self):
        # k=1, f=1: (n+1) on the excited row, n on the ground row
        ham = susy_hamiltonian(JC, N_MAX)
        diag = np.diag(ham)
        for n in range(N_MAX + 1):
            assert diag[e_index(n, N_MAX)] == n + 1
            assert diag[g_index(n, N_MAX)] == n

    def test_ground_vacuum_is_dark(self):
        for spec in (JC, INTENSITY):
            diag = np.diag(susy_hamiltonian(spec, N_MAX))
            for n in range(spec.k):
                assert diag[g_index(n, N_MAX)] == 0.0

    def test_two_boson_entry(self):
        # k=2, f=1 at |e,3>: (3+2)!/3! = 5*4 = 20
        spec = registry_model("stark-two-photon")
        diag = np.diag(susy_hamiltonian(spec, N_MAX))
        assert diag[e_index(3, N_MAX)] == 20.0

    @pytest.mark.parametrize("name", ["jc", "intensity-multiboson", "q-deformed"])
    def test_matches_anticommutator_product(self, name):
        # oracle: the explicit matrix product Q^dag Q + Q Q^dag on the interior
        spec = registry_model(name)
        q_dag, q = build_charges(spec, N_MAX)
        product = q_dag @ q + q @ q_dag
        ham = susy_hamiltonian(spec, N_MAX)
        mask = interior_mask(N_MAX, spec.k)
        sub = np.ix_(mask, mask)
        assert np.max(np.abs(product[sub] - ham[sub])) < 1e-11

    def test_k1_sector_formula_reduction(self):
        # at k=1 the sectors read (n+1) f(n)^2 and n f(n-1)^2
        spec = ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=1, f=SQRT_N, F=ZERO, G=ZERO)
        diag = np.diag(susy_hamiltonian(spec, N_MAX))
        for n in range(1, N_MAX + 1):
            assert diag[e_index(n, N_MAX)] == pytest.approx((n + 1) * n, rel=1e-14)
            assert diag[g_index(n, N_MAX)] == pytest.approx(n * (n - 1), rel=1e-14)


class TestOperatorSet:
    def test_scaled_sigma_z_entries(self):
        ops = build_operator_set(INTENSITY, 8)
        diag = np.diag(ops["B"])
        assert np.all(diag[:9] == 1.0)  # +k/2 with k=2
        assert np.all(diag[9:] == -1.0)

    def test_total_excitation_entries(self):
        ops = build_operator_set(INTENSITY, 8)
        diag = np.diag(ops["N"])
        for n in range(9):
            assert diag[e_index(n, 8)] == n + 1.0
            assert diag[g_index(n, 8)] == n - 1.0


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

    def test_guard_validation(self):
        with pytest.raises(ConfigError):
            verify_relations(INTENSITY, N_MAX, guard=1)  # guard < k
        with pytest.raises(ConfigError):
            verify_relations(JC, N_MAX, guard=N_MAX + 1)


class TestAuxiliaryCharges:
    def test_squares_equal_susy_hamiltonian(self):
        for name in ("jc", "kerr-two-photon", "q-deformed"):
            spec = registry_model(name)
            q_x, q_y = auxiliary_charges(spec, N_MAX)
            ham = susy_hamiltonian(spec, N_MAX)
            mask = interior_mask(N_MAX, 2 * spec.k)
            sub = np.ix_(mask, mask)
            assert np.max(np.abs((q_x @ q_x)[sub] - ham[sub])) <= 1e-12
            assert np.max(np.abs((q_y @ q_y)[sub] - ham[sub])) <= 1e-12

    def test_hermiticity_exact(self):
        q_x, q_y = auxiliary_charges(INTENSITY, N_MAX)
        assert np.array_equal(q_x, q_x.T)
        assert np.array_equal(q_y, q_y.conj().T)

    def test_jc_interaction_part(self):
        # g * Q_X is exactly the off-diagonal part of the full Hamiltonian
        q_x, _ = auxiliary_charges(JC, N_MAX)
        h = assemble(JC, N_MAX).mat
        off_diagonal = h - np.diag(np.diag(h))
        assert np.array_equal(off_diagonal, JC.g * q_x)


class TestSectorSpectra:
    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_isospectral_sectors(self, entry):
        # nonzero spectra of Q^dag Q and Q Q^dag coincide once the charge is
        # restricted to the interior (AB vs BA isospectrality)
        spec = entry.spec
        n_max = 64
        mask = interior_mask(n_max, 2 * spec.k)
        q_dag, q = build_charges(spec, n_max)
        q_dag_i = q_dag[np.ix_(mask, mask)]
        q_i = q_dag_i.T
        up = np.sort(np.diag(q_dag_i @ q_i))
        down = np.sort(np.diag(q_i @ q_dag_i))
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
        q_dag, q = build_charges(spec, n_max)
        ham = susy_hamiltonian(spec, n_max)
        half = n_max + 1
        h_b = ham.copy()
        h_b[:half, :half] = 0.0
        for n in range(n_max - 2 * spec.k + 1):
            lam = ham[e_index(n, n_max), e_index(n, n_max)]
            if lam <= 0.0:
                continue
            v = np.zeros(basis_dim(n_max))
            v[e_index(n, n_max)] = 1.0
            qv = q @ v
            norm = np.linalg.norm(qv)
            assert norm > 0.0
            assert np.linalg.norm(h_b @ qv - lam * qv) <= 1e-9 * norm


def test_ladder_factor_matches_factorials():
    assert ladder_factor(3, 2) == pytest.approx(math.sqrt(math.factorial(5) / math.factorial(3)))
    assert ladder_factor(0, 1) == 1.0
