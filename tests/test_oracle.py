import math

import numpy as np
import pytest

from gjc.errors import ConfigError, TruncationError
from gjc.model import registry, registry_model
from gjc.oracle import HamiltonianMatrix, assemble, e_index, g_index, propagate, spectrum
from gjc.states import coherent_state, fock_state

JC = registry_model("jc")


class TestAssemble:
    def test_jc_two_level_block(self):
        h = assemble(JC, 1)
        assert h.mat.shape == (4, 4)
        assert h.mat[e_index(0), g_index(1, 1)] == JC.g

    def test_kerr_ground_diagonal(self):
        # omega*n - omega0/2 + chi*n*(n-1) at n=3: 3 - 0.5 + 0.5*6 = 5.5
        spec = registry_model("kerr-two-photon")
        h = assemble(spec, 8)
        assert h.mat[g_index(3, 8), g_index(3, 8)] == pytest.approx(5.5, rel=1e-15)

    def test_decoupled_is_diagonal(self):
        spec = registry_model("jc").to_dict()
        spec["g"] = 0.0
        from gjc.model import load_model

        h = assemble(load_model(spec), 8)
        assert np.array_equal(h.mat, np.diag(np.diag(h.mat)))

    def test_exactly_symmetric(self):
        for entry in registry():
            h = assemble(entry.spec, 24)
            assert np.array_equal(h.mat, h.mat.T)

    def test_block_structure(self):
        # off-diagonals only between |e,n> and |g,n+k>
        spec = registry_model("stark-two-photon")
        n_max = 10
        h = assemble(spec, n_max).mat
        off = h - np.diag(np.diag(h))
        expected = np.zeros_like(off)
        for n in range(n_max - spec.k + 1):
            i, j = e_index(n), g_index(n + spec.k, n_max)
            expected[i, j] = off[i, j]
            expected[j, i] = off[j, i]
        assert np.array_equal(off, expected)

    def test_nmax_too_small(self):
        with pytest.raises(ConfigError):
            assemble(registry_model("intensity-multiboson"), 1)

    def test_matrix_immutable(self):
        h = assemble(JC, 4)
        with pytest.raises(ValueError):
            h.mat[0, 0] = 7.0


class TestPropagate:
    def test_time_zero_identity(self):
        h = assemble(JC, 16)
        initial = fock_state("e", 2, 16)
        amp_e, amp_g = propagate(h, initial, [0.0])
        assert np.max(np.abs(amp_e[:, 0] - initial.amp_e)) < 1e-14
        assert np.max(np.abs(amp_g[:, 0] - initial.amp_g)) < 1e-14

    def test_decoupled_populations_frozen(self):
        from gjc.model import load_model

        doc = JC.to_dict()
        doc["g"] = 0.0
        h = assemble(load_model(doc), 16)
        initial = fock_state("g", 5, 16)
        _, amp_g = propagate(h, initial, np.linspace(0.0, 30.0, 7))
        for column in amp_g.T:
            assert abs(abs(column[5]) - 1.0) < 1e-13

    def test_jc_half_rabi_transfer(self):
        # |e,0> at resonance transfers fully to |g,1> after t = pi/(2g)
        h = assemble(JC, 16)
        initial = fock_state("e", 0, 16)
        _, amp_g = propagate(h, initial, [math.pi / (2.0 * JC.g)])
        assert abs(amp_g[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_leak_detection(self):
        h = assemble(JC, 16)
        initial = fock_state("g", 16, 16)  # sits inside the guard band
        with pytest.raises(TruncationError) as excinfo:
            propagate(h, initial, [0.0, 1.0])
        assert excinfo.value.suggested_n_max == 32

    def test_dimension_mismatch(self):
        h = assemble(JC, 16)
        with pytest.raises(ValueError, match="n_max"):
            propagate(h, fock_state("g", 0, 8), [0.0])

    def test_norm_preserved(self):
        h = assemble(registry_model("molecular"), 64)
        initial = coherent_state("g", 3.0, 64)
        amp_e, amp_g = propagate(h, initial, np.linspace(0.0, 100.0, 11))
        norms = np.sum(np.abs(amp_e) ** 2, axis=0) + np.sum(np.abs(amp_g) ** 2, axis=0)
        for norm_squared in norms:
            assert abs(norm_squared + initial.tail_mass - 1.0) < 1e-12


class TestSpectrum:
    def test_decoupled_jc_levels(self):
        # g=0: eigenvalues are the multiset {omega*n +- omega0/2}
        from gjc.model import load_model

        doc = JC.to_dict()
        doc["g"] = 0.0
        n_max = 8
        h = assemble(load_model(doc), n_max)
        vals, _ = spectrum(h)
        expected = np.sort(
            [n + 0.5 for n in range(n_max + 1)] + [n - 0.5 for n in range(n_max + 1)]
        )
        assert np.max(np.abs(vals - expected)) < 1e-12

    def test_jc_resonance_pairs(self):
        # oracle: hand 2x2 diagonalization gives omega*(n+1/2) +- g*sqrt(n+1),
        # plus the dark level at -omega0/2
        n_max = 12
        h = assemble(JC, n_max)
        vals, _ = spectrum(h)
        expected = [-0.5]
        for n in range(n_max):
            expected.append(n + 0.5 + 0.1 * math.sqrt(n + 1))
            expected.append(n + 0.5 - 0.1 * math.sqrt(n + 1))
        expected.append(n_max + 0.5)  # top excited level, uncoupled in truncation
        assert np.max(np.abs(vals - np.sort(expected))) < 1e-12

    def test_dark_level_energy(self):
        vals, _ = spectrum(assemble(JC, 8))
        assert np.min(np.abs(vals - (-0.5))) < 1e-12

    def test_eigenpair_residuals(self):
        for entry in registry():
            h = assemble(entry.spec, 32)
            vals, vecs = spectrum(h)
            residual = np.max(np.abs(h.mat @ vecs - vecs * vals))
            assert residual <= 1e-10

    def test_residual_bound_scales_with_norm(self):
        # max |E| is 2.4e6 here: eigh's roundoff exceeds 1e-10 absolute,
        # but not 1e-10 * max |E|
        h = assemble(registry_model("q-deformed"), 256)
        vals, vecs = spectrum(h)
        residual = np.max(np.abs(h.mat @ vecs - vecs * vals))
        assert residual <= 1e-10 * np.max(np.abs(vals))

    def test_corrupted_eigenvector_rejected(self, monkeypatch):
        eigh = np.linalg.eigh

        def corrupted(mat):
            vals, vecs = eigh(mat)
            vecs = vecs.copy()
            vecs[:, 3] = np.roll(vecs[:, 3], 1)
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(RuntimeError, match="residual"):
            spectrum(assemble(registry_model("q-deformed"), 256))


class TestConservation:
    def test_energy_constant(self):
        h = assemble(registry_model("kerr-two-photon"), 64)
        initial = coherent_state("g", 3.0, 64)
        columns = np.concatenate(propagate(h, initial, np.linspace(0.0, 200.0, 41)))
        energies = np.real(np.einsum("it,it->t", np.conj(columns), h.mat @ columns))
        assert np.max(np.abs(energies - energies[0])) < 1e-10

    def test_commutes_with_total_excitation(self):
        for entry in registry():
            h = assemble(entry.spec, 32)
            ns = np.arange(33, dtype=float)
            ntot = np.diag(np.concatenate([ns + entry.spec.k / 2.0, ns - entry.spec.k / 2.0]))
            residual = np.max(np.abs(h.mat @ ntot - ntot @ h.mat))
            assert residual <= 1e-11

    def test_spectrum_matches_closed_form_eigenvalues(self):
        # full truncated spectrum = dressed pairs + dark levels + top
        # uncoupled excited diagonals
        from gjc.analytic import dark_levels, manifolds

        for entry in registry():
            spec = entry.spec
            n_max = 40
            h = assemble(spec, n_max)
            vals, _ = spectrum(h)
            model_table = spec.validate_range(n_max)
            m = manifolds(spec, model_table)
            expected = [*m.e_plus, *m.e_minus, *dark_levels(spec, model_table)]
            for n in range(n_max - spec.k + 1, n_max + 1):
                expected.append(
                    spec.omega * n + spec.omega0 / 2.0 + spec.F(n) + spec.G(n)
                )
            assert np.max(np.abs(vals - np.sort(expected))) <= 1e-9, entry.name


def test_hamiltonian_matrix_shape_validation():
    with pytest.raises(ValueError):
        HamiltonianMatrix(n_max=4, k=1, mat=np.zeros((3, 3)))
