import math
import threading
import tracemalloc

import numpy as np
import pytest

from gjc import analytic, oracle, states
from gjc.analytic import trace_observables as analytic_trace
from gjc.errors import ConfigError, TruncationError
from gjc.model import load_model, registry, registry_model
from gjc.oracle import (
    BLOCK_COLUMNS,
    HamiltonianMatrix,
    assemble,
    basis_dim,
    e_index,
    g_index,
    propagate,
    spectrum,
)
from gjc.states import (
    QubitBosonState,
    coherent_amplitudes,
    coherent_state,
    fock_state,
    _reduce,
    observables,
)

JC = registry_model("jc")
OVERFLOW_450 = r"^non-finite result: the model overflows at n_max=450$"


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

    def test_overflowing_model_is_refused(self):
        # (m+k)!/m! overflows from k = 171 on: the coupling is infinite
        spec = load_model(JC.to_dict() | {"k": 400})
        with np.errstate(over="ignore"), pytest.raises(ConfigError, match=OVERFLOW_450):
            assemble(spec, 450)

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

    def test_norm_drift_rejected(self, monkeypatch):
        # eigenvectors scaled off unit norm, past the eigen-residual check
        spectrum_ = oracle.spectrum

        def scaled(h):
            vals, vecs = spectrum_(h)
            return vals, 1.001 * vecs

        monkeypatch.setattr(oracle, "spectrum", scaled)
        with pytest.raises(ConfigError, match="norm drift"):
            propagate(assemble(JC, 16), coherent_state("g", 1.0, 16), [0.0, 1.0])

    def test_norm_preserved(self):
        h = assemble(registry_model("molecular"), 64)
        initial = coherent_state("g", 3.0, 64)
        amp_e, amp_g = propagate(h, initial, np.linspace(0.0, 100.0, 11))
        norms = np.sum(np.abs(amp_e) ** 2, axis=0) + np.sum(np.abs(amp_g) ** 2, axis=0)
        for norm_squared in norms:
            assert abs(norm_squared + initial.tail_mass - 1.0) < 1e-12


def _both_levels_coherent(alpha, n_max):
    """0.6|e, alpha> + 0.8i|g, alpha>: both qubit rows populated."""
    coeffs, tail = coherent_amplitudes(alpha, n_max)
    return QubitBosonState(n_max=n_max, amp_e=0.6 * coeffs, amp_g=0.8j * coeffs, tail_mass=tail)


# (model, message, n of the start |e, n> at n_max 64), as in test_analytic's LEAKS
LEAKS = [
    ("jc", "population 1.000e+00 in the top 2 Fock level(s)", 62),
    ("parity-deformed", "population 9.403e-01 in the top 2 Fock level(s)", 62),
    ("intensity-multiboson", "population 9.999e-01 in the top 4 Fock level(s)", 59),
]


def _first_block(points):
    """Time points in the first block of oracle.trace_observables."""
    return points // -(-points // BLOCK_COLUMNS)


class TestStreamedTrace:
    @pytest.mark.parametrize("name", ["jc", "kerr-two-photon"])
    @pytest.mark.parametrize("n_max", [8, 64, 384, 1024])
    def test_blocks_give_the_whole_grid_bits(self, name, n_max, monkeypatch):
        # One point, a block minus one, one block, one block plus one, two
        # blocks plus one (which a fixed-width split would end with a
        # single column) and the 2001-point default grid.  eigh runs once
        # per matrix (seconds at n_max 1024); both sides propagate its result.
        h = assemble(registry_model(name), n_max)
        eigen = spectrum(h)
        monkeypatch.setattr(oracle, "spectrum", lambda _: eigen)
        initial = _both_levels_coherent(0.02 if n_max < 64 else 3.0, n_max)
        b = BLOCK_COLUMNS
        for points in (1, b - 1, b, b + 1, 2 * b + 1, 2001):
            times = np.linspace(0.0, 200.0, points)
            streamed = np.stack(oracle.trace_observables(h, initial, times))
            whole = np.stack(observables(*propagate(h, initial, times)))
            assert streamed.shape == (4, points)
            assert np.array_equal(streamed.view(np.uint64), whole.view(np.uint64)), points

    @pytest.mark.parametrize("name, message, level", LEAKS)
    def test_truncation_message_names_the_largest_leak_of_any_block(self, name, message, level):
        # the population passes the tolerance in the first block and peaks in a later one
        h, n_max = assemble(registry_model(name), 64), 64
        initial = fock_state("e", level, n_max)
        times = np.linspace(0.0, 8.0, 5000)
        amp_e, amp_g = oracle._propagator(h, initial)(times.size)(times)
        lo = n_max + 1 - 2 * h.k
        guard = np.sum(np.abs(amp_e[lo:]) ** 2 + np.abs(amp_g[lo:]) ** 2, axis=0)
        first_block = guard[: _first_block(times.size)]
        assert first_block.max() > 1e-10
        assert f"{first_block.max():.3e}" != f"{guard.max():.3e}"
        with pytest.raises(TruncationError) as excinfo:
            oracle.trace_observables(h, initial, times)
        assert str(excinfo.value) == f"{message} exceeds 1e-10; raise n_max (suggestion: 128)"

    def test_norm_drift_is_checked_over_the_whole_grid_before_the_leak(self, monkeypatch):
        # eigenvalues with an imaginary part of 1e-12: the norm drifts by
        # about 2e-12 * t, past the tolerance only after the first block,
        # while the start leaks from the first block on
        def growing(h):
            vals, vecs = spectrum(h)
            return vals + 1e-12j, vecs

        monkeypatch.setattr(oracle, "spectrum", growing)
        h, initial = assemble(JC, 64), fock_state("e", 62, 64)
        times = np.linspace(0.0, 8.0, 5000)
        with pytest.raises(TruncationError):
            propagate(h, initial, times[: _first_block(times.size)])
        with pytest.raises(ConfigError, match="norm drift") as whole:
            propagate(h, initial, times)
        with pytest.raises(ConfigError) as streamed:
            oracle.trace_observables(h, initial, times)
        assert str(streamed.value) == str(whole.value)

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_norms_are_each_columns_squared_norm(self, engine):
        # the per-column norms the streamed reduction measures, against an
        # exactly rounded sum of every |amplitude|^2 of the column
        spec, n_max = registry_model("kerr-two-photon"), 64
        initial = _both_levels_coherent(3.0, n_max)
        times = np.linspace(0.0, 200.0, 2001)
        if engine == "analytic":
            width = analytic.CHUNK_ELEMENTS // (n_max + 1)
            blocks = analytic._amplitude_kernel(spec, initial)(width)
            amp_e, amp_g = analytic.evolve_amplitudes(spec, initial, times)
        else:
            h, width = assemble(spec, n_max), BLOCK_COLUMNS
            blocks = oracle._propagator(h, initial)(width)
            amp_e, amp_g = propagate(h, initial, times)
        norms = np.concatenate([_reduce(*blocks(times[lo : lo + width]), 2 * spec.k)[4]
                                for lo in range(0, times.size, width)])
        squares = np.abs(np.concatenate([amp_e, amp_g])) ** 2
        exact = np.array([math.fsum(column) for column in squares.T])
        assert norms.shape == times.shape
        assert np.max(np.abs(norms - exact)) <= 1e-15

    def test_two_workers_share_one_eigendecomposition(self, monkeypatch):
        # 130 x 2001 amplitudes run on two workers, which share the spectrum
        # and its residual check
        calls, started = [], []
        eigen, start = oracle.spectrum, threading.Thread.start
        monkeypatch.setattr(oracle, "spectrum", lambda h: calls.append(h) or eigen(h))
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        monkeypatch.setattr(states, "_cpus", lambda: 2)
        h = assemble(JC, 64)
        oracle.trace_observables(h, coherent_state("g", 3.0, 64), np.linspace(0.0, 200.0, 2001))
        assert (len(calls), len(started)) == (1, 1)

    def test_empty_grid_gives_empty_arrays(self):
        # no blocks: four empty arrays, no drift and no leak
        h, initial = assemble(JC, 8), fock_state("g", 0, 8)
        for trace in (oracle.trace_observables(h, initial, []), analytic_trace(JC, initial, [])):
            assert [a.shape for a in trace] == [(0,)] * 4

    def test_peak_memory_below_one_amplitude_matrix(self):
        n_max, points = 256, 20001
        h, initial = assemble(JC, n_max), coherent_state("g", 3.0, n_max)
        times = np.linspace(0.0, 200.0, points)
        tracemalloc.start()
        try:
            oracle.trace_observables(h, initial, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < basis_dim(n_max) * points * np.dtype(np.complex128).itemsize


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
        with pytest.raises(ConfigError, match="residual"):
            spectrum(assemble(registry_model("q-deformed"), 256))

    def test_nan_decomposition_rejected(self, monkeypatch):
        # a NaN residual compares False with the bound, and must still fail
        def nan(mat):
            return np.full(mat.shape[0], np.nan), np.full(mat.shape, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan)
        with pytest.raises(ConfigError, match="^eigendecomposition residual nan exceeds"):
            spectrum(assemble(JC, 8))


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
