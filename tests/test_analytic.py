import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjc import analytic, oracle, states
from gjc.algebra import ladder_factor
from gjc.analytic import (
    CHUNK_ELEMENTS,
    aux_binomial,
    aux_two_point,
    dark_levels,
    dressed_states,
    evolve,
    evolve_amplitudes,
    manifolds,
    sigma_z_fock,
    trace_observables,
)
from gjc.errors import ConfigError, TruncationError
from gjc.model import (
    ModelSpec,
    ONE,
    ZERO,
    linear_stark,
    load_model,
    poly,
    registry,
    registry_model,
)
from gjc.oracle import assemble, propagate
from gjc.states import (
    QubitBosonState,
    coherent_amplitudes,
    coherent_state,
    fock_state,
    observables,
    stream_observables,
)

JC = registry_model("jc")
# F = -G with G(n) = 1.7e308 - 2.5e307 n: the ground diagonal 2 G(n) overflows
# on the dark levels n < k = 4 alone, and every manifold of n_max = 6 is finite.
DARK_OVERFLOW = ModelSpec(
    omega=1.0, omega0=1.0, g=0.1, k=4, f=ONE, F=poly(-1.7e308, 2.5e307), G=poly(1.7e308, -2.5e307)
)


def _with_g(spec, g):
    doc = spec.to_dict()
    doc["g"] = g
    return load_model(doc)


class TestAuxTwoPoint:
    def test_zero_functions(self):
        assert aux_two_point(JC, 3.5) == (0.0, 0.0)

    def test_kerr_closed_form(self):
        # hand expansion for G = chi n(n-1), F = 0, k = 2:
        # center = chi (N^2 - N + 1), split = chi (1 - 2N)
        spec = registry_model("kerr-two-photon")
        chi = 0.5
        for n_total in (1.0, 2.0, 5.0, 12.0):
            center, split = aux_two_point(spec, n_total)
            assert center == pytest.approx(chi * (n_total**2 - n_total + 1), rel=1e-14)
            assert split == pytest.approx(chi * (1 - 2 * n_total), rel=1e-14)

    def test_linear_stark_closed_form(self):
        # F = s*n, G = 0, k = 2: center = -s, split = s*N
        s = -0.125
        spec = ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=2, f=ONE, F=linear_stark(s), G=ZERO)
        for n_total in (1.0, 4.0, 9.0):
            center, split = aux_two_point(spec, n_total)
            assert center == pytest.approx(-s, rel=1e-14)
            assert split == pytest.approx(s * n_total, rel=1e-14)

    def test_domain_error_below_lowest_manifold(self):
        with pytest.raises(ValueError):
            aux_two_point(JC, 0.25)


class TestAuxBinomial:
    def test_quadratic_example(self):
        # G = n^2, F = 0, k = 1 at N = 2: center = N^2 + 1/4 = 4.25,
        # split = -2N = -4 (two-point oracle: (N-1/2)^2 - (N+1/2)^2)
        spec = ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=1, f=ONE, F=ZERO, G=poly(0, 0, 1))
        center, split = aux_binomial(spec, 2.0)
        assert center == pytest.approx(4.25, rel=1e-14)
        assert split == pytest.approx(-4.0, rel=1e-14)

    def test_zero_functions(self):
        assert aux_binomial(JC, 2.5) == (0.0, 0.0)

    def test_non_polynomial_rejected(self):
        spec = registry_model("parity-deformed")
        with pytest.raises(ValueError, match="not polynomial"):
            aux_binomial(spec, 1.5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_two_point_on_random_polynomials(self, k):
        rng = np.random.default_rng(1234 + k)
        for _ in range(10):
            f_fn = poly(*rng.uniform(-1.0, 1.0, size=rng.integers(1, 8)))
            g_fn = poly(*rng.uniform(-1.0, 1.0, size=rng.integers(1, 8)))
            spec = ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=k, f=ONE, F=f_fn, G=g_fn)
            for n_lower in range(0, 30, 3):
                n_total = n_lower + k / 2.0
                a = aux_binomial(spec, n_total)
                b = aux_two_point(spec, n_total)
                for x, y in zip(a, b):
                    assert abs(x - y) <= 1e-10 * max(1.0, abs(y))


class TestManifold:
    def test_overflowing_blocks_are_refused(self):
        # (m+k)!/m! overflows from k = 171 on: every Rabi frequency is infinite
        spec = load_model(JC.to_dict() | {"k": 400})
        with np.errstate(over="ignore"), pytest.raises(
            ConfigError, match=r"^non-finite result: the model overflows at n_max=450$"
        ):
            manifolds(spec, spec.validate_range(450))

    def test_jc_resonance_vacuum(self):
        m = manifolds(JC, JC.validate_range(1))
        assert m.rabi_frequency[0] == pytest.approx(2 * JC.g, rel=1e-15)
        assert m.beta[0] == math.pi / 2.0
        assert m.n_total[0] == 0.5

    def test_jc_resonance_rabi_ladder(self):
        m = manifolds(JC, JC.validate_range(12))
        for n in range(12):
            assert m.rabi_frequency[n] == pytest.approx(
                2 * JC.g * math.sqrt(n + 1), rel=1e-15
            )

    def test_decoupled_limit(self):
        spec = _with_g(registry_model("intensity-multiboson"), 0.0)
        m = manifolds(spec, spec.validate_range(spec.k))  # f(0)=0 as well: fully dark block
        detuning = spec.omega0 / spec.k - spec.omega
        assert m.rabi_frequency[0] == pytest.approx(abs(detuning), rel=1e-15)
        assert m.beta[0] in (0.0, math.pi)

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_block_eigendecomposition_oracle(self, entry):
        # oracle: numpy eigh of the bare 2x2 block must reproduce (E_-, E_+)
        spec = entry.spec
        m = manifolds(spec, spec.validate_range(20 + spec.k))
        for n in (0, 1, 5, 20):
            e_top = spec.omega * n + spec.omega0 / 2 + spec.F(n) + spec.G(n)
            nk = n + spec.k
            g_bot = spec.omega * nk - spec.omega0 / 2 - spec.F(nk) + spec.G(nk)
            coupling = spec.g * spec.f(n) * math.sqrt(
                math.factorial(nk) / math.factorial(n)
            )
            block = np.array([[e_top, coupling], [coupling, g_bot]])
            vals = np.linalg.eigvalsh(block)
            assert vals[0] == pytest.approx(m.e_minus[n], abs=1e-12)
            assert vals[1] == pytest.approx(m.e_plus[n], abs=1e-12)

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_invariants(self, entry):
        m = manifolds(entry.spec, entry.spec.validate_range(35 + entry.spec.k))
        for n in range(0, 40, 7):
            assert 0.0 <= m.beta[n] <= math.pi
            assert m.rabi_frequency[n] >= 0.0
            assert m.e_plus[n] - m.e_minus[n] == pytest.approx(
                entry.spec.k * m.rabi_frequency[n], abs=1e-12
            )
            assert m.e_plus[n] + m.e_minus[n] == pytest.approx(2 * m.phase_rate[n], abs=1e-12)


class TestDressedStates:
    def test_no_mixing(self):
        m = replace(manifolds(JC, JC.validate_range(1)), beta=np.array([0.0]))
        plus, minus = dressed_states(m)[0]
        assert plus.tolist() == [1.0, 0.0]
        assert minus.tolist() == [0.0, 1.0]

    def test_full_mixing(self):
        m = manifolds(JC, JC.validate_range(1))  # beta = pi/2 at resonance
        (ce_p, cg_p), (ce_m, cg_m) = dressed_states(m)[0]
        r = math.sqrt(0.5)
        assert (ce_p, cg_p) == pytest.approx((r, r))
        assert (ce_m, cg_m) == pytest.approx((-r, r))

    def test_orthonormal_for_any_angle(self):
        m = replace(manifolds(JC, JC.validate_range(13)), beta=np.linspace(0.0, math.pi, 13))
        for plus, minus in dressed_states(m):
            assert plus[0] ** 2 + plus[1] ** 2 == pytest.approx(1.0, abs=1e-15)
            assert minus[0] ** 2 + minus[1] ** 2 == pytest.approx(1.0, abs=1e-15)
            assert plus[0] * minus[0] + plus[1] * minus[1] == pytest.approx(0.0, abs=1e-15)


class TestDarkLevels:
    def test_overflowing_level_is_refused_by_the_evolution(self):
        assert np.isfinite(manifolds(DARK_OVERFLOW, DARK_OVERFLOW.validate_range(6)).e_plus).all()
        with np.errstate(over="ignore"), pytest.raises(
            ConfigError, match=r"^non-finite result: the model overflows at n_max=6$"
        ):
            trace_observables(DARK_OVERFLOW, fock_state("e", 0, 6), [0.0, 1.0])

    def test_count_equals_k(self):
        spec = registry_model("stark-two-photon")
        assert len(dark_levels(spec, spec.validate_range(8))) == 2
        assert len(dark_levels(JC, JC.validate_range(8))) == 1

    def test_energy_formula(self):
        spec = registry_model("stark-two-photon")
        for n, energy in enumerate(dark_levels(spec, spec.validate_range(spec.k - 1))):
            expected = spec.omega * n - spec.omega0 / 2 - spec.F(n) + spec.G(n)
            assert energy == expected


class TestEvolve:
    def test_time_zero_identity(self):
        initial = coherent_state("g", 2.0, 32)
        (state,) = evolve(registry_model("molecular"), initial, [0.0])
        assert np.max(np.abs(state.amp_e - initial.amp_e)) < 1e-14
        assert np.max(np.abs(state.amp_g - initial.amp_g)) < 1e-14

    def test_jc_half_rabi_transfer(self):
        initial = fock_state("e", 0, 16)
        (state,) = evolve(JC, initial, [math.pi / (2 * JC.g)])
        assert abs(state.amp_g[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_decoupled_populations_frozen(self):
        spec = _with_g(JC, 0.0)
        initial = coherent_state("g", 1.5, 24)
        for state in evolve(spec, initial, np.linspace(0.0, 50.0, 6)):
            assert np.max(np.abs(np.abs(state.amp_g) - np.abs(initial.amp_g))) < 1e-13

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_unitary(self, entry):
        initial = coherent_state("g", 3.0, 64)
        for state in evolve(entry.spec, initial, np.linspace(0.0, 200.0, 9)):
            assert abs(state.norm_squared() + state.tail_mass - 1.0) < 1e-12

    def test_matches_oracle_propagation(self):
        # the two independent paths arbitrate each other
        spec = registry_model("intensity-multiboson")
        initial = coherent_state("g", 2.0, 48)
        times = np.linspace(0.0, 60.0, 13)
        amp_e, amp_g = propagate(assemble(spec, 48), initial, times)
        for i, a in enumerate(evolve(spec, initial, times)):
            assert np.max(np.abs(a.amp_e - amp_e[:, i])) < 1e-10
            assert np.max(np.abs(a.amp_g - amp_g[:, i])) < 1e-10

    def test_global_phase_invariance(self):
        spec = registry_model("kerr-two-photon")
        initial = coherent_state("g", 2.0, 40)
        shifted = type(initial)(
            n_max=initial.n_max,
            amp_e=initial.amp_e * np.exp(0.7j),
            amp_g=initial.amp_g * np.exp(0.7j),
            tail_mass=initial.tail_mass,
        )
        times = np.linspace(0.0, 40.0, 5)
        for a, b in zip(evolve(spec, initial, times), evolve(spec, shifted, times)):
            for x, y in zip(observables(a.amp_e, a.amp_g), observables(b.amp_e, b.amp_g)):
                assert x == pytest.approx(y, abs=1e-14)

    def test_small_cutoff_below_k(self):
        # n_max < k: no manifolds at all, everything evolves by phase
        spec = registry_model("stark-two-photon")
        initial = fock_state("g", 1, 1)
        (state,) = evolve(spec, initial, [3.0])
        assert abs(state.amp_g[1]) == pytest.approx(1.0, abs=1e-14)


class TestSigmaZFock:
    def test_initial_value_is_one(self):
        for entry in registry():
            m = manifolds(entry.spec, entry.spec.validate_range(4 + entry.spec.k))
            assert sigma_z_fock(m, 0.0)[4] == pytest.approx(1.0, abs=1e-15)

    def test_jc_resonance_cosine(self):
        t = np.linspace(0.0, 40.0, 101)
        sigma_z = sigma_z_fock(manifolds(JC, JC.validate_range(12)), t)
        for n in (0, 3, 11):
            expected = np.cos(2 * JC.g * math.sqrt(n + 1) * t)
            assert np.max(np.abs(sigma_z[n] - expected)) < 1e-12

    def test_decoupled_is_constant(self):
        m = manifolds(_with_g(JC, 0.0), JC.validate_range(6))
        t = np.linspace(0.0, 100.0, 11)
        assert np.max(np.abs(sigma_z_fock(m, t)[5] - 1.0)) == 0.0

    def test_matches_evolution(self):
        # the closed form and the amplitude path are independent code paths
        for name in ("jc", "kerr-two-photon", "q-deformed"):
            spec = registry_model(name)
            for n in (0, 2, 7):
                n_max = n + 2 * spec.k + 4
                initial = fock_state("e", n, n_max)
                times = np.linspace(0.0, 80.0, 57)
                sigma_z, *_ = trace_observables(spec, initial, times)
                closed_form = sigma_z_fock(manifolds(spec, spec.validate_range(n_max)), times)[n]
                assert np.max(np.abs(sigma_z - closed_form)) < 1e-10


def _sigma_z_coherent(spec, alpha, times):
    """Inversion trace of |g, alpha> on the reference cutoff."""
    sigma_z, *_ = trace_observables(spec, coherent_state("g", alpha, 64), times)
    return sigma_z


class TestSigmaZCoherent:
    def test_initial_value_minus_one(self):
        sz = _sigma_z_coherent(JC, 3.0, [0.0])
        assert sz[0] == pytest.approx(-1.0, abs=1e-10)

    def test_decoupled_constant(self):
        spec = _with_g(JC, 0.0)
        sz = _sigma_z_coherent(spec, 3.0, np.linspace(0.0, 100.0, 7))
        assert np.max(np.abs(sz + 1.0)) < 1e-10

    def test_jc_revival_window(self):
        # collapse-and-revival: revival near t = 2*pi*sqrt(9)/g ~ 188
        times = np.linspace(150.0, 220.0, 701)
        sz = _sigma_z_coherent(JC, 3.0, times)
        assert np.max(np.abs(sz)) > 0.3

    @staticmethod
    def _inversion_series(spec, alpha, times, j_max=60):
        # sum_j e^{-|a|^2} |a|^(2j)/j! * sigma_z_fock(manifold j): the
        # Poisson-weighted closed forms, which is the |e, alpha> trace
        mean = abs(alpha) ** 2
        weights = [math.exp(-mean) * mean**j / math.factorial(j) for j in range(j_max + 1)]
        rows = sigma_z_fock(manifolds(spec, spec.validate_range(j_max + spec.k)), times)
        return sum(w * row for w, row in zip(weights, rows))

    def test_series_equals_excited_initial_trace(self):
        for name in ("jc", "kerr-two-photon"):
            spec = registry_model(name)
            times = np.linspace(0.0, 60.0, 121)
            series = self._inversion_series(spec, 2.0, times)
            sigma_z, *_ = trace_observables(spec, coherent_state("e", 2.0, 48), times)
            assert np.max(np.abs(series - sigma_z)) < 1e-9

    def test_series_initial_value(self):
        # the |e, alpha> trace the series equals starts fully inverted
        sigma_z, *_ = trace_observables(JC, coherent_state("e", 3.0, 64), [0.0])
        assert sigma_z[0] == pytest.approx(1.0, abs=1e-12)


class TestTraceObservables:
    def test_initial_coherent_quadratures(self):
        _, n_mean, x_mean, y_mean = trace_observables(JC, coherent_state("g", 3.0, 64), [0.0])
        assert x_mean[0] == pytest.approx(3.0, abs=1e-9)
        assert y_mean[0] == pytest.approx(0.0, abs=1e-12)
        assert n_mean[0] == pytest.approx(9.0, abs=1e-9)

    @pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
    def test_total_excitation_conserved(self, entry):
        spec = entry.spec
        sigma_z, n_mean, _, _ = trace_observables(
            spec, coherent_state("g", 3.0, 64), np.linspace(0.0, 200.0, 81)
        )
        ntot = n_mean + (spec.k / 2.0) * sigma_z
        assert np.max(np.abs(ntot - ntot[0])) < 1e-10

    def test_boson_number_recovery_identity(self):
        # <n> = <Ntot> - (k/2) <sigma_z>, with <Ntot> computed independently
        # from the amplitudes through the total-excitation operator
        spec = registry_model("intensity-multiboson")
        initial = coherent_state("g", 2.0, 48)
        times = np.linspace(0.0, 50.0, 21)
        sigma_z, n_mean, _, _ = trace_observables(spec, initial, times)
        ns = np.arange(49, dtype=float)
        for i, state in enumerate(evolve(spec, initial, times)):
            ntot = float(
                np.sum((ns + spec.k / 2.0) * np.abs(state.amp_e) ** 2)
                + np.sum((ns - spec.k / 2.0) * np.abs(state.amp_g) ** 2)
            )
            recovered = ntot - (spec.k / 2.0) * sigma_z[i]
            assert recovered == pytest.approx(n_mean[i], abs=1e-12)

    @pytest.mark.parametrize("initial", [fock_state("e", 8, 8), fock_state("g", 7, 8)])
    def test_guard_level_population_raises(self, initial):
        # same truncation contract as the oracle: exit 3 from the CLI
        with pytest.raises(TruncationError) as excinfo:
            trace_observables(JC, initial, [0.0, 1.0])
        assert excinfo.value.suggested_n_max == 16


def _chunk(n_max, elements=CHUNK_ELEMENTS):
    return max(1, elements // (n_max + 1))


def _both_levels_coherent(alpha, n_max):
    """0.6|e, alpha> + 0.8i|g, alpha>: every block and both qubit rows populated."""
    coeffs, tail = coherent_amplitudes(alpha, n_max)
    return QubitBosonState(n_max=n_max, amp_e=0.6 * coeffs, amp_g=0.8j * coeffs, tail_mass=tail)


# (n_max, T): one point, a chunk minus one, one chunk, one chunk plus one
# and the 2001-point default grid, down to a chunk of one column.  The same
# edges of a four-times-larger block give grids of several chunks whose
# last chunk is full, ragged or a single column.  At n_max 4096 the
# whole-grid reference would need about 1 GB at 2001 points, so that cutoff
# ends at three chunks and two columns.  A one-column chunk has no "chunk
# minus one" grid.
_GRIDS = sorted(
    {
        (n_max, points)
        for n_max in (8, 64, 384, 1024, 4096)
        for elements in (CHUNK_ELEMENTS, 4 * CHUNK_ELEMENTS)
        for chunk in [_chunk(n_max, elements)]
        for points in (1, chunk - 1, chunk, chunk + 1, 2001 if n_max < 4096 else 3 * chunk + 2)
        if points >= 1
    }
)


# (model, message, n of the start |e, n> at n_max 64): the start feeds the top
# 2k Fock levels, n_max + 1 - 2k on, past the tolerance in the first block of
# either engine; the population peaks in a later block
LEAKS = [
    ("jc", "population 1.000e+00 in the top 2 Fock level(s)", 62),
    ("parity-deformed", "population 9.403e-01 in the top 2 Fock level(s)", 62),
    ("intensity-multiboson", "population 9.999e-01 in the top 4 Fock level(s)", 59),
]


class TestStreamedTrace:
    @pytest.mark.parametrize("name", ["jc", "kerr-two-photon"])
    @pytest.mark.parametrize("n_max, points", _GRIDS)
    def test_chunks_give_the_whole_grid_bits(self, name, n_max, points):
        spec = registry_model(name)
        initial = _both_levels_coherent(0.02 if n_max < 64 else 3.0, n_max)
        times = np.linspace(0.0, 200.0, points)
        streamed = np.stack(trace_observables(spec, initial, times))
        whole = np.stack(observables(*evolve_amplitudes(spec, initial, times)))
        assert streamed.shape == (4, points)
        assert np.array_equal(streamed.view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize("name, message, level", LEAKS)
    def test_truncation_message_names_the_largest_leak_of_any_chunk(self, name, message, level):
        # the population passes the tolerance in the first chunk and peaks in a later one
        spec, n_max = registry_model(name), 64
        initial = fock_state("e", level, n_max)
        times = np.linspace(0.0, 8.0, 5000)
        amp_e, amp_g = evolve_amplitudes(spec, initial, times)
        lo = n_max + 1 - 2 * spec.k
        guard = np.sum(np.abs(amp_e[lo:]) ** 2 + np.abs(amp_g[lo:]) ** 2, axis=0)
        first_chunk = guard[: _chunk(n_max)]
        assert first_chunk.max() > 1e-10
        assert f"{first_chunk.max():.3e}" != f"{guard.max():.3e}"
        with pytest.raises(TruncationError) as excinfo:
            trace_observables(spec, initial, times)
        assert str(excinfo.value) == f"{message} exceeds 1e-10; raise n_max (suggestion: 128)"

    @pytest.mark.parametrize("name", ["jc", "kerr-two-photon"])
    @pytest.mark.parametrize("n_max, points", _GRIDS)
    def test_worker_count_gives_the_same_bits(self, name, n_max, points, monkeypatch):
        # both engines, the oracle up to n_max 64 (an eigh per worker count)
        spec = registry_model(name)
        initial = _both_levels_coherent(0.02 if n_max < 64 else 3.0, n_max)
        times = np.linspace(0.0, 200.0, points)
        width = _chunk(n_max)
        h = assemble(spec, n_max) if n_max <= 64 else None
        traces = {"analytic": [], "oracle": []}
        for workers in (1, 2, 3):
            _set_workers(monkeypatch, workers)
            traces["analytic"].append(np.stack(stream_observables(
                analytic._amplitude_kernel(spec, initial), initial, times, width, spec.k)))
            if h is not None:
                traces["oracle"].append(np.stack(oracle.trace_observables(h, initial, times)))
        for engine in traces.values():
            for trace in engine[1:]:
                assert np.array_equal(trace.view(np.uint64), engine[0].view(np.uint64))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name, message, level", LEAKS)
    def test_leak_message_does_not_depend_on_the_worker_count(self, workers, name, message, level, monkeypatch):
        # the case of test_truncation_message_names_the_largest_leak_of_any_chunk,
        # on both engines
        spec, n_max = registry_model(name), 64
        initial = fock_state("e", level, n_max)
        times = np.linspace(0.0, 8.0, 5000)
        _set_workers(monkeypatch, workers)
        make_block = analytic._amplitude_kernel(spec, initial)
        for trace in (
            lambda: stream_observables(make_block, initial, times, _chunk(n_max), spec.k),
            lambda: oracle.trace_observables(assemble(spec, n_max), initial, times),
        ):
            with pytest.raises(TruncationError) as excinfo:
                trace()
            assert str(excinfo.value) == f"{message} exceeds 1e-10; raise n_max (suggestion: 128)"

    def test_peak_memory_below_one_amplitude_matrix(self):
        n_max, points = 1024, 2001
        initial = coherent_state("g", 3.0, n_max)
        times = np.linspace(0.0, 200.0, points)
        tracemalloc.start()
        try:
            trace_observables(JC, initial, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n_max + 1) * points * np.dtype(np.complex128).itemsize

    def test_worker_count_is_capped_on_a_wide_affinity_mask(self, monkeypatch):
        # each worker has its own work arrays: the cap keeps the previous
        # test's bound on a host with 64 CPUs
        n_max, points = 1024, 2001
        initial = coherent_state("g", 3.0, n_max)
        times = np.linspace(0.0, 200.0, points)
        made, _ = _count_workers(monkeypatch)
        monkeypatch.setattr(states, "_cpus", lambda: 64)
        tracemalloc.start()
        try:
            trace_observables(JC, initial, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(made)] == [states.MAX_WORKERS] == [2]
        assert peak < (n_max + 1) * points * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("n_max, workers", [(8, 1), (64, 2)])
    def test_a_grid_gets_one_worker_per_worker_amplitudes(self, monkeypatch, n_max, workers):
        # 9 x 2001 amplitudes are fewer than 2 * WORKER_AMPLITUDES: one set of
        # work arrays and no thread, though the grid has three blocks
        made, started = _count_workers(monkeypatch)
        monkeypatch.setattr(states, "_cpus", lambda: 2)
        times = np.linspace(0.0, 200.0, 2001)
        assert -(-times.size // _chunk(n_max)) >= 3
        trace_observables(JC, fock_state("g", 0, n_max), times)
        assert (len(made), len(started)) == (workers, workers - 1)


def _set_workers(monkeypatch, workers):
    """Make stream_observables start ``workers`` workers on any grid of that many blocks."""
    monkeypatch.setattr(states, "MAX_WORKERS", workers)
    monkeypatch.setattr(states, "_cpus", lambda: workers)
    monkeypatch.setattr(states, "WORKER_AMPLITUDES", 1)


def _count_workers(monkeypatch):
    """Lists that record each block function the analytic kernel makes and
    each thread started."""
    made, started = [], []
    kernel, start = analytic._amplitude_kernel, threading.Thread.start

    def counted(*args):
        make_block = kernel(*args)

        def counting(columns):
            made.append(make_block(columns))
            return made[-1]

        return counting

    monkeypatch.setattr(analytic, "_amplitude_kernel", counted)
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    return made, started


def _exp_amplitudes(spec, initial, times):
    """The amplitude kernel's (amp_e, amp_g), with its phases written as
    complex np.exp(-1j * np.outer(t, E)) and projected on ``initial``."""
    n_max, k = initial.n_max, spec.k
    model_table = spec.validate_range(n_max)
    table = manifolds(spec, model_table)
    diag_e, diag_g = analytic._diagonals(spec, *model_table[1:])
    nb = table.beta.size
    cos_h, sin_h = dressed_states(table)[:, 0].T
    ce, cg = initial.amp_e[:nb], initial.amp_g[k : k + nb]
    adv_plus = np.exp(-1j * np.outer(times, table.e_plus)) * (cos_h * ce + sin_h * cg)
    adv_minus = np.exp(-1j * np.outer(times, table.e_minus)) * (-sin_h * ce + cos_h * cg)
    amp_e = np.empty((times.size, n_max + 1), dtype=complex)
    amp_g = np.empty((times.size, n_max + 1), dtype=complex)
    amp_e[:, :nb] = cos_h * adv_plus - sin_h * adv_minus
    amp_g[:, k:] = sin_h * adv_plus + cos_h * adv_minus
    amp_g[:, :k] = initial.amp_g[:k] * np.exp(-1j * np.outer(times, diag_g[:k]))
    amp_e[:, nb:] = initial.amp_e[nb:] * np.exp(-1j * np.outer(times, diag_e[nb:]))
    return amp_e.T, amp_g.T


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_kernel_phases_give_the_bits_of_complex_exp(entry):
    # the CSV bytes rest on these phases: a kernel that forms them another
    # way (real cos and sin, say, which round like numpy's complex exp on
    # some platforms only) fails here rather than changing the bytes
    n_max = 64
    initial = _both_levels_coherent(3.0, n_max)
    ramp = np.geomspace(1e-3, 1e8, 3001)
    times = np.concatenate([-ramp[::-1], [-0.0, 0.0], ramp, np.linspace(0.0, 200.0, 2001)])
    kernel = evolve_amplitudes(entry.spec, initial, times)
    reference = _exp_amplitudes(entry.spec, initial, times)
    for ours, theirs in zip(kernel, reference):
        assert ours.tobytes() == theirs.tobytes()


def test_manifolds_cover_truncation():
    spec = registry_model("stark-two-photon")
    m = manifolds(spec, spec.validate_range(16))
    assert m.n_total.tolist() == [n + 1.0 for n in range(15)]
    assert all(
        len(column) == 15
        for column in (m.beta, m.rabi_frequency, m.e_plus, m.e_minus, m.phase_rate)
    )


def _assert_phase_rate_is_two_point(spec, n_max):
    # manifolds reads F and G from the model table at ints; aux_two_point
    # evaluates them at float-valued n and n + k.  Both must give the same bits.
    table = manifolds(spec, spec.validate_range(n_max))
    for n_total, rate in zip(table.n_total.tolist(), table.phase_rate.tolist()):
        assert rate == spec.omega * n_total + aux_two_point(spec, n_total)[0]


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_phase_rate_is_two_point_form(entry):
    _assert_phase_rate_is_two_point(entry.spec, 200)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    omega=st.floats(0.1, 2.0),
    k=st.integers(1, 5),
    f_coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9),
    g_coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9),
)
def test_phase_rate_is_two_point_form_for_poly_documents(omega, k, f_coeffs, g_coeffs):
    doc = {
        "omega": omega, "omega0": 1.0, "g": 0.1, "k": k,
        "f": {"kind": "One", "params": []},
        "F": {"kind": "Poly", "params": f_coeffs},
        "G": {"kind": "Poly", "params": g_coeffs},
    }
    _assert_phase_rate_is_two_point(load_model(doc), 40)


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_angles_are_math_per_block(entry):
    # the CSV bytes rest on math.hypot/atan2/cos/sin, one block at a time
    spec, k = entry.spec, entry.spec.k
    model_table = spec.validate_range(200)
    m = manifolds(spec, model_table)
    nb = m.beta.size
    coupling = (2.0 * spec.g / k) * ladder_factor(np.arange(nb), k) * model_table[0][:nb]
    rabi, beta = [], []
    for n, c in enumerate(coupling.tolist()):
        d = spec.omega0 / k - spec.omega + aux_two_point(spec, n + k / 2.0)[1]
        b = math.atan2(c, d)
        rabi.append(math.hypot(d, c))
        beta.append(b + 2.0 * math.pi if b < 0.0 else b)
    assert m.rabi_frequency.tobytes() == np.array(rabi).tobytes()
    assert m.beta.tobytes() == np.array(beta).tobytes()
    cos_sin = [(math.cos(b / 2.0), math.sin(b / 2.0)) for b in beta]
    expected = np.array([[[c, s], [-s, c]] for c, s in cos_sin])
    assert dressed_states(m).tobytes() == expected.tobytes()
