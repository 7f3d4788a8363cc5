import math
import threading
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjc import states
from gjc.errors import ConfigError, TruncationError
from gjc.states import (
    QubitBosonState,
    coherent_amplitudes,
    coherent_state,
    fock_state,
    _reduce,
    observables,
    stream_observables,
)

mp.mp.dps = 40


def poisson_tail_oracle(alpha: float, n_max: int) -> float:
    """Extended-precision Poisson tail sum: 1 - sum_{j<=n_max} e^-m m^j / j!."""
    mean = mp.mpf(alpha) ** 2
    kept = sum(mp.e**-mean * mean**j / mp.factorial(j) for j in range(n_max + 1))
    return float(1 - kept)


class TestFock:
    def test_ground_vacuum(self):
        s = fock_state("g", 0, 16)
        assert s.amp_g[0] == 1.0
        assert np.all(s.amp_e == 0.0)
        assert np.count_nonzero(s.amp_g) == 1
        assert s.tail_mass == 0.0

    def test_excited_n3(self):
        s = fock_state("e", 3, 16)
        assert s.amp_e[3] == 1.0
        assert s.norm_squared() == 1.0

    def test_out_of_range(self):
        with pytest.raises(ConfigError, match="Fock index"):
            fock_state("g", 17, 16)

    def test_bad_qubit(self):
        with pytest.raises(ConfigError, match="qubit level"):
            fock_state("x", 0, 4)


class TestCoherent:
    def test_vacuum(self):
        s = coherent_state("g", 0.0, 8)
        assert s.amp_g[0] == 1.0
        assert s.tail_mass == 0.0

    @pytest.mark.parametrize(
        "alpha",
        [math.nan, complex(0.0, math.nan), math.inf, -math.inf, 1e200, complex(1.7e308, 1.7e308)],
        ids=repr,
    )
    def test_non_finite_mean_photon_number_refused(self, alpha):
        # |alpha|^2 is NaN or overflows: a refusal naming alpha, not a NaN
        # state or a bare OverflowError
        with pytest.raises(ConfigError, match="alpha"):
            coherent_state("g", alpha, 8)

    def test_bad_qubit(self):
        with pytest.raises(ConfigError, match="qubit level"):
            coherent_state("x", 1.0, 16)

    def test_amplitudes_match_series_oracle(self):
        # oracle: term-by-term e^{-|a|^2/2} a^j / sqrt(j!) in extended precision
        s = coherent_state("g", 3.0, 64)
        for j in (0, 3, 9, 20):
            expected = float(
                mp.e ** (-mp.mpf("4.5")) * mp.mpf(3) ** j / mp.sqrt(mp.factorial(j))
            )
            assert s.amp_g[j].real == pytest.approx(expected, rel=1e-14)
            assert s.amp_g[j].imag == 0.0
        assert s.amp_g[9].real == pytest.approx(0.3629815973427891, rel=1e-14)

    def test_truncation_error_for_small_cutoff(self):
        with pytest.raises(TruncationError) as excinfo:
            coherent_state("g", 3.0, 10)
        assert excinfo.value.suggested_n_max >= 39
        _, tail = coherent_amplitudes(3.0, 10)
        assert tail == pytest.approx(poisson_tail_oracle(3.0, 10), abs=1e-12)
        assert tail == pytest.approx(0.2940116796594882, abs=1e-12)

    def test_tail_monotone_in_cutoff(self):
        tails = [coherent_amplitudes(3.0, n)[1] for n in range(10, 61, 5)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_complex_alpha(self):
        s = coherent_state("e", 1.0 + 2.0j, 48)
        _, n_mean, x, y = observables(s.amp_e, s.amp_g)
        assert n_mean == pytest.approx(5.0, abs=1e-10)
        assert x == pytest.approx(1.0, abs=1e-10)
        assert y == pytest.approx(2.0, abs=1e-10)


    def test_start_weight_below_normal_range_matches_series_oracle(self):
        # e^{-40^2/2} underflows to 0; the coefficients start from the mode
        alpha = 40.0 * complex(math.cos(0.3), math.sin(0.3))
        s = coherent_state("e", alpha, 2400)
        for j in (900, 1600, 2100):
            expected = complex(
                mp.e ** (-mp.mpf(800)) * mp.mpc(alpha) ** j / mp.sqrt(mp.factorial(j))
            )
            assert abs(s.amp_e[j] - expected) <= 1e-12 * abs(expected)
        assert s.tail_mass == pytest.approx(poisson_tail_oracle(40.0, 2400), abs=1e-13)


    @pytest.mark.parametrize("alpha", [1e6, 1e150j])
    def test_cutoff_far_below_the_mode_gives_zeros(self, alpha):
        coeffs, tail = coherent_amplitudes(alpha, 64)
        assert coeffs.tolist() == [0.0] * 65
        assert tail == 1.0


@st.composite
def coherent_requests(draw):
    """(alpha, n_max) with |alpha| <= 100 and n_max anywhere up to past the
    suggested cutoff, often near it."""
    radius = draw(st.one_of(st.floats(0.0, 100.0), st.floats(37.0, 40.0)))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    alpha = radius * complex(math.cos(phase), math.sin(phase))
    mean = radius**2
    suggested = int(math.ceil(mean + 10.0 * math.sqrt(mean) + 20.0))
    near = st.integers(max(0, suggested - 300), suggested + 50)
    n_max = draw(st.one_of(st.integers(0, 12000), near))
    return alpha, n_max


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coherent_requests())
def test_coherent_state_is_normalized_or_its_suggestion_succeeds(request):
    alpha, n_max = request
    try:
        state = coherent_state("g", alpha, n_max)
    except TruncationError as exc:
        state = coherent_state("g", alpha, exc.suggested_n_max)
    assert abs(state.norm_squared() + state.tail_mass - 1.0) <= 1e-12
    assert state.tail_mass <= 1e-12


class TestObservables:
    def test_fock_ground_vacuum(self):
        s = fock_state("g", 0, 8)
        assert observables(s.amp_e, s.amp_g) == (-1.0, 0.0, 0.0, 0.0)

    def test_coherent_real_alpha(self):
        s = coherent_state("g", 3.0, 64)
        sz, n, x, y = observables(s.amp_e, s.amp_g)
        assert sz == pytest.approx(-1.0, abs=1e-12)
        assert n == pytest.approx(9.0, abs=1e-10)
        assert x == pytest.approx(3.0, abs=1e-10)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_coherent_imaginary_alpha(self):
        s = coherent_state("g", 3.0j, 64)
        sz, n, x, y = observables(s.amp_e, s.amp_g)
        assert sz == pytest.approx(-1.0, abs=1e-12)
        assert n == pytest.approx(9.0, abs=1e-10)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(3.0, abs=1e-10)

    def test_matrix_equals_column_by_column(self):
        # 385 rows: past numpy's 128-element pairwise block, as at n_max=384
        rng = np.random.default_rng(7)
        amp_e, amp_g = (
            rng.normal(size=(385, 64)) + 1j * rng.normal(size=(385, 64)) for _ in range(2)
        )
        traces = observables(amp_e, amp_g)
        for i in range(amp_e.shape[1]):
            column = observables(amp_e[:, i], amp_g[:, i])
            assert tuple(trace[i] for trace in traces) == column


def _random_state(seed: int, n_max: int = 12) -> QubitBosonState:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2 * (n_max + 1)) + 1j * rng.normal(size=2 * (n_max + 1))
    vec /= np.linalg.norm(vec)
    return QubitBosonState(n_max=n_max, amp_e=vec[: n_max + 1], amp_g=vec[n_max + 1 :])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_quadrature_bound(seed):
    # Cauchy-Schwarz on <a>: x^2 + y^2 = |<a>|^2 <= <n> (+ slack for roundoff)
    s = _random_state(seed)
    _, n_mean, x, y = observables(s.amp_e, s.amp_g)
    assert x**2 + y**2 <= n_mean + 0.5 + 1e-9


@given(seed=st.integers(0, 2**32 - 1), theta=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=100, deadline=None)
def test_global_phase_invariance(seed, theta):
    s = _random_state(seed)
    rotated = QubitBosonState(
        n_max=s.n_max,
        amp_e=s.amp_e * np.exp(1j * theta),
        amp_g=s.amp_g * np.exp(1j * theta),
        tail_mass=s.tail_mass,
    )
    for a, b in zip(observables(s.amp_e, s.amp_g), observables(rotated.amp_e, rotated.amp_g)):
        assert a == pytest.approx(b, abs=1e-14)


class TestGuardPopulation:
    @pytest.mark.parametrize("guard", [1, 2, 4, 6, 12, 13])
    def test_column_slices_give_the_whole_matrix_bits(self, guard):
        # the largest guard population of any slice of columns equals, bit for
        # bit, numpy's column sum over a C-contiguous (levels, T) matrix
        rng = np.random.default_rng(guard)
        amp_e, amp_g = rng.normal(size=(2, 13, 200)) + 1j * rng.normal(size=(2, 13, 200))
        lo = 12 - min(guard, 12) + 1
        top = np.concatenate([amp_e[lo:], amp_g[lo:]], axis=0)
        columns = np.sum(np.abs(top) ** 2, axis=0)
        *_, norms, guard_population = _reduce(amp_e, amp_g, guard)
        whole = np.max(guard_population)
        assert whole.view(np.uint64) == np.max(columns).view(np.uint64)
        # time-major blocks, transposed, as the streamed analytic trace passes them
        e_t, g_t = np.ascontiguousarray(amp_e.T), np.ascontiguousarray(amp_g.T)
        for width in (1, 3, 7):
            slices = [_reduce(e_t[lo : lo + width].T, g_t[lo : lo + width].T, guard)
                      for lo in range(0, 200, width)]
            sliced_norms = np.concatenate([s[4] for s in slices])
            sliced = np.max([np.max(s[5]) for s in slices])
            assert sliced.view(np.uint64) == whole.view(np.uint64)
            assert np.array_equal(sliced_norms.view(np.uint64), norms.view(np.uint64))

    def test_cutoff_zero_has_no_guard(self):
        amp = np.ones((1, 3), dtype=complex)
        assert np.array_equal(_reduce(amp, amp, 2)[5], np.zeros(3))

    @staticmethod
    def _leak(n_max, k, population):
        """stream_observables over one column of |g, 0> with ``population``
        moved to |g, n_max>, the top Fock level."""
        amp_e = np.zeros((n_max + 1, 1), dtype=complex)
        amp_g = np.zeros_like(amp_e)
        amp_g[0], amp_g[n_max] = math.sqrt(1.0 - population), math.sqrt(population)
        return stream_observables(lambda columns: lambda times: (amp_e, amp_g),
                                  fock_state("g", 0, n_max), [0.0], 1, k)

    def test_leak_message_and_clamped_guard(self, monkeypatch):
        # a population of exactly the tolerance passes (2^-34 is a square)
        monkeypatch.setattr(states, "LEAK_TOLERANCE", 2.0**-34)
        self._leak(8, 1, 2.0**-34)
        monkeypatch.undo()
        # the top 2k = 8 levels clamp to the 3 above the vacuum; the
        # suggestion, n_max + 4k, clears them
        with pytest.raises(TruncationError) as excinfo:
            self._leak(3, 4, 0.25)
        assert str(excinfo.value) == (
            "population 2.500e-01 in the top 3 Fock level(s) exceeds 1e-10; "
            "raise n_max (suggestion: 19)"
        )
        assert excinfo.value.suggested_n_max == 19


class TestStreamWorkers:
    """stream_observables runs block i on function i % W, W = min(functions,
    blocks) here, where the worker cap, the CPU count and the floor of
    amplitudes per worker admit one worker per function: function 0 on the
    calling thread, every other one on a thread of its own in a copy of the
    caller's context.  The maxima of all workers are judged after the join,
    and a worker's exception is raised there."""

    N_MAX = 3
    GROUND = fock_state("g", 0, N_MAX)

    @pytest.fixture(autouse=True)
    def no_cap_but_the_functions(self, monkeypatch):
        monkeypatch.setattr(states, "_cpus", lambda: 64)
        monkeypatch.setattr(states, "WORKER_AMPLITUDES", 1)
        self.monkeypatch = monkeypatch

    def _stream(self, functions, times):
        """stream_observables over |g, 0>, each worker making the next of ``functions``."""
        self.monkeypatch.setattr(states, "MAX_WORKERS", len(functions))
        functions = iter(functions)
        return stream_observables(lambda columns: next(functions), self.GROUND, times, 1, 1)

    def _functions(self, count, calls, scale=lambda w, t: 1.0):
        # |g, 0> times ``scale``; each call records its function, thread,
        # first time and numpy's invalid-value mode
        def function(w):
            def amplitudes(times):
                calls.append((w, threading.current_thread(), times[0], np.geterr()["invalid"]))
                amp_e = np.zeros((self.N_MAX + 1, times.size), dtype=complex)
                amp_g = np.zeros_like(amp_e)
                amp_g[0] = scale(w, times)
                return amp_e, amp_g

            return amplitudes

        return [function(w) for w in range(count)]

    @pytest.mark.parametrize("functions, points, workers", [(3, 7, 3), (3, 2, 2), (1, 5, 1), (4, 1, 1)])
    def test_block_i_runs_on_function_i_mod_w(self, functions, points, workers):
        calls = []
        times = np.arange(float(points))
        with np.errstate(invalid="raise"):
            trace = self._stream(self._functions(functions, calls), times)
        assert [w for w, _, t, _ in sorted(calls, key=lambda c: c[2])] == [i % workers for i in range(points)]
        threads = {w: thread for w, thread, _, _ in calls}
        assert threads[0] is threading.current_thread()
        assert len({id(thread) for thread in threads.values()}) == workers
        assert {mode for *_, mode in calls} == {"raise"}
        assert np.array_equal(np.stack(trace), np.tile([[-1.0], [0.0], [0.0], [0.0]], points))

    def test_each_worker_makes_a_function_for_the_widest_block(self):
        # 300 points at width 126 split evenly into three blocks of 100
        made, sizes = [], []
        functions = self._functions(2, [])

        def make_block(columns):
            made.append(columns)
            function = functions[len(made) - 1]
            return lambda times: sizes.append(times.size) or function(times)

        self.monkeypatch.setattr(states, "MAX_WORKERS", 2)
        stream_observables(make_block, self.GROUND, np.arange(300.0), 126, 1)
        assert made == [100, 100]
        assert sizes == [100, 100, 100]

    def test_a_workers_exception_is_raised_after_the_join(self):
        calls, running = [], threading.active_count()
        functions = self._functions(3, calls)

        def failing(times):
            raise MemoryError("block 1")

        functions[1] = failing
        with pytest.raises(MemoryError, match="block 1"):
            self._stream(functions, np.arange(5.0))
        # worker 1 never gets past its first block (1, then 4)
        assert {t for _, _, t, _ in calls} <= {0.0, 2.0, 3.0}
        assert threading.active_count() == running

    @pytest.mark.parametrize("failing, error", [(0, KeyboardInterrupt), (1, MemoryError)])
    def test_a_failing_worker_stops_the_others(self, failing, error):
        # the healthy worker has 200 blocks of 1 ms, unless the failure stops it
        calls = []
        functions = self._functions(2, calls)
        healthy = functions[1 - failing]

        def slow(times):
            time.sleep(1e-3)
            return healthy(times)

        def fail(times):
            raise error("stop")

        functions[1 - failing], functions[failing] = slow, fail
        with pytest.raises(error, match="stop"):
            self._stream(functions, np.arange(400.0))
        assert len(calls) < 50

    def test_maxima_of_every_worker_are_judged(self):
        # a drift on worker 1 only; then a NaN there, which passes and stays
        drifting = self._functions(2, [], lambda w, t: 1.0 + 1e-9 * w)
        with pytest.raises(ConfigError, match="propagation norm drift 2.000e-09"):
            self._stream(drifting, np.arange(4.0))
        lost = self._functions(2, [], lambda w, t: math.nan if w else 1.0)
        sigma_z = self._stream(lost, np.arange(4.0))[0]
        assert np.array_equal(sigma_z, [-1.0, math.nan, -1.0, math.nan], equal_nan=True)


class TestInvariants:
    def test_unnormalized_rejected(self):
        amp = np.zeros(5, dtype=complex)
        amp[0] = 0.5
        with pytest.raises(ValueError, match="normalized"):
            QubitBosonState(n_max=4, amp_e=amp, amp_g=np.zeros(5))

    def test_nan_amplitude_rejected(self):
        amp = np.zeros(5, dtype=complex)
        amp[0], amp[1] = 1.0, math.nan
        with pytest.raises(ValueError, match="normalized"):
            QubitBosonState(n_max=4, amp_e=amp, amp_g=np.zeros(5))

    def test_nan_tail_rejected(self):
        amp = np.zeros(5, dtype=complex)
        amp[0] = 1.0
        with pytest.raises(ValueError, match="normalized"):
            QubitBosonState(n_max=4, amp_e=amp, amp_g=np.zeros(5), tail_mass=math.nan)

    def test_negative_tail_rejected(self):
        amp = np.zeros(5, dtype=complex)
        amp[0] = 1.0
        with pytest.raises(ValueError, match="tail_mass"):
            QubitBosonState(n_max=4, amp_e=amp, amp_g=np.zeros(5), tail_mass=-0.5)

    def test_amplitudes_immutable(self):
        s = fock_state("g", 0, 4)
        with pytest.raises(ValueError):
            s.amp_g[0] = 0.0
