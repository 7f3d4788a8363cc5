import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjc import model
from gjc.errors import ConfigError
from gjc.model import (
    ONE,
    SQRT_N,
    ZERO,
    ModelSpec,
    NonlinearFn,
    kerr,
    linear_stark,
    load_model,
    poly,
    registry,
    registry_model,
    tabulate,
)


class TestEval:
    def test_sqrt_n(self):
        assert SQRT_N(4) == 2.0

    def test_kerr(self):
        # chi * n * (n-1) at chi=0.5, n=3
        assert kerr(0.5)(3) == 3.0

    def test_q_bracket(self):
        # oracle: the defining ratio (q^n - q^-n)/(q - q^-1) at n=2 is q + 1/q
        q = 0.9
        bracket = (q**2 - q**-2) / (q - 1.0 / q)
        fn = NonlinearFn("QBracketSqrt", (q,))
        assert fn(2) == pytest.approx(math.sqrt(bracket), rel=1e-14)
        assert fn(2) == pytest.approx(1.4181364924121765, rel=1e-14)
        assert fn(0) == 0.0

    def test_q_bracket_limit_q_one(self):
        fn = NonlinearFn("QBracketSqrt", (1.0,))
        assert fn(7) == math.sqrt(7)

    def test_parity(self):
        fn = NonlinearFn("Parity", (0.2,))
        assert fn(0) == 0.2
        assert fn(3) == -0.2
        assert fn(2.5) == pytest.approx(0.2 * math.cos(2.5 * math.pi), abs=1e-15)

    def test_power_and_stark(self):
        assert NonlinearFn("PowerN", (2.0,))(5) == 25.0
        assert linear_stark(0.875)(4) == 3.5

    def test_algebraic_sqrt_is_one_at_n_one(self):
        # radicand at n=1 is 1 - (chi_a/w)(1 - 1) = 1 for any parameters
        for chi_a, ell in [(0.0, 1.0), (0.5, 2.0), (0.3, 3.0)]:
            fn = NonlinearFn("AlgebraicSqrt", (chi_a, ell, 1.0))
            assert fn(1) == 1.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            ONE(-0.5)

    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9),
        n=st.floats(0.0, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_poly_matches_naive_power_sum(self, coeffs, n):
        horner = poly(*coeffs)(n)
        naive = sum(c * n**j for j, c in enumerate(coeffs))
        scale = max(1.0, sum(abs(c) * n**j for j, c in enumerate(coeffs)))
        assert abs(horner - naive) <= 1e-14 * scale


class TestValidation:
    def test_poly_degree_cap(self):
        with pytest.raises(ConfigError):
            poly(*range(10))

    def test_q_bracket_range(self):
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                NonlinearFn("QBracketSqrt", (q,))

    def test_algebraic_sqrt_params(self):
        with pytest.raises(ConfigError):
            NonlinearFn("AlgebraicSqrt", (1.0, 2.0, 1.0))  # chi_a >= omega
        with pytest.raises(ConfigError):
            NonlinearFn("AlgebraicSqrt", (0.5, 0.5, 1.0))  # ell < 1

    def test_param_arity(self):
        with pytest.raises(ConfigError):
            NonlinearFn("Kerr", (0.5, 0.1))
        with pytest.raises(ConfigError):
            NonlinearFn("SqrtN", (1.0,))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            NonlinearFn("Banana")

    def test_k_must_be_positive_integer(self):
        with pytest.raises(ConfigError):
            ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=0, f=ONE, F=ZERO, G=ZERO)
        with pytest.raises(ConfigError):
            ModelSpec(omega=1.0, omega0=1.0, g=0.1, k=1.5, f=ONE, F=ZERO, G=ZERO)

    def test_negative_coupling_profile_rejected_at_load(self):
        doc = registry_model("jc").to_dict()
        doc["f"] = {"kind": "Poly", "params": [-1.0]}
        with pytest.raises(ConfigError, match="non-negative"):
            load_model(doc)


class TestLoadModel:
    def test_jc_document(self):
        doc = {
            "omega": 1.0,
            "omega0": 1.0,
            "g": 0.1,
            "k": 1,
            "f": {"kind": "One", "params": []},
            "F": {"kind": "Zero", "params": []},
            "G": {"kind": "Zero", "params": []},
        }
        spec = load_model(doc)
        assert spec == registry_model("jc")

    def test_k_zero_rejected(self):
        doc = registry_model("jc").to_dict()
        doc["k"] = 0
        with pytest.raises(ConfigError, match="k"):
            load_model(doc)

    def test_stark_document(self):
        spec = registry_model("stark-two-photon")
        assert spec.k == 2
        assert spec.F == linear_stark((0.75 - 1.0) / 2.0)
        assert spec.G == linear_stark((0.75 + 1.0) / 2.0)

    def test_missing_key(self):
        doc = registry_model("jc").to_dict()
        del doc["g"]
        with pytest.raises(ConfigError, match="missing"):
            load_model(doc)

    def test_unknown_key(self):
        doc = registry_model("jc").to_dict()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            load_model(doc)

    def test_bad_json_text(self):
        with pytest.raises(ConfigError, match="JSON"):
            load_model("{not json")

    def test_json_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(registry_model("kerr-two-photon").to_dict()))
        assert load_model(path) == registry_model("kerr-two-photon")


class TestRegistry:
    def test_count_and_names(self):
        entries = registry()
        assert len(entries) == 8
        assert [e.name for e in entries] == [
            "jc",
            "intensity-multiboson",
            "stark-two-photon",
            "kerr-two-photon",
            "molecular",
            "algebraic",
            "parity-deformed",
            "q-deformed",
        ]
        assert [e.figure for e in entries] == list(range(1, 9))

    def test_kerr_entry(self):
        spec = registry_model("kerr-two-photon")
        assert spec.k == 2
        assert spec.G == kerr(0.5)

    def test_parity_entry(self):
        spec = registry_model("parity-deformed")
        assert spec.k == 1
        assert spec.G == NonlinearFn("Parity", (0.2,))

    def test_q_deformed_entry(self):
        spec = registry_model("q-deformed")
        assert spec.f == NonlinearFn("QBracketSqrt", (0.9,))
        assert spec.omega0 == 1.0  # normalized qubit term convention

    def test_roundtrip_is_lossless(self):
        # serialize -> JSON text -> load must be bit-identical
        for entry in registry():
            text = json.dumps(entry.spec.to_dict())
            assert load_model(text) == entry.spec

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown model"):
            registry_model("nope")


def test_poly_coefficients_helpers():
    assert ZERO.poly_coefficients() == ()
    assert ONE.poly_coefficients() == (1.0,)
    assert kerr(0.3).poly_coefficients() == (0.0, -0.3, 0.3)
    assert linear_stark(2.0).poly_coefficients() == (0.0, 2.0)
    assert NonlinearFn("PowerN", (3.0,)).poly_coefficients() == (0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SQRT_N.poly_coefficients()


SAMPLE_FUNCTIONS = [
    ZERO,
    ONE,
    SQRT_N,
    poly(0.3, -1.2, 0.05, 1e-3),
    NonlinearFn("PowerN", (1.5,)),
    NonlinearFn("PowerN", (2.0,)),
    kerr(0.5),
    kerr(-0.3),
    NonlinearFn("QBracketSqrt", (0.9,)),
    NonlinearFn("QBracketSqrt", (1.0,)),
    NonlinearFn("Parity", (0.2,)),
    NonlinearFn("AlgebraicSqrt", (0.5, 2.0, 1.0)),
    NonlinearFn("AlgebraicSqrt", (0.3, 2.7, 1.2)),
    linear_stark(-0.125),
]


def test_samples_cover_every_kind():
    assert {fn.kind for fn in SAMPLE_FUNCTIONS} == set(model._KINDS)


@pytest.mark.parametrize("fn", SAMPLE_FUNCTIONS, ids=lambda fn: fn.describe())
def test_int_and_float_argument_give_the_same_double(fn):
    # the model table evaluates at ints, aux_two_point at float-valued ints
    ns = range(3000)
    at_int = np.array([fn(n) for n in ns])
    at_float = np.array([fn(float(n)) for n in ns])
    assert at_int.view(np.uint64).tolist() == at_float.view(np.uint64).tolist()


class TestTabulate:
    def test_values_at_ints(self):
        fn = NonlinearFn("QBracketSqrt", (0.9,))
        values = tabulate(fn, 40, "f")
        assert values.dtype == np.float64
        assert values.tolist() == [fn(n) for n in range(41)]

    def test_raising_value_names_function_and_n(self):
        # n**135 raises OverflowError from n = 193 on
        with pytest.raises(ConfigError, match=r"^G invalid at n=193: .*Numerical result"):
            tabulate(NonlinearFn("PowerN", (135.0,)), 300, "G")

    def test_non_finite_value_names_function_and_n(self):
        # 1e308 * n is inf from n = 2 on, without raising
        with pytest.raises(ConfigError, match=r"^F is not finite at n=2$"):
            tabulate(linear_stark(1e308), 5, "F")

    def test_first_fault_in_n_wins(self):
        # q-bracket at q=0.9: inf from n=6722, OverflowError from n=6737
        fn = NonlinearFn("QBracketSqrt", (0.9,))
        with pytest.raises(ConfigError, match=r"is not finite at n=6722$"):
            tabulate(fn, 8000, "coupling profile f")


def test_validate_range_returns_the_three_tables():
    spec = registry_model("stark-two-photon")
    f, F, G = spec.validate_range(10)
    assert f.tolist() == [1.0] * 11
    assert F.tolist() == [spec.F(n) for n in range(11)]
    assert G.tolist() == [spec.G(n) for n in range(11)]
