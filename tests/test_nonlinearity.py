"""Deformation profiles, frequency laws, and profile factorials."""

import math
import warnings

import numpy as np
import pytest

from foscillator import (
    DegenerateDeformationError,
    DomainError,
    NonlinearitySpec,
    custom,
    eval_f,
    f_factorial,
    frequency,
    identity,
    kerr,
    log_f_factorial,
    q_oscillator,
    spec_from_dict,
    spec_to_dict,
)


def test_identity_profile_is_one():
    assert eval_f(identity(), 5) == 1.0
    vals = eval_f(identity(), np.arange(40, dtype=float))
    assert np.all(vals == 1.0)


def test_q_profile_small_lambda_limit():
    # f -> 1 pointwise as lam -> 0
    vals = eval_f(q_oscillator(1e-8), np.arange(10, dtype=float))
    np.testing.assert_allclose(vals, 1.0, rtol=0, atol=1e-14)


def test_q_profile_quadratic_expansion():
    # sqrt(sinh(x)/x) = 1 + x^2/12 + x^4/1440 + ... with x = lam*n
    lam = 0.1
    n = np.linspace(0.0, 5.0, 41)  # lam*n <= 0.5
    x = lam * n
    err = np.abs(eval_f(q_oscillator(lam), n) - (1.0 + x * x / 12.0))
    assert np.all(err <= 1e-3 * x ** 4 + 1e-15)


def test_q_profile_monotone():
    vals = eval_f(q_oscillator(0.3), np.arange(200, dtype=float))
    assert np.all(np.diff(vals) >= -1e-15)


def test_q_profile_large_argument_finite():
    # the log branch: sinh overflows well before lam*n = 800
    v = eval_f(q_oscillator(2.0), 400.0)
    assert math.isfinite(v)
    assert v == pytest.approx(math.exp(0.5 * (800.0 - math.log(1600.0))), rel=1e-12)


def test_kerr_profile_values():
    spec = kerr(0.1)
    assert eval_f(spec, 1) == pytest.approx(1.0, rel=1e-15)
    assert eval_f(spec, 3) == pytest.approx(math.sqrt(1.2), rel=1e-15)


def test_profile_rejects_negative_argument():
    for spec in (identity(), q_oscillator(0.1), kerr(0.1)):
        with pytest.raises(DomainError):
            eval_f(spec, -1.0)


def test_kerr_profile_domain_error():
    with pytest.raises(DomainError):
        eval_f(kerr(2.0), 0.0)  # 1 - chi + chi*n = -1


def test_custom_table_interpolates():
    spec = custom(table=[1.0, 1.1, 1.3])
    assert eval_f(spec, 2) == pytest.approx(1.3, rel=1e-15)
    assert eval_f(spec, 1.5) == pytest.approx(1.2, rel=1e-15)
    with pytest.raises(DomainError):
        eval_f(spec, 2.5)


def test_custom_callable_profile():
    spec = custom(fn=lambda n: 1.0 + 0.0 * np.asarray(n))
    np.testing.assert_allclose(eval_f(spec, np.arange(5, dtype=float)), 1.0)


def test_custom_needs_exactly_one_source():
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="custom")
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="custom", fn=lambda n: n, table=(1.0, 1.0))
    with pytest.raises(DomainError):
        custom(table=[1.0])  # too short


def test_profile_rejects_non_finite_output():
    with pytest.raises(DomainError):
        eval_f(custom(fn=lambda n: np.full_like(np.asarray(n, float), np.nan)), 1.0)


def test_frequency_identity_is_unity():
    assert frequency(identity(), 7.0) == 1.0
    np.testing.assert_allclose(frequency(identity(), np.linspace(0, 5, 11)), 1.0)


def test_frequency_q_amplitude_law():
    # omega(E) = 1 + lam^2 E^2 / 4 + O(lam^4) under the amplitude law
    lam = 0.1
    spec = q_oscillator(lam)
    assert abs(frequency(spec, 2.0) - 1.01) <= 1e-4
    e = np.linspace(0.0, 2.0, 81)
    err = np.abs(frequency(spec, e) - (1.0 + lam * lam * e * e / 4.0))
    assert np.max(err) <= 1e-4


def _frequency_as_first_written(lam, e, law):
    """The q frequency through f' = lam g' / (2 f), g = sinh(x)/x, with
    sinh and cosh taken directly, as before the closed form."""
    x = lam * e
    g = np.sinh(x) / x
    g_prime = (x * np.cosh(x) - np.sinh(x)) / (x * x)
    f = np.sqrt(g)
    f_prime = lam * g_prime / (2.0 * f)
    return f + e * f_prime if law == "amplitude" else f * f + 2.0 * e * f * f_prime


@pytest.mark.parametrize("law, power", [("amplitude", 1), ("canonical", 2)])
@pytest.mark.parametrize("lam", [0.05, 0.3, 1.0])
def test_q_frequency_matches_a_central_difference(law, power, lam):
    # amplitude: omega = d/dE [E f(E)]; canonical: omega = d/dE [E f(E)^2]
    spec = q_oscillator(lam)
    e = np.geomspace(1e-3, 60.0, 41) / lam
    h = 1e-4 * e / (1.0 + lam * e)
    energy = lambda z: z * eval_f(spec, z) ** power
    diff = (energy(e + h) - energy(e - h)) / (2.0 * h)
    np.testing.assert_allclose(frequency(spec, e, law), diff, rtol=1e-8)
    assert frequency(spec, 0.0, law) == 1.0


@pytest.mark.parametrize("law", ["amplitude", "canonical"])
def test_q_frequency_matches_the_first_formulas(law):
    for lam in (0.01, 0.2, 1.0):
        e = np.geomspace(1e-3, 340.0, 400) / lam
        np.testing.assert_allclose(frequency(q_oscillator(lam), e, law),
                                   _frequency_as_first_written(lam, e, law), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("law", ["amplitude", "canonical"])
def test_q_frequency_refuses_where_the_profile_does(law):
    # f = sqrt(sinh(E)/E) overflows between E = 1427 and 1428 at lam = 1
    spec = q_oscillator(1.0)
    outcomes = set()
    with np.errstate(over="ignore"):
        for e in (1400.0, 1427.0, 1428.0, 2000.0):
            try:
                eval_f(spec, e)
                refused = False
            except DomainError:
                refused = True
            outcomes.add(refused)
            if refused:
                with pytest.raises(DomainError, match="profile evaluated to a non-finite value"):
                    frequency(spec, e, law)
                with pytest.raises(DomainError, match="profile evaluated to a non-finite value"):
                    frequency(spec, np.array([1.0, e]), law)
            elif _log_q_frequency(e, law) < math.log(np.finfo(float).max):
                assert 0.0 < frequency(spec, e, law) < math.inf
            else:
                # f is finite but omega is not: refused, naming law and energy
                with pytest.raises(DomainError, match=f"the {law} frequency overflows at E = {e!r}"):
                    frequency(spec, e, law)
    assert outcomes == {False, True}


def _log_q_frequency(x, law):
    """log omega of the q profile at lam = 1, E = x, without overflow."""
    log_f = 0.5 * (x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * x))
    x_coth = x / math.tanh(x)
    if law == "amplitude":
        return log_f + math.log(0.5 * (1.0 + x_coth))
    return 2.0 * log_f + math.log(x_coth)


@pytest.mark.parametrize("law", ["amplitude", "canonical"])
def test_frequency_overflow_is_refused_without_warnings(law):
    # the canonical law overflows from lam E ~ 710, the amplitude law from ~1420
    spec = q_oscillator(1.0)
    e = np.array([1.0, 1000.0, 1425.0])
    first_bad = 1000.0 if law == "canonical" else 1425.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"the {law} frequency overflows at E = {first_bad!r}"):
            frequency(spec, e, law)
        assert np.isfinite(frequency(spec, e[e < first_bad], law)).all()


def test_q_profile_overflow_names_the_level_without_warnings():
    # f = sqrt(sinh(n)/n) leaves the float range between n = 1427 and 1428;
    # the level-table builders pass the overflow on instead of calling the
    # profile non-positive
    spec = q_oscillator(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(eval_f(spec, 1427.0))
        for call in (lambda: eval_f(spec, np.arange(1500.0)),
                     lambda: log_f_factorial(spec, 1499)):
            with pytest.raises(DomainError, match=r"non-finite value at n = 1428\.0: "
                                                  r"f overflows the float range") as info:
                call()
            assert not isinstance(info.value, DegenerateDeformationError)


def test_frequency_kerr_canonical_law():
    # d/dE [E f^2] = 1 - chi + 2 chi E: exactly 1.3 at chi = 0.1, E = 2
    assert frequency(kerr(0.1), 2.0, law="canonical") == pytest.approx(1.3, rel=1e-12)


def test_frequency_linear_profile_amplitude_law():
    # f(E) = E/2 gives omega = f + E f' = E
    spec = custom(fn=lambda e: np.asarray(e, float) / 2.0)
    e = np.array([0.5, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(frequency(spec, e), e, rtol=1e-9)


def test_frequency_rejects_bad_law_and_energy():
    with pytest.raises(DomainError):
        frequency(identity(), 1.0, law="nope")
    with pytest.raises(DomainError):
        frequency(identity(), -0.5)


def test_f_factorial_identity():
    assert f_factorial(identity(), 7) == 1.0


def test_f_factorial_kerr_value():
    # f(0) f(1) f(2) = sqrt(0.5 * 1.0 * 1.5) at chi = 0.5
    assert f_factorial(kerr(0.5), 2) == pytest.approx(math.sqrt(0.75), rel=1e-14)


def test_f_factorial_base_case_and_recurrence():
    spec = kerr(0.3)
    assert f_factorial(spec, 0) == pytest.approx(eval_f(spec, 0), rel=1e-15)
    for n in range(1, 8):
        assert f_factorial(spec, n) == pytest.approx(
            f_factorial(spec, n - 1) * eval_f(spec, n), rel=1e-13
        )


def test_f_factorial_degenerate_profile():
    with pytest.raises(DegenerateDeformationError):
        f_factorial(kerr(1.0), 3)  # f(0) = 0
    with pytest.raises(DegenerateDeformationError):
        f_factorial(kerr(2.0), 3)  # f hits a negative square root argument


def test_log_f_factorial_matches_product():
    spec = kerr(0.5)
    logs = log_f_factorial(spec, 6)
    direct = [math.log(f_factorial(spec, n)) for n in range(7)]
    np.testing.assert_allclose(logs, direct, rtol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [identity(), q_oscillator(0.25), kerr(0.1), custom(table=[1.0, 1.1, 1.3])],
)
def test_spec_json_round_trip(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_serialization_rejects_callables_and_junk():
    with pytest.raises(DomainError):
        spec_to_dict(custom(fn=lambda n: n))
    with pytest.raises(DomainError):
        spec_from_dict({"kind": "warp"})
    with pytest.raises(DomainError):
        spec_from_dict({"kind": "q"})  # missing lambda


def test_constructor_validation():
    with pytest.raises(DomainError):
        q_oscillator(0.0)
    with pytest.raises(DomainError):
        q_oscillator(-0.1)
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="galaxy")
