"""Deformation profiles, frequency laws, and profile factorials."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_q_profile_matches_a_long_double_reference():
    x = np.concatenate((np.geomspace(1e-6, 50.0, 5000), np.linspace(0.9e-4, 1.1e-4, 201)))
    xl = x.astype(np.longdouble)
    ref = np.sqrt(np.sinh(xl) / xl)
    got = eval_f(q_oscillator(1.0), x)
    assert float(np.max(np.abs((got - ref) / ref))) <= 5e-15
    assert eval_f(q_oscillator(1.0), 0.0) == 1.0


def test_kerr_profile_values():
    spec = kerr(0.1)
    assert eval_f(spec, 1) == pytest.approx(1.0, rel=1e-15)
    assert eval_f(spec, 3) == pytest.approx(math.sqrt(1.2), rel=1e-15)


def test_profile_rejects_negative_argument():
    for spec in (identity(), q_oscillator(0.1), kerr(0.1)):
        with pytest.raises(DomainError):
            eval_f(spec, -1.0)


_EVERY_KIND = [identity(), q_oscillator(0.1), kerr(0.1), custom(table=[1.0, 1.1, 1.3]),
               custom(table=[1.0 + 0.1 * k for k in range(3)])]


@pytest.mark.parametrize("spec", _EVERY_KIND, ids=lambda spec: spec.kind)
@pytest.mark.parametrize("call, name", [(eval_f, "profile argument"), (frequency, "energy")],
                         ids=["eval_f", "frequency"])
@pytest.mark.parametrize("bad", [math.nan, -1.0, [0.5, math.nan]], ids=["nan", "-1", "array-nan"])
def test_profiles_refuse_nan_and_negative_arguments(spec, call, name, bad):
    # NaN passes a test of min < 0, so it was read as a level: identity gave
    # 1.0 and the q profile blamed an overflow
    first = bad[1] if isinstance(bad, list) else bad
    with pytest.raises(DomainError, match=f"^{name} must be >= 0, got {first!r}$"):
        call(spec, bad)


@pytest.mark.parametrize("call, args, message", [
    (eval_f, (identity(), "1"), "profile argument must be a number, got '1'"),
    (eval_f, (kerr(0.1), True), "profile argument must be a number, got True"),
    (frequency, (kerr(0.1), "2"), "energy must be a number, got '2'"),
    (eval_f, (kerr(0.1), None), "profile argument must be a number, got None"),
    (frequency, (kerr(0.1), [0.5, None]), "energy must be a number, got None"),
    (eval_f, (kerr(0.1), object()), "profile argument must be a number, got <object"),
], ids=["identity-str", "kerr-bool", "frequency-str", "none", "frequency-none-entry", "object"])
def test_profile_arguments_are_numbers_by_the_rule(call, args, message):
    # read by np.asarray(x, float): "1" and True were levels, None was refused
    # as "must be >= 0", and object() raised the builtin TypeError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        call(*args)


def test_profiles_keep_their_infinite_domain():
    assert eval_f(identity(), math.inf) == 1.0
    assert frequency(identity(), math.inf) == 1.0
    assert frequency(identity(), [0.0, math.inf], "canonical").tolist() == [1.0, 1.0]


@pytest.mark.parametrize("chi", [math.inf, -math.inf, math.nan])
def test_kerr_profile_refuses_a_non_finite_chi(chi):
    with pytest.raises(DomainError, match=f"^kerr profile field 'chi' must be finite, got {chi!r}$"):
        kerr(chi)


@pytest.mark.parametrize("entry", [math.inf, math.nan])
def test_custom_table_refuses_a_non_finite_entry(entry):
    with pytest.raises(DomainError, match=f"^custom profile field 'table' must be finite, got {entry!r}$"):
        custom(table=[1.0, entry, 1.2])


@pytest.mark.parametrize("law, expected", [("amplitude", [1.0, 1.3 + 2.0 * 0.2]),
                                           ("canonical", [1.0, 1.69 + 4.0 * 1.3 * 0.2])])
def test_custom_table_frequency_at_the_ends_of_the_table(law, expected):
    # at both ends the slope is that of the end segment
    spec = custom(table=[1.0, 1.1, 1.3])
    np.testing.assert_allclose(frequency(spec, np.array([0.0, 2.0]), law), expected, rtol=1e-9)
    with pytest.raises(DomainError, match=r"custom table covers \[0, 2\] only"):
        frequency(spec, 2.5, law)


def test_kerr_profile_domain_error():
    with pytest.raises(DomainError):
        eval_f(kerr(2.0), 0.0)  # 1 - chi + chi*n = -1


def test_custom_table_interpolates():
    spec = custom(table=[1.0, 1.1, 1.3])
    assert eval_f(spec, 2) == pytest.approx(1.3, rel=1e-15)
    assert eval_f(spec, 1.5) == pytest.approx(1.2, rel=1e-15)
    with pytest.raises(DomainError):
        eval_f(spec, 2.5)


def test_custom_needs_exactly_one_source():
    with pytest.raises(DomainError, match="custom profile needs a 'table' field"):
        NonlinearitySpec(kind="custom")
    with pytest.raises(DomainError, match="custom table needs at least two samples"):
        custom(table=[1.0])


def test_profile_rejects_non_finite_output():
    # a table is finite by construction; the q profile overflows past lam n ~ 1427
    with pytest.raises(DomainError, match="f overflows the float range"):
        eval_f(q_oscillator(2.0), np.array([1.0, 1000.0]))


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


_LEVELS_2D = np.array([[0.5, 3.0], [4.0, 7.0]])


@pytest.mark.parametrize("call", [eval_f, frequency], ids=["eval_f", "frequency"])
def test_profiles_refuse_a_bad_2d_argument_naming_the_first_level_in_c_order(call):
    # 1 - chi + chi n = 2 - n at chi = -1: 3.0 is the first level past 2 in
    # C order, 4.0 the first in column order
    with pytest.raises(DegenerateDeformationError, match=r"at n = 3\.0$"):
        call(kerr(-1.0), _LEVELS_2D)
    with pytest.raises(DomainError, match=r"non-finite value at n = 3\.0: f overflows"):
        call(q_oscillator(1e3), _LEVELS_2D)


def test_profiles_keep_the_shape_of_a_2d_argument():
    for call in (eval_f, frequency):
        out = call(kerr(0.1), _LEVELS_2D)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out, call(kerr(0.1), _LEVELS_2D.ravel()).reshape(2, 2))


def test_frequency_kerr_canonical_law():
    # d/dE [E f^2] = 1 - chi + 2 chi E: exactly 1.3 at chi = 0.1, E = 2
    assert frequency(kerr(0.1), 2.0, law="canonical") == pytest.approx(1.3, rel=1e-12)


def test_frequency_linear_profile_amplitude_law():
    # f(E) = E/2 gives omega = f + E f' = E
    spec = custom(table=[k / 2.0 for k in range(4)])
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


@pytest.mark.parametrize("n", [-1, 1.5])
def test_f_factorial_refuses_a_bad_order(n):
    with pytest.raises(DomainError, match="f_factorial needs an integer n >= 0"):
        f_factorial(kerr(0.1), n)


def test_log_f_factorial_refuses_a_negative_order():
    with pytest.raises(DomainError, match="n_max must be >= 0"):
        log_f_factorial(kerr(0.1), -1)


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


@pytest.mark.parametrize("data, message", [
    ([], "nonlinearity description needs a 'kind' field"),
    ({"lambda": 0.1}, "nonlinearity description needs a 'kind' field"),
    ({"kind": "kerr"}, "kerr profile needs a 'chi' field"),
    ({"kind": "custom"}, "custom profile needs a 'table' field"),
    ({"kind": "q", "lambda": -0.1}, "q profile needs lam > 0"),
    ({"kind": "custom", "table": [1.0]}, "custom table needs at least two samples"),
    ({"kind": "warp"}, "unknown nonlinearity kind 'warp'"),
    ({"kind": "q"}, "q profile needs a 'lambda' field"),
    ({"kind": "q", "lambda": 0.1, "chi": 0.3}, "the q profile takes no 'chi' field"),
    ({"kind": "identity", "table": [1.0, 1.1]}, "the identity profile takes no 'table' field"),
    ({"kind": "kerr", "chi": 0.1, "bogus": 1}, "nonlinearity description has an unknown field 'bogus'"),
    # refused by its presence: a value equal to the default was let through
    ({"kind": "identity", "chi": 0}, "the identity profile takes no 'chi' field"),
    ({"kind": "kerr", "chi": 0.1, "lambda": 0.0}, "the kerr profile takes no 'lambda' field"),
])
def test_spec_from_dict_refuses_malformed_input(data, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        spec_from_dict(data)


@pytest.mark.parametrize("data, message", [
    ({"kind": "q", "lambda": "x"}, "q profile field 'lambda' must be a number, got 'x'"),
    ({"kind": "kerr", "chi": None}, "kerr profile field 'chi' must be a number, got None"),
    ({"kind": "custom", "table": [1.0, "x"]}, "custom profile field 'table' must be a number, got 'x'"),
    ({"kind": "custom", "table": 3}, "custom profile field 'table' must be a list of numbers, got 3"),
    ({"kind": "q", "lambda": 10**400}, "q profile field 'lambda' must be a number, got 1000"),
    ({"kind": "custom", "table": [1.0, 10**400]},
     "custom profile field 'table' must be a number, got 1000"),
    ({"kind": "custom", "table": "123"}, "custom profile field 'table' must be a number, got '123'"),
    ({"kind": "q", "lambda": True}, "q profile field 'lambda' must be a number, got True"),
    ({"kind": "custom", "table": [1.0, False]}, "custom profile field 'table' must be a number, got False"),
], ids=["q-string", "kerr-null", "table-string", "table-number", "q-huge-int", "table-huge-int",
        "table-is-a-string", "q-bool", "table-bool"])
def test_spec_from_dict_names_a_field_it_cannot_convert(data, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        spec_from_dict(data)


@pytest.mark.parametrize("build, message", [
    (lambda: custom(table="15"), "custom profile field 'table' must be a number, got '15'"),
    (lambda: q_oscillator(True), "q profile field 'lambda' must be a number, got True"),
    (lambda: kerr(np.True_), "kerr profile field 'chi' must be a number, got np.True_"),
    (lambda: custom(table=3), "custom profile field 'table' must be a list of numbers, got 3"),
], ids=["string-table", "q-bool", "kerr-numpy-bool", "table-number"])
def test_builders_refuse_a_string_table_and_a_bool_number(build, message):
    # float() reads a string table as its characters and a bool as 0 or 1
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


_FINITE = st.floats(-1e300, 1e300, allow_nan=False)
_SPECS = st.one_of(
    st.just(identity()),
    st.floats(1e-300, 1e300).map(q_oscillator),
    _FINITE.map(kerr),
    st.lists(_FINITE, min_size=2, max_size=40).map(custom),
)


@given(spec=_SPECS)
def test_every_spec_round_trips_through_json_and_hashes_as_a_value(spec):
    # the level tables of fock are cached by spec, so equal specs must hash equal
    back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    assert back == spec
    assert hash(back) == hash(spec)


def test_table_slope_is_exact_on_each_segment():
    # on [1, 2) f' is the rounded difference 1.3 - 1.1, with no finite
    # difference's noise, for both laws
    spec = custom(table=[1.0, 1.1, 1.3])
    e = np.array([1.0, 1.25, 1.5, 1.75])
    f, slope = eval_f(spec, e), 1.3 - 1.1
    assert frequency(spec, e).tolist() == (f + e * slope).tolist()
    assert frequency(spec, e, "canonical").tolist() == (f * f + 2.0 * e * f * slope).tolist()


def test_table_knot_takes_the_slope_of_the_segment_above():
    # at the knot E = 1 the amplitude law jumps from 1.1 + 0.1 to 1.1 + 0.2
    spec = custom(table=[1.0, 1.1, 1.3])
    assert frequency(spec, 1.0) == 1.1 + (1.3 - 1.1)
    below = math.nextafter(1.0, 0.0)
    assert frequency(spec, below) == pytest.approx(1.1 + 0.1, rel=1e-15)


def test_constructor_validation():
    with pytest.raises(DomainError):
        q_oscillator(0.0)
    with pytest.raises(DomainError):
        q_oscillator(-0.1)
    with pytest.raises(DomainError):
        NonlinearitySpec(kind="galaxy")
    # a parameter of another kind would make the spec unequal to its JSON form
    with pytest.raises(DomainError, match="the q profile takes no 'chi' field"):
        NonlinearitySpec(kind="q", lam=0.1, chi=0.3)
    # refused by presence: these gave a spec holding the int 0, equal to
    # identity(), and a Kerr profile with chi = 0
    with pytest.raises(DomainError, match="the identity profile takes no 'chi' field"):
        NonlinearitySpec(kind="identity", chi=0)
    with pytest.raises(DomainError, match="kerr profile needs a 'chi' field"):
        NonlinearitySpec(kind="kerr")


_VALUES = st.one_of(
    st.floats(), st.integers(-3, 3), st.booleans(), st.sampled_from(["", "x", "0.1", "1,2"]),
    st.lists(st.one_of(st.floats(0.5, 2.0), st.booleans(), st.just("x")), max_size=4),
)
_FIELDS = st.dictionaries(st.sampled_from(["lambda", "chi", "table"]), _VALUES)


def _outcome(build):
    try:
        return build()
    except DomainError as exc:
        return f"DomainError: {exc}"


@given(kind=st.sampled_from(["identity", "q", "kerr", "custom", "warp"]), fields=_FIELDS)
def test_constructor_and_reader_hold_one_field_rule(kind, fields):
    # with no null and no unknown key, the reader adds nothing to the
    # constructor's rule: the same spec, or the same refusal
    attrs = {"lambda": "lam", "chi": "chi", "table": "table"}
    built = _outcome(lambda: NonlinearitySpec(kind, **{attrs[k]: v for k, v in fields.items()}))
    read = _outcome(lambda: spec_from_dict({"kind": kind, **fields}))
    assert built == read
