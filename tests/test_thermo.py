"""Oscillator thermodynamics: closed forms, series oracles, deformed corrections."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foscillator import (
    DomainError,
    SeriesDivergenceError,
    chi_expectation,
    deformed_partition,
    exact_deformed_report,
    linear_thermo,
    mean_energy,
    occupation,
    occupation_second_moment,
    partition_closed,
    thermal_series,
    thermo,
)

BETA_GRID = np.logspace(math.log10(0.05), math.log10(50.0), 13)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0 ** u)


def _direct_moment(beta, k):
    """<n^k> of the undeformed ladder as a plain numpy sum; past n = 50/beta the
    relative tail is below e^-50 50^3."""
    n = np.arange(int(50.0 / beta) + 50, dtype=float)
    w = np.exp(-beta * n)
    return float(np.sum(n ** k * w) / np.sum(w))


def test_frozen_values_at_unit_beta():
    r = linear_thermo(1.0)
    assert r.z == pytest.approx(0.9595173756674719, rel=1e-14)
    assert r.energy == pytest.approx(1.0819767068693265, rel=1e-14)
    assert r.entropy == pytest.approx(1.0406518522564083, rel=1e-13)
    assert r.free_energy == pytest.approx(0.041324854612918106, rel=1e-12)


def test_ground_state_limit():
    assert mean_energy(50.0) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_report_identities(beta):
    r = linear_thermo(beta)
    assert r.entropy == pytest.approx(beta * r.energy + math.log(r.z), abs=1e-10)
    assert r.free_energy == pytest.approx(-math.log(r.z) / beta, abs=1e-10)


def test_identities_across_temperature_range():
    for beta in BETA_GRID:
        r = linear_thermo(beta)
        assert abs(r.entropy - (beta * r.energy + math.log(r.z))) < 1e-10
        assert abs(r.free_energy + math.log(r.z) / beta) < 1e-10
        assert r.entropy >= 0.0


def test_partition_closed_vs_series():
    for beta in BETA_GRID:
        assert thermal_series(beta) == pytest.approx(
            partition_closed(beta), rel=1e-10
        )


def test_mean_occupation():
    assert occupation(1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-13)
    # 1/expm1(beta) raised an untyped OverflowError past beta ~ 709.78
    assert occupation(700.0) == pytest.approx(math.exp(-700.0), rel=1e-13)
    assert occupation(800.0) == 0.0
    assert _direct_moment(1.0, 1) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-11)


def test_second_moment_closed_form():
    # x(1+x)/(1-x)^2 with x = e^{-beta}; default weight of the deformed path
    assert occupation_second_moment(1.0) == pytest.approx(
        1.2593704815462583, rel=1e-13
    )
    for beta in (0.25, 0.5, 1.0, 2.0, 5.0):
        assert chi_expectation(beta) == pytest.approx(
            occupation_second_moment(beta), rel=1e-10
        )
    # <n^2> ~ e^-50 lives on level 1: a level count that bounds only Z's tail drops it
    assert chi_expectation(50.0) == pytest.approx(occupation_second_moment(50.0), rel=1e-13)


def test_undeformed_coupling_is_exact():
    r = deformed_partition(1.3, 0.0)
    assert r.z == partition_closed(1.3)
    assert r.correction == 0.0


def test_correction_composes_from_parts():
    beta, g = 1.0, 0.01 / 6.0
    r = deformed_partition(beta, g)
    expected = -beta * g * occupation_second_moment(beta) * partition_closed(beta)
    assert abs(r.correction - expected) < 1e-12
    assert r.correction == pytest.approx(-0.002013979765743909, rel=1e-12)
    assert r.z == pytest.approx(r.z0 + r.correction, abs=1e-15)


def test_first_order_error_bound():
    beta = 2.0
    for g in (1e-3, 1e-2):
        pert = deformed_partition(beta, g)
        exact = exact_deformed_report(beta, g)
        assert abs(pert.z - exact.z) / pert.z0 < 5.0 * g * g


def test_first_order_error_scales_quadratically():
    beta = 1.0
    gs = np.logspace(-4.0, -2.0, 9)
    errs = []
    for g in gs:
        pert = deformed_partition(beta, g)
        exact = exact_deformed_report(beta, g)
        errs.append(abs(pert.z - exact.z))
    slope = np.polyfit(np.log(gs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_high_temperature_end_is_finite():
    r = deformed_partition(0.05, 0.01 / 6.0)
    for value in (r.z, r.correction, r.energy, r.entropy, r.free_energy):
        assert math.isfinite(value)


def test_deformed_report_internal_consistency():
    r = deformed_partition(0.8, 2e-3)
    log_z = math.log(r.z0) - 0.8 * r.g * r.chi_mean
    assert r.entropy == pytest.approx(0.8 * r.energy + log_z, abs=1e-12)
    assert r.free_energy == pytest.approx(-log_z / 0.8, abs=1e-12)


@pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
def test_deformed_partition_refuses_a_non_finite_coupling(g):
    with pytest.raises(DomainError, match="coupling g must be finite"):
        deformed_partition(1.0, g)


@pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
def test_exact_report_refuses_a_non_finite_coupling(g):
    # the exact sum overflowed and blamed the level weight
    with pytest.raises(DomainError, match="coupling g must be finite"):
        exact_deformed_report(1.0, g)


@pytest.mark.parametrize("g", [-1e-6, -1e-4])
def test_exact_report_refuses_a_spectrum_unbounded_below(g):
    # at g = -1e-6 the sum stopped before the levels turned down and returned Z = 0.9595
    with pytest.raises(SeriesDivergenceError, match=re.escape(
            f"at g = {g!r}, the spectrum n + 1/2 + g n^2 is unbounded below")):
        exact_deformed_report(1.0, g)


def test_beta_past_the_level_budget_is_a_domain_error():
    # ~45/beta levels are needed at g = 0; 2e-6 needs more than the sum may take
    with pytest.raises(DomainError, match=re.escape(
            "at beta = 2e-06, the Gibbs sum over n + 1/2 + g n^2 needs about ") + r"\de\+07 levels"):
        exact_deformed_report(2e-6, 0.0)


@pytest.mark.parametrize("beta, g, need", [
    (1e-7, 0.0, "about 4e+08 levels"),
    (1e-300, 0.0, "about 4e+301 levels"),
    (1e-310, 1.0, "about 7e+155 levels"),
    (5e-324, 0.0, "a level count past the float range"),
])
def test_level_budget_refusal_computes_its_count(beta, g, need):
    # the count solves beta (n + g n^2) = 43.59; doubling against the partial
    # sums reported 6e+08, 8e+302, 4e+156 and 1e+308
    with pytest.raises(DomainError, match=re.escape(
            f"at beta = {beta!r}, the Gibbs sum over n + 1/2 + g n^2 needs {need}, "
            "more than the 10000000 it may sum")):
        exact_deformed_report(beta, g)


def test_nonpositive_beta_rejected():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            linear_thermo(bad)
        with pytest.raises(DomainError):
            chi_expectation(bad)
        with pytest.raises(DomainError):
            deformed_partition(bad, 0.01)


@pytest.mark.parametrize("beta", [1420.0, 1500.0, 1e6, 1e300])
def test_beta_past_the_float_range_of_z_is_a_domain_error(beta):
    # Z = 1/(2 sinh(beta/2)) underflows past beta = 1416.79: math.sinh raised
    # OverflowError and the exact sums ZeroDivisionError
    at = re.escape(f"at beta = {beta!r}, ")
    closed = at + re.escape("Z = 1/(2 sinh(beta/2)) leaves the float range: beta must be <= 1416.79")
    for call in (partition_closed, linear_thermo, lambda b: deformed_partition(b, 0.001)):
        with pytest.raises(DomainError, match=closed):
            call(beta)
    # the direct sums refuse in _gibbs_sum; thermal_series returned the
    # subnormal 4.476e-309 at 1420 and 0.0 past it
    for call in (thermal_series, chi_expectation, lambda b: exact_deformed_report(b, 0.001)):
        with pytest.raises(DomainError, match=at + "the exact Z = .* leaves the float range"):
            call(beta)


def test_chi_expectation_refuses_in_its_own_sum(monkeypatch):
    # it called partition_closed only to refuse; the sum now refuses for itself
    def refuse(*args):
        raise AssertionError("chi_expectation called a closed form")

    monkeypatch.setattr(thermo, "partition_closed", refuse)
    assert chi_expectation(1.0) == pytest.approx(occupation_second_moment(1.0), rel=1e-13)
    with pytest.raises(DomainError, match=re.escape(
            "at beta = 1420.0, the exact Z = 4.47628622567513e-309 leaves the float range")):
        chi_expectation(1420.0)


def test_largest_beta_keeps_its_closed_forms():
    beta = 1416.79
    r = linear_thermo(beta)
    assert r.z == pytest.approx(math.exp(-0.5 * beta), rel=1e-12)
    assert (r.energy, r.free_energy) == (0.5, 0.5)
    assert exact_deformed_report(beta, 0.001).z == pytest.approx(r.z, rel=1e-12)


@settings(max_examples=200)
@given(beta=_log_uniform(1e-100, 1416.0), g=st.floats(-1e-2, 1e-2))
def test_reports_are_finite_and_keep_their_identities_property(beta, g):
    r = linear_thermo(beta)
    assert all(map(math.isfinite, vars(r).values()))
    assert r.entropy == pytest.approx(beta * r.energy + math.log(r.z), rel=1e-12)
    assert r.free_energy == pytest.approx(-math.log(r.z) / beta, rel=1e-12)
    d = deformed_partition(beta, g)
    assert all(map(math.isfinite, vars(d).values()))
    # S and F of the deformed report read the exponentiated log Z
    log_z = math.log(d.z0) - beta * g * d.chi_mean
    assert d.entropy == pytest.approx(beta * d.energy + log_z, rel=1e-12, abs=1e-12)
    assert d.free_energy == pytest.approx(-log_z / beta, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(beta=_log_uniform(0.05, 50.0))
def test_series_agree_with_the_closed_forms_property(beta):
    # the level sums are the reference for the closed forms the reports read
    assert thermal_series(beta) == pytest.approx(partition_closed(beta), rel=1e-10)
    assert exact_deformed_report(beta, 0.0).energy == pytest.approx(mean_energy(beta), rel=1e-10)
    assert chi_expectation(beta) == pytest.approx(occupation_second_moment(beta), rel=1e-10)
    assert _direct_moment(beta, 3) == pytest.approx(thermo._occupation_third_moment(beta), rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(beta=_log_uniform(1e-5, 1416.79), g=st.floats(0.0, 1e-2))
def test_exact_report_meets_the_closed_forms_and_falls_with_g_property(beta, g):
    exact, closed = exact_deformed_report(beta, 0.0), linear_thermo(beta)
    assert vars(exact) == pytest.approx(vars(closed), rel=1e-12, abs=1e-12)
    # a level shift g n^2 >= 0 can only lower Z and raise F; S = -sum p log p
    deformed = exact_deformed_report(beta, g)
    assert deformed.entropy >= 0.0
    assert deformed.z <= exact.z
    assert deformed.free_energy >= exact.free_energy


def test_reports_sum_no_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("a report summed a series")

    monkeypatch.setattr(thermo, "thermal_series", refuse)
    monkeypatch.setattr(thermo, "_gibbs_sum", refuse)
    for beta in (1e-100, 1e-5, 0.5, 5.0, 1416.0):
        linear_thermo(beta)
        deformed_partition(beta, 1e-3)


@pytest.mark.parametrize("beta", [1e-5, 3e-5])
def test_series_converge_at_small_beta(beta):
    # a decay guard once fired while n^k e^(-beta n) still rose to its peak at k/beta
    for k, closed in ((1, occupation), (3, thermo._occupation_third_moment)):
        assert _direct_moment(beta, k) == pytest.approx(closed(beta), rel=1e-13)
    assert chi_expectation(beta) == pytest.approx(occupation_second_moment(beta), rel=1e-13)
    exact, closed = exact_deformed_report(beta, 0.0), linear_thermo(beta)
    assert (exact.z, exact.energy) == pytest.approx((closed.z, closed.energy), rel=1e-13)


@pytest.mark.parametrize("beta", [5e-324, 1e-310])
def test_beta_below_the_float_range_of_z_is_a_domain_error(beta):
    # 2 sinh(beta/2) was 0 at 5e-324 (ZeroDivisionError) and Z inf at 1e-310
    at = re.escape(f"at beta = {beta!r}, ")
    bound = re.escape(" leaves the float range: beta must be >= 1.11254e-308")
    for call in (partition_closed, linear_thermo):
        with pytest.raises(DomainError, match=at + re.escape("Z = 1/(2 sinh(beta/2))") + bound):
            call(beta)
    for call in (mean_energy, occupation):
        with pytest.raises(DomainError, match=at + ".*" + bound):
            call(beta)


@pytest.mark.parametrize("beta", [5e-324, 1e-200])
def test_deformed_report_below_the_float_range_of_the_third_moment_is_a_domain_error(beta):
    with pytest.raises(DomainError, match=re.escape(
            f"at beta = {beta!r}, <n^3> = x (1 + 4x + x^2)/(1 - x)^3 leaves the float range: "
            "beta must be >= 4.05654e-103")):
        deformed_partition(beta, 1e-3)


def test_free_energy_past_the_float_range_is_a_domain_error():
    # Z ~ 1/beta is finite down to 1.1e-308, but F = -log Z / beta is not
    assert math.isfinite(linear_thermo(1e-305).free_energy)
    with pytest.raises(DomainError, match=re.escape("at beta = 1e-307, free_energy = -inf leaves the float range")):
        linear_thermo(1e-307)


def test_coupling_past_the_float_range_is_a_domain_error():
    # the first-order energy overflowed to -inf and was reported
    with pytest.raises(DomainError, match=re.escape("at beta = 1.0, energy = -inf leaves the float range")):
        deformed_partition(1.0, 1e308)
