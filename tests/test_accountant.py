"""Unit tests for the privacy accountant.

Reference values marked "50-digit reference" were computed with an
independent arbitrary-precision evaluation (mpmath, 50 decimal digits)
before this module was implemented, and are frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_within_inverse_variance_budget
from udpfl import accountant as acc

# 50-digit reference values.
CALIB_SIGMA_REF = 0.006362006647889168  # eps=8 delta=1e-3 q=0.6 T=200 dl=0.00125
D10_REF_A = 1.935421293264437  # q=0.6 lam=3 dl=0.5 sigma=1
D01_REF_A = 1.5578652163096098
D10_REF_B = 1.75192829856693  # q=0.3 lam=7 dl=0.2 sigma=0.5
D01_REF_B = 1.3922393267298108
D01_REF_PURE = 1.3099644507332473  # q=1 lam=2 dl=0.3 sigma=1; equals e^0.27
INV_VAR_BUDGET_REF = 4941306.105210332  # eps=8 delta=1e-3 q=0.6 dl=0.00125
RECALIB_REF = 0.0053451547220958  # T_new=150 t=30 after 30 rounds at CALIB_SIGMA_REF
LOG_D10_CROSSCHECK = 0.3217217637210838  # q=0.6 lam=10 dl=0.00125 sigma=0.01
CONV_BOUND_REF = 0.43545509991772036  # T=100 U=50 K=30 eps=8 delta=1e-3 mu=.5 L=2 eta=.4 eps_div=1 gap0=1 dl=.00125


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- sensitivity


def test_sensitivity_direct_substitution():
    assert acc.sensitivity(0.1, 5, 800) == 0.00125
    assert acc.sensitivity(1, 1, 2) == 1.0
    assert rel_err(acc.sensitivity(0.05, 3, 128), 0.00234375) < 1e-15


@pytest.mark.parametrize("eta,clip,n", [(0, 1, 1), (-1, 1, 1), (1, 0, 1), (1, -2, 1), (1, 1, 0)])
def test_sensitivity_rejects_nonpositive(eta, clip, n):
    with pytest.raises(ValueError):
        acc.sensitivity(eta, clip, n)


# ------------------------------------------------------------- domain types


def test_mechanism_params_validation():
    acc.MechanismParams(q=1.0, sigma=0.01, sensitivity=0.0, lam=1)
    with pytest.raises(ValueError):
        acc.MechanismParams(q=0.0, sigma=1, sensitivity=1, lam=1)
    with pytest.raises(ValueError):
        acc.MechanismParams(q=1.1, sigma=1, sensitivity=1, lam=1)
    with pytest.raises(ValueError):
        acc.MechanismParams(q=0.5, sigma=0, sensitivity=1, lam=1)
    with pytest.raises(ValueError):
        acc.MechanismParams(q=0.5, sigma=1, sensitivity=-1, lam=1)
    with pytest.raises(ValueError):
        acc.MechanismParams(q=0.5, sigma=1, sensitivity=1, lam=0)


def test_privacy_budget_validation():
    acc.PrivacyBudget(8, 0.001)
    with pytest.raises(ValueError):
        acc.PrivacyBudget(0, 0.001)
    with pytest.raises(ValueError):
        acc.PrivacyBudget(1, 0.0)
    with pytest.raises(ValueError):
        acc.PrivacyBudget(1, 1.0)


# ------------------------------------------------------------- moment bound


def test_moment_bound_unit_case():
    m = acc.MechanismParams(q=1, sigma=1, sensitivity=1, lam=1)
    assert acc.moment_bound(m) == 1.0


def test_moment_bound_vanishes_with_participation():
    # q -> 0 limit: no participation means no privacy loss.
    per_q = 10 * 11 * 0.001**2 / (2 * 0.01**2)
    for q in (1e-6, 1e-9, 1e-12):
        m = acc.MechanismParams(q=q, sigma=0.01, sensitivity=0.001, lam=10)
        assert rel_err(acc.moment_bound(m), q * per_q) < 1e-14
    assert acc.moment_bound(acc.MechanismParams(q=1e-12, sigma=0.01, sensitivity=0.001, lam=10)) < 1e-12


def test_moment_bound_monotonicity():
    base = dict(q=0.5, sigma=0.01, sensitivity=0.001, lam=10)
    b0 = acc.moment_bound(acc.MechanismParams(**base))
    assert acc.moment_bound(acc.MechanismParams(**{**base, "lam": 20})) > b0
    assert acc.moment_bound(acc.MechanismParams(**{**base, "q": 0.9})) > b0
    assert acc.moment_bound(acc.MechanismParams(**{**base, "sensitivity": 0.002})) > b0
    assert acc.moment_bound(acc.MechanismParams(**{**base, "sigma": 0.02})) < b0


def test_regime_ratio():
    m = acc.MechanismParams(q=0.6, sigma=0.01, sensitivity=0.00125, lam=10)
    assert rel_err(acc.regime_ratio(m), 10 * 0.00125**2 / (2 * 0.01**2)) < 1e-15


# ----------------------------------------------------------- exact moments


def test_moment_mix_base_full_participation_order_one():
    # q=1, lam=1: only the top binomial term survives -> exp(dl^2/sigma^2).
    m = acc.MechanismParams(q=1, sigma=1, sensitivity=1, lam=1)
    assert rel_err(acc.moment_numeric(m, acc.D_MIX_BASE), math.e) < 1e-14
    m2 = acc.MechanismParams(q=1, sigma=0.5, sensitivity=0.3, lam=1)
    assert rel_err(acc.moment_numeric(m2, acc.D_MIX_BASE), math.exp(0.3**2 / 0.25)) < 1e-13


def test_moment_zero_sensitivity_is_one():
    m = acc.MechanismParams(q=0.5, sigma=0.01, sensitivity=0.0, lam=50)
    assert acc.moment_numeric(m, acc.D_MIX_BASE) == 1.0
    assert acc.moment_numeric(m, acc.D_BASE_MIX) == 1.0


def test_moment_frozen_reference_values():
    ma = acc.MechanismParams(q=0.6, sigma=1.0, sensitivity=0.5, lam=3)
    assert rel_err(acc.moment_numeric(ma, acc.D_MIX_BASE), D10_REF_A) < 1e-13
    assert rel_err(acc.moment_numeric(ma, acc.D_BASE_MIX), D01_REF_A) < 1e-10
    mb = acc.MechanismParams(q=0.3, sigma=0.5, sensitivity=0.2, lam=7)
    assert rel_err(acc.moment_numeric(mb, acc.D_MIX_BASE), D10_REF_B) < 1e-13
    assert rel_err(acc.moment_numeric(mb, acc.D_BASE_MIX), D01_REF_B) < 1e-10


def test_quadrature_matches_closed_form_at_full_participation():
    # q=1 collapses the reverse direction to a pure Gaussian moment.
    m = acc.MechanismParams(q=1, sigma=1, sensitivity=0.3, lam=2)
    assert rel_err(acc.moment_numeric(m, acc.D_BASE_MIX), D01_REF_PURE) < 1e-11


def test_moment_rejects_unknown_direction():
    m = acc.MechanismParams(q=0.5, sigma=1, sensitivity=0.1, lam=2)
    with pytest.raises(ValueError):
        acc.log_moment_numeric(m, "sideways")


def test_binomial_and_quadrature_routes_agree():
    # Two independent computations of the same moment; includes a case where
    # the integrand splits into narrow, widely separated bumps.
    cases = [
        (0.6, 1.0, 0.5, 3),
        (0.3, 0.5, 0.2, 7),
        (0.9, 0.01, 0.000125, 30),
        (0.5, 0.05, 0.00125, 25),
        (0.7, 0.4, 3.0, 12),
        (1.0, 0.25, 0.8, 20),
    ]
    for q, sigma, dl, lam in cases:
        m = acc.MechanismParams(q=q, sigma=sigma, sensitivity=dl, lam=lam)
        a = acc.log_moment_numeric(m, acc.D_MIX_BASE)
        b = acc.log_moment_quadrature(m, acc.D_MIX_BASE)
        assert rel_err(a, b) < 1e-8, (q, sigma, dl, lam)


def test_direction_ordering_on_small_grid():
    # Mixture-forward moment dominates the reverse moment everywhere.
    for q in (0.1, 0.4, 0.7, 1.0):
        for lam in (1, 5, 20, 60):
            m = acc.MechanismParams(q=q, sigma=0.01, sensitivity=0.000125, lam=lam)
            d10 = acc.moment_numeric(m, acc.D_MIX_BASE)
            d01 = acc.moment_numeric(m, acc.D_BASE_MIX)
            assert d10 >= d01 - 1e-9


def test_bound_dominates_exact_moment_in_regime():
    m = acc.MechanismParams(q=0.6, sigma=0.01, sensitivity=0.00125, lam=10)
    assert acc.regime_ratio(m) < 0.1
    log_d10 = acc.log_moment_numeric(m, acc.D_MIX_BASE)
    assert rel_err(log_d10, LOG_D10_CROSSCHECK) < 1e-12
    assert acc.moment_bound(m) == 0.515625  # exact decimal of q*lam*(lam+1)*dl^2/(2 s^2)
    assert acc.moment_bound(m) >= log_d10


def test_bound_met_with_equality_at_full_participation():
    m = acc.MechanismParams(q=1.0, sigma=0.005, sensitivity=0.000125, lam=100)
    assert acc.moment_bound(m) == acc.log_moment_numeric(m, acc.D_MIX_BASE)


# ------------------------------------------------------------- calibration


def test_calibrate_sigma_unit_case():
    b = acc.PrivacyBudget(math.sqrt(2), math.exp(-1))
    assert rel_err(acc.calibrate_sigma(b, 1, 1, 1), 1.0) < 1e-15


def test_calibrate_sigma_reference_value():
    b = acc.PrivacyBudget(8, 0.001)
    assert rel_err(acc.calibrate_sigma(b, 0.6, 200, 0.00125), CALIB_SIGMA_REF) < 1e-12


def test_calibrate_sigma_doubling_T_scales_sqrt2():
    b = acc.PrivacyBudget(4, 0.01)
    s1 = acc.calibrate_sigma(b, 0.5, 100, 0.002)
    s2 = acc.calibrate_sigma(b, 0.5, 200, 0.002)
    assert rel_err(s2, s1 * math.sqrt(2)) < 1e-14


def test_calibrate_sigma_domain_errors():
    b = acc.PrivacyBudget(8, 0.001)
    with pytest.raises(ValueError):
        acc.calibrate_sigma(b, 0.0, 10, 0.001)
    with pytest.raises(ValueError):
        acc.calibrate_sigma(b, 0.5, 0, 0.001)
    with pytest.raises(ValueError):
        acc.calibrate_sigma(b, 0.5, 10, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(0.1, 50),
    delta=st.floats(1e-8, 0.5),
    q=st.floats(0.01, 1.0),
    T=st.integers(1, 2000),
    dl=st.floats(1e-8, 10),
)
def test_calibration_round_trip(eps, delta, q, T, dl):
    # The calibrated sigma inverts ln(1/delta) = eps^2 sigma^2 / (2 T q dl^2).
    b = acc.PrivacyBudget(eps, delta)
    sigma = acc.calibrate_sigma(b, q, T, dl)
    implied = eps**2 * sigma**2 / (2 * T * q * dl**2)
    assert rel_err(implied, math.log(1 / delta)) < 1e-12


def test_inverse_variance_budget_reference():
    b = acc.PrivacyBudget(8, 0.001)
    assert rel_err(acc.inverse_variance_budget(b, 0.6, 0.00125), INV_VAR_BUDGET_REF) < 1e-13


def test_recalibrate_empty_history_equals_calibrate():
    b = acc.PrivacyBudget(8, 0.001)
    s_fresh = acc.calibrate_sigma(b, 0.6, 200, 0.00125)
    s_recal = acc.recalibrate_sigma(b, 0.6, 200, 0, [], 0.00125)
    assert rel_err(s_fresh, s_recal) < 1e-12


def test_recalibrate_reference_value():
    b = acc.PrivacyBudget(8, 0.001)
    s0 = acc.calibrate_sigma(b, 0.6, 200, 0.00125)
    s_new = acc.recalibrate_sigma(b, 0.6, 150, 30, [s0] * 30, 0.00125)
    assert rel_err(s_new, RECALIB_REF) < 1e-12


def test_recalibrate_unchanged_T_is_stationary():
    # Round after round at the same T, the returned sigma never drifts.
    b = acc.PrivacyBudget(6, 0.01)
    T, q, dl = 120, 0.4, 0.0007
    hist = []
    first = acc.recalibrate_sigma(b, q, T, 0, hist, dl)
    hist.append(first)
    for t in range(1, T):
        s = acc.recalibrate_sigma(b, q, T, t, hist, dl)
        assert rel_err(s, first) < 1e-12
        hist.append(s)


def test_recalibrate_larger_past_sigma_gives_smaller_new_sigma():
    b = acc.PrivacyBudget(8, 0.001)
    dl, q, T = 0.00125, 0.6, 100
    s0 = acc.calibrate_sigma(b, q, T, dl)
    low = acc.recalibrate_sigma(b, q, T, 10, [s0 * 2] * 10, dl)
    high = acc.recalibrate_sigma(b, q, T, 10, [s0 * 4] * 10, dl)
    base = acc.recalibrate_sigma(b, q, T, 10, [s0] * 10, dl)
    assert high < low < base


def test_recalibrate_budget_exhausted():
    b = acc.PrivacyBudget(1, 0.001)
    dl, q = 0.001, 1.0
    tiny = 1e-6  # far more inverse variance than the budget funds
    with pytest.raises(acc.BudgetExhausted):
        acc.recalibrate_sigma(b, q, 100, 5, [tiny] * 5, dl)


def test_recalibrate_validates_history():
    b = acc.PrivacyBudget(8, 0.001)
    with pytest.raises(ValueError):
        acc.recalibrate_sigma(b, 0.5, 10, 2, [0.01], 0.001)  # wrong length
    with pytest.raises(ValueError):
        acc.recalibrate_sigma(b, 0.5, 10, 1, [-0.01], 0.001)  # nonpositive entry
    with pytest.raises(ValueError):
        acc.recalibrate_sigma(b, 0.5, 10, 10, [0.01] * 10, 0.001)  # t >= T_new


def test_ledger_stays_inside_budget_at_exact_saturation():
    # A schedule that spends the budget exactly must not overshoot it in
    # float arithmetic, for any of these scales.
    for eps, delta, q, T, dl in [
        (8, 0.001, 1.0, 200, 0.000125),
        (6, 0.001, 1.0, 300, 0.00015625),
        (2, 0.01, 0.3, 77, 0.004),
    ]:
        b = acc.PrivacyBudget(eps, delta)
        hist = []
        for t in range(T):
            hist.append(acc.recalibrate_sigma(b, q, T, t, hist, dl))
        assert_within_inverse_variance_budget(hist, b, q, dl)


def test_implied_moment_order_diagnostic():
    b = acc.PrivacyBudget(8, 0.001)
    T, q, dl = 200, 0.6, 0.00125
    sigma = acc.calibrate_sigma(b, q, T, dl)
    lam = acc.implied_moment_order(b, q, T, dl, sigma)
    # For this budget the implicitly optimal order is 2 ln(1/delta)/eps - 1/2.
    assert rel_err(lam + 0.5, 2 * math.log(1000) / 8) < 1e-12


# ------------------------------------------------------- convergence bound


def test_convergence_bound_reference_value():
    b = acc.PrivacyBudget(8, 0.001)
    val = acc.convergence_bound(100, 50, 30, [b] * 50, 0.5, 2.0, 0.4, 1.0, 1.0, 0.00125)
    assert rel_err(val, CONV_BOUND_REF) < 1e-12


def test_convergence_bound_zero_rounds_is_gap0():
    b = acc.PrivacyBudget(8, 0.001)
    assert acc.convergence_bound(0, 10, 5, [b] * 10, 0.5, 2.0, 0.4, 1.0, 3.25, 0.001) == 3.25


def test_convergence_bound_pure_contraction_limit():
    # dl=0 and K=U removes both penalties.
    b = acc.PrivacyBudget(8, 0.001)
    mu, L, eta, T = 0.5, 2.0, 0.4, 40
    A = 1 - 2 * mu * eta + mu * eta**2 * L
    val = acc.convergence_bound(T, 10, 10, [b] * 10, mu, L, eta, 1.0, 2.0, 0.0)
    assert rel_err(val, A**T * 2.0) < 1e-13


def test_convergence_bound_rejects_large_eta():
    b = acc.PrivacyBudget(8, 0.001)
    with pytest.raises(ValueError):
        acc.convergence_bound(10, 4, 2, [b] * 4, 0.5, 2.0, 0.6, 1.0, 1.0, 0.001)


def test_convergence_bound_interior_minimum_in_T_for_tight_budget():
    # Sweeping T trades contraction against accumulated noise; with a tight
    # budget the bound has an interior minimizer.
    b = acc.PrivacyBudget(1.0, 0.001)
    vals = [
        acc.convergence_bound(T, 100, 100, [b] * 100, 0.5, 2.0, 0.25, 1.0, 1.0, 0.01)
        for T in range(1, 400)
    ]
    k = int(np.argmin(vals))
    assert 0 < k < len(vals) - 1


# ------------------------------------------------------------ moment ledger


def test_moment_ledger_accumulates_and_bounds():
    b = acc.PrivacyBudget(2.0, 0.001)
    led = acc.MomentLedger(b, q=1.0, dl=0.001)
    assert led.log_tail_delta(2.0) == -math.inf
    assert led.within()
    sigma = 0.002
    deltas = []
    while led.within() and led.rounds < 10000:
        led.charge(sigma)
        deltas.append(led.log_tail_delta(b.epsilon))
    # Certified delta degrades monotonically as rounds accumulate, and the
    # loop exits because the budget was genuinely exceeded.
    assert all(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:]))
    assert led.rounds < 10000
    assert led.log_tail_delta(b.epsilon) > math.log(b.delta)


def test_moment_ledger_coefficient_is_fsum_of_per_round_terms():
    # the coefficient is recomputed from the charged sigmas; it must equal,
    # bit for bit, the fsum of the per-round terms q*dl^2/(2 sigma^2)
    q, dl = 0.6, 0.00125
    led = acc.MomentLedger(acc.PrivacyBudget(8.0, 0.001), q, dl)
    sigmas = [0.0063 - 0.00002 * r for r in range(150)]
    for s in sigmas:
        led.charge(s)
    assert led.sigmas == sigmas and led.rounds == 150
    assert led.coefficient() == math.fsum(q * dl * dl / (2.0 * s * s) for s in sigmas)


def test_moment_ledger_single_round_tail():
    led = acc.MomentLedger(acc.PrivacyBudget(3.0, 0.001), q=0.5, dl=0.01)
    led.charge(0.05)
    S = 0.5 * 0.01**2 / (2 * 0.05**2)
    expected = min(S * lam * (lam + 1) - lam * 3.0 for lam in range(1, 2000))
    assert rel_err(led.log_tail_delta(3.0), expected) < 1e-12


def test_moment_ledger_rejects_bad_inputs():
    b = acc.PrivacyBudget(3.0, 0.001)
    with pytest.raises(ValueError):
        acc.MomentLedger(b, q=0.0, dl=0.01)
    with pytest.raises(ValueError):
        acc.MomentLedger(b, q=0.5, dl=0.0)
    led = acc.MomentLedger(b, q=0.5, dl=0.01)
    with pytest.raises(ValueError):
        led.charge(0.0)
    with pytest.raises(ValueError):
        led.charge(float("nan"))
    with pytest.raises(ValueError):
        led.within(extra_sigma=-1.0)
    assert led.sigmas == []  # a rejected charge records nothing


# ------------------------------------------------------------- report tables


def test_verify_accountant_grid_is_clean():
    rows = acc.verify_accountant(lambdas=range(1, 11))
    assert len(rows) == 40  # 4 panels x 10 orders
    assert all(r["bound_checked"] == 1 for r in rows)
    assert all(r["ordering_violation"] == 0 for r in rows)
    assert all(r["bound_violation"] == 0 for r in rows)
    # the two q=0.9, |D|=800 panels differ only by U, which the moments
    # never see, so their numbers agree exactly
    a = [r for r in rows if r["panel"] == "q0.9_d800_U50"]
    d = [r for r in rows if r["panel"] == "q0.9_d800_U200"]
    for ra, rd in zip(a, d):
        assert ra["log_D10"] == rd["log_D10"]


def test_calibration_table_matches_direct_closed_form():
    rows = acc.calibration_table([6.0, 8.0], [0.001], [0.6], [100], [1.25e-4])
    assert len(rows) == 2
    for r in rows:
        direct = acc.calibrate_sigma(
            acc.PrivacyBudget(r["epsilon"], r["delta"]), r["q"], r["T"], r["sensitivity"]
        )
        assert r["sigma"] == direct


def test_moment_table_rows_are_ordered():
    rows = acc.moment_table(0.9, 0.01, 1.25e-4, range(1, 6))
    assert len(rows) == 5
    assert all(r["log_bound"] >= r["log_D10"] >= r["log_D01"] - 1e-12 for r in rows)


def test_moment_table_matches_the_verify_report():
    dl = acc.sensitivity(acc.VERIFY_ETA, acc.VERIFY_CLIP, 800)
    table = acc.moment_table(0.9, acc.VERIFY_SIGMA, dl, range(1, 4))
    report = [r for r in acc.verify_accountant(range(1, 4)) if r["panel"] == "q0.9_d800_U50"]
    for t, r in zip(table, report, strict=True):
        assert {k: r[k] for k in t} == t
