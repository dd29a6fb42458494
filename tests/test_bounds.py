import math

import pytest

from monoapprox.bounds import (
    LbParams,
    McParams,
    choose_params,
    default_lb_params,
    lb_curve,
    lb_epshat,
    n_det_curse,
    n_ran_upper,
    n_ran_upper_breakdown,
    normal_cdf,
    ub_error,
    ub_error_breakdown,
)


# ---------------------------------------------------------------------------
# error bound and parameter choice


def test_ub_error_components_example():
    # d=1, k=1, r=4 and huge n: 5/16 + 4*2/2 + (negligible) = 4.3125.
    breakdown = ub_error_breakdown(McParams(1, 1, 4, 10**12, 0.5))
    assert breakdown.resolution_term == pytest.approx(5 / 16)
    assert breakdown.tail_term == pytest.approx(4.0)
    assert breakdown.total == pytest.approx(4.3125, abs=1e-9)


def test_ub_error_tail_term_evaluated_at_k_equal_d():
    breakdown = ub_error_breakdown(McParams(4, 4, 7, 1000, 0.5))
    assert breakdown.tail_term == pytest.approx(4 * math.sqrt(28) / 5)


def test_ub_error_estimation_term_halves_when_n_doubles():
    b1 = ub_error_breakdown(McParams(3, 2, 3, 500, 0.5))
    b2 = ub_error_breakdown(McParams(3, 2, 3, 1000, 0.5))
    assert b1.estimation_term == 2 * b2.estimation_term
    assert ub_error(McParams(3, 2, 3, 1000, 0.5)) < ub_error(McParams(3, 2, 3, 500, 0.5))


def test_choose_params_frozen_example():
    # Independently recomputed: r = ceil(log2(45)) = 6, k = min(88, 1) = 1,
    # n = ceil(36 * exp(1 + 6 log 2)) = ceil(6262.92...) = 6263.
    p = choose_params(1 / 3, 1)
    assert (p.r, p.k, p.n) == (6, 1, 6263)


def test_choose_params_resolution_example():
    assert choose_params(0.9, 1).r == 5


def test_choose_params_k_clamps_to_d():
    p = choose_params(0.05, 3)
    assert p.k == 3


def test_choose_params_terms_below_eps_thirds():
    # From d = 76 at eps = 0.5 the formula's n is past the float range; it
    # is formed in log space and keeps float precision, so the estimation
    # term is eps/3 up to rounding.
    for eps in (0.3, 0.5, 0.8):
        for d in (1, 2, 5, 76, 144):
            p = choose_params(eps, d)
            b = ub_error_breakdown(p)
            assert b.resolution_term <= eps / 3 + 1e-12
            assert b.estimation_term <= eps / 3 + 1e-12
            if p.n > 2**53:
                assert b.estimation_term == pytest.approx(eps / 3, rel=1e-12)
            if p.k < d:
                assert b.tail_term <= eps / 3 + 1e-12


def test_mc_params_validation():
    with pytest.raises(ValueError):
        McParams(2, 0, 3, 10, 0.5)
    with pytest.raises(ValueError):
        McParams(2, 3, 3, 10, 0.5)
    with pytest.raises(ValueError):
        McParams(2, 1, 3, 10, 1.5)


# ---------------------------------------------------------------------------
# complexity envelopes


def test_n_ran_upper_second_branch_collapses_at_eps_half_d():
    result = n_ran_upper_breakdown(0.5, 1)
    assert result.log_deterministic_branch == 0.0  # d log(d / (2 eps)) = log 1
    assert n_ran_upper(0.5, 1) == result.value <= 1.0 + 1e-12


def test_n_ran_upper_nonincreasing_in_eps():
    for d in (1, 3, 10):
        values = [n_ran_upper(eps, d) for eps in (0.1, 0.3, 0.5, 0.7, 0.9)]
        logs = [n_ran_upper_breakdown(eps, d).log_stochastic_branch for eps in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(a >= b for a, b in zip(logs, logs[1:]))


def test_n_ran_upper_envelope_vs_choose_params():
    # Sanity envelope at the worked example: the combined bound cannot exceed
    # the parameter-choice sample count (the deterministic branch is tiny there).
    assert n_ran_upper(1 / 3, 1) <= max(1.0, float(choose_params(1 / 3, 1).n))
    for d in range(1, 11):
        for tenths in range(1, 10):
            eps = tenths / 10
            upper = n_ran_upper_breakdown(eps, d)
            # The calibrated stochastic branch dominates the parameter-choice n.
            assert upper.log_stochastic_branch >= math.log(choose_params(eps, d).n)


def test_n_ran_upper_branches():
    proof = n_ran_upper_breakdown(0.3, 4, det_branch="proof")
    theorem = n_ran_upper_breakdown(0.3, 4, det_branch="theorem")
    assert proof.log_deterministic_branch == pytest.approx(4 * math.log(4 / 0.3))
    assert theorem.log_deterministic_branch == pytest.approx(4 * math.log(4 / 0.6))
    with pytest.raises(ValueError):
        n_ran_upper(0.3, 4, det_branch="typo")


def test_n_det_curse():
    assert n_det_curse(0.5, 10) == 512.0
    assert n_det_curse(0.1, 1) == 1.0
    assert n_det_curse(0.3, 20) == 524288.0
    for d in range(1, 31):
        assert n_det_curse(0.5, d) == float(2 ** (d - 1))
    # The exact power up to the float range, inf past it.
    assert n_det_curse(0.5, 1024) == 2.0**1023
    assert n_det_curse(0.5, 1025) == n_det_curse(0.25, 5000) == math.inf
    with pytest.raises(ValueError):
        n_det_curse(0.6, 3)


# ---------------------------------------------------------------------------
# normal distribution function


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-6)
    for x in (0.1, 0.5, 1.0, 2.5, 4.0):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) <= 1e-14


# ---------------------------------------------------------------------------
# lower-bound certificate


def test_certificate_regression_value():
    cert = lb_epshat(default_lb_params(), 100)
    assert cert.value == pytest.approx(0.06666803382246224, abs=1e-12)
    assert cert.q == min(cert.q0, cert.q_mass)
    assert cert.r_b == pytest.approx(cert.r0 - default_lb_params().nu * cert.r1)


def test_certificate_without_budget_penalty():
    params = default_lb_params()
    free = LbParams(
        params.alpha0, params.beta0, params.tau0, params.lam, 1e-300,
        params.rho, params.c0, params.d0, params.eps0,
    )
    cert = lb_epshat(free, 100)
    assert cert.value == pytest.approx(2 * cert.r0 * cert.q, rel=1e-12)


def test_certificate_monotone_in_dimension():
    params = default_lb_params()
    values = [lb_epshat(params, d).value for d in (100, 150, 200, 300, 400)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_certificate_band_validation():
    params = default_lb_params()
    with pytest.raises(ValueError):
        lb_epshat(params, 100, alpha=0.5)  # alpha must be <= 0
    with pytest.raises(ValueError):
        lb_epshat(params, 100, beta=2.0)  # beta must be <= tau


# ---------------------------------------------------------------------------
# lower-bound curve


def test_lb_curve_boundary_is_continuous():
    params = default_lb_params()
    d = 400
    edge = params.eps0 * math.sqrt(params.d0 / d)
    scaling = lb_curve(params, edge * (1 + 1e-12), d)
    fallback = lb_curve(params, edge * (1 - 1e-12), d)
    assert scaling.regime == "scaling" and fallback.regime == "monotone-fallback"
    assert scaling.n_lower == pytest.approx(fallback.n_lower, rel=1e-9)


def test_lb_curve_outside_regime():
    params = default_lb_params()
    assert not lb_curve(params, 0.2, 100).valid  # eps above eps0
    assert not lb_curve(params, 1 / 15, 50).valid  # dimension below d0


def test_lb_curve_strong_form_dominates_simplified_form():
    params = default_lb_params()
    for d in (100, 200, 400):
        for eps in (1 / 15, 0.05, 0.04):
            if eps < params.eps0 * math.sqrt(params.d0 / d):
                continue
            result = lb_curve(params, eps, d)
            assert result.n_lower_strong >= result.n_lower * (1 - 1e-12)


def test_lb_curve_rejects_failed_certificate():
    params = default_lb_params()
    broken = LbParams(
        params.alpha0, params.beta0, params.tau0, params.lam, 1.0,
        params.rho, params.c0, params.d0, params.eps0,
    )
    with pytest.raises(ValueError):
        lb_curve(broken, 1 / 15, 100)


def test_lb_params_validation():
    with pytest.raises(ValueError):
        LbParams(0.1, 0.4, 1.5, 0.7, 1e-3, 0.25)  # alpha0 > 0
    with pytest.raises(ValueError):
        LbParams(-0.3, 1.6, 1.5, 0.7, 1e-3, 0.25)  # beta0 > tau0
    with pytest.raises(ValueError):
        LbParams(-0.3, 0.4, 1.5, 1.2, 1e-3, 0.25)  # lam outside (0, 1)
