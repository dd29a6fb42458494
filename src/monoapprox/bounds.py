"""Closed-form error and complexity bounds for monotone-function approximation.

Upper-bound side: the three-term error bound of the randomized wavelet
estimator, the proof's explicit parameter choices, and the combined sample
complexity envelope.  Lower-bound side: the dimension-2**(d-1) floor for
deterministic algorithms, and a certificate construction that turns a set of
numeric parameters into a lower bound on the achievable error (and hence on
the sample complexity) of any randomized algorithm.  All evaluators expose
their component values so results can be audited term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Upper estimate for the Berry-Esseen constant (conservative default for the
#: certificate: a larger constant only weakens the claimed lower bound).
BERRY_ESSEEN_UPPER = 0.4748
#: Sharpest known lower estimate, (sqrt(10) + 3) / (6 sqrt(2 pi)).
BERRY_ESSEEN_LOWER = 0.409732

#: Constant for the stochastic branch of the complexity envelope, calibrated
#: as the smallest value (rounded up to 0.01) for which the branch dominates
#: the sample count implied by choose_params over d in 1..10 and eps in
#: 0.1..0.9.  Recorded alongside results; never a ground truth.
DEFAULT_UPPER_C = 5.47

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _exp_or_inf(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class McParams:
    """Parameters of the randomized wavelet estimator for a target accuracy."""

    d: int
    k: int
    r: int
    n: int
    eps: float

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.d:
            raise ValueError(f"need 1 <= k <= d, got k={self.k} d={self.d}")
        if self.r < 1 or self.n < 1:
            raise ValueError("need r >= 1 and n >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")


@dataclass(frozen=True)
class UbErrorBound:
    """Three-term error bound with its components."""

    resolution_term: float
    tail_term: float
    estimation_term: float

    @property
    def total(self) -> float:
        return self.resolution_term + self.tail_term + self.estimation_term


def _log_index_bound(d: int, k: int, r: int) -> float:
    """``log #A`` of the analytic index-set bound ``#A <= exp(k (1 + log(d/k) + r log 2))``."""
    return k * (1.0 + math.log(d / k) + math.log(2.0) * r)


def ub_error_breakdown(p: McParams) -> UbErrorBound:
    """Component values of the error bound ``5d/2**r + 4 sqrt(dr)/(k+1) + 4 #A/n``.

    The third term uses the analytic index-set bound
    ``#A <= exp(k (1 + log(d/k) + r log 2))``.  The tail term is evaluated for
    every k, including k = d, where it is conservative.
    """
    resolution_term = 5.0 * p.d / 2.0**p.r
    tail_term = 4.0 * math.sqrt(p.d * p.r) / (p.k + 1)
    log_set_bound = _log_index_bound(p.d, p.k, p.r)
    try:
        estimation_term = 4.0 * math.exp(log_set_bound) / p.n
    except OverflowError:  # #A or n past the float range
        estimation_term = 4.0 * _exp_or_inf(log_set_bound - math.log(p.n))
    return UbErrorBound(resolution_term, tail_term, estimation_term)


def ub_error(p: McParams) -> float:
    """Total error bound for the randomized wavelet estimator."""
    return ub_error_breakdown(p).total


def choose_params(eps: float, d: int) -> McParams:
    """Parameter choices that push each error-bound term below eps/3.

    ``r = ceil(log2(15 d / eps))``, ``k = min(floor(12 sqrt(d r) / eps), d)``,
    ``n = ceil((12/eps) exp(k (1 + log(d/k) + r log 2)))``.  Past the float
    range ``n`` is formed in log space: its leading 53 bits, then zeros.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if d < 1:
        raise ValueError("d must be positive")
    r = math.ceil(math.log2(15.0 * d / eps))
    k = min(int(12.0 * math.sqrt(d * r) / eps), d)
    log_set_bound = _log_index_bound(d, k, r)
    try:
        n = math.ceil(12.0 / eps * math.exp(log_set_bound))
    except OverflowError:
        log2_n = (math.log(12.0 / eps) + log_set_bound) / math.log(2.0)
        shift = math.floor(log2_n) - 60
        n = math.ceil(2.0 ** (log2_n - shift)) << shift
    return McParams(d, k, r, n, eps)


@dataclass(frozen=True)
class NRanUpper:
    """Combined sample-complexity envelope with branch-level detail."""

    value: float
    log_stochastic_branch: float
    log_deterministic_branch: float
    branch_taken: str
    upper_c: float
    det_branch: str


def n_ran_upper_breakdown(
    eps: float, d: int, upper_c: float = DEFAULT_UPPER_C, det_branch: str = "theorem"
) -> NRanUpper:
    """Branch-level detail behind :func:`n_ran_upper`."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if d < 1:
        raise ValueError("d must be positive")
    if det_branch not in ("theorem", "proof"):
        raise ValueError(f"det_branch must be 'theorem' or 'proof', got {det_branch!r}")
    log_sto = upper_c * math.sqrt(d) / eps * (1.0 + math.log(d / eps)) ** 1.5
    denominator = 2.0 * eps if det_branch == "theorem" else eps
    log_det = d * math.log(d / denominator)
    taken = "stochastic" if log_sto <= log_det else "deterministic"
    return NRanUpper(
        _exp_or_inf(min(log_sto, log_det)), log_sto, log_det, taken, upper_c, det_branch
    )


def n_ran_upper(
    eps: float, d: int, upper_c: float = DEFAULT_UPPER_C, det_branch: str = "theorem"
) -> float:
    """Randomized sample-complexity envelope: the minimum of two branches.

    The stochastic branch is ``exp(C sqrt(d)/eps (1 + log(d/eps))**1.5)`` with
    the calibrated constant C.  The deterministic branch is
    ``exp(d log(d/(2 eps)))`` ("theorem", default) or ``exp(d log(d/eps))``
    ("proof").
    """
    return n_ran_upper_breakdown(eps, d, upper_c, det_branch).value


def n_det_curse(eps: float, d: int) -> float:
    """Deterministic sample-complexity floor 2**(d-1), valid for eps <= 1/2; inf past the float range (d > 1024)."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"the 2**(d-1) floor is only asserted for eps in (0, 1/2], got {eps}")
    if d < 1:
        raise ValueError("d must be positive")
    return float(2 ** (d - 1)) if d <= 1024 else math.inf


@dataclass(frozen=True)
class LbParams:
    """Inputs of the lower-bound certificate.

    ``alpha0`` and ``beta0`` place a central band of Boolean-weight levels,
    ``tau0`` scales the seed weight, ``lam`` and ``rho`` tune the conditional
    probabilities, ``nu`` is the sample-budget density, ``c0`` the
    Berry-Esseen constant, ``d0`` the certified starting dimension and
    ``eps0`` the error threshold the certificate must beat.
    """

    alpha0: float
    beta0: float
    tau0: float
    lam: float
    nu: float
    rho: float
    c0: float = BERRY_ESSEEN_UPPER
    d0: int = 100
    eps0: float = 1.0 / 15.0

    def __post_init__(self) -> None:
        if self.d0 < 1:
            raise ValueError("d0 must be positive")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")
        if self.nu <= 0.0 or self.rho <= 0.0 or self.c0 <= 0.0 or self.eps0 <= 0.0:
            raise ValueError("nu, rho, c0 and eps0 must be positive")
        _check_band(self.alpha0, self.beta0, self.tau0, self.d0)

    @property
    def n0(self) -> float:
        """Sample budget at the starting dimension, ``nu * 2**(tau0 sqrt(d0))``."""
        return self.nu * 2.0 ** (self.tau0 * math.sqrt(self.d0))


def _check_band(alpha: float, beta: float, tau: float, d: int) -> None:
    sqrt_d = math.sqrt(d)
    if beta - alpha < 2.0 / sqrt_d:
        raise ValueError(f"need beta - alpha >= 2/sqrt(d), got {beta - alpha}")
    if alpha - 2.0 * tau < -sqrt_d + 2.0 / sqrt_d:
        raise ValueError("need alpha - 2 tau >= -sqrt(d) + 2/sqrt(d)")
    if beta > tau:
        raise ValueError(f"need beta <= tau, got beta={beta} tau={tau}")
    if not -tau <= alpha <= 0.0:
        raise ValueError(f"need -tau <= alpha <= 0, got alpha={alpha}")


def default_lb_params() -> LbParams:
    """The reference parameter set certifying error > 1/15 from dimension 100
    with a sample budget of 108."""
    tau0 = 1.47566
    return LbParams(
        alpha0=-0.33794,
        beta0=0.46332,
        tau0=tau0,
        lam=0.77399,
        nu=108.0 * 2.0 ** (-tau0 * 10.0),
        rho=0.25960,
    )


@dataclass(frozen=True)
class EpshatCertificate:
    """Certified error lower bound ``2 * r_b * q`` with every component.

    ``r_b`` bounds the fraction of Boolean points still uncertain after the
    information budget is spent; ``q`` bounds how balanced the conditional
    distribution of each uncertain value remains.
    """

    value: float
    c_ab: float
    r0: float
    kappa_tau: float
    c_abt: float
    c1: float
    kappa_alpha_tau: float
    k_abt: float
    sigma: float
    r1: float
    r_b: float
    log_gamma: float
    kappa_rho_gamma: float
    q0: float
    q_mass: float
    q: float


def lb_epshat(
    p: LbParams,
    d: int,
    alpha: float | None = None,
    beta: float | None = None,
    tau: float | None = None,
) -> EpshatCertificate:
    """Evaluate the error-lower-bound certificate at dimension d.

    ``alpha``, ``beta`` and ``tau`` default to the certificate's base values;
    passing scaled values evaluates the certificate along its validity curve.
    Raises ValueError when the band constraints fail or ``rho >= gamma``;
    a nonpositive ``r_b`` is returned as a nonpositive certificate value.
    """
    alpha = p.alpha0 if alpha is None else alpha
    beta = p.beta0 if beta is None else beta
    tau = p.tau0 if tau is None else tau
    _check_band(alpha, beta, tau, d)
    sqrt_d = math.sqrt(d)

    c_ab = normal_cdf(beta) - normal_cdf(alpha)
    r0 = c_ab - 2.0 * p.c0 / sqrt_d
    kappa_tau = (1.0 - tau / sqrt_d - 1.0 / d) ** -0.5
    c_abt = normal_cdf(beta - tau) - normal_cdf(alpha - tau)
    c1 = 1.0 / _SQRT_2PI + 2.0 * p.c0
    kappa_alpha_tau = 1.0 / (1.0 + (alpha - 2.0 * tau) / sqrt_d)
    k_abt = (beta - alpha) / (sqrt_d + alpha - 2.0 * tau)
    sigma = math.exp((beta - alpha) * tau * kappa_alpha_tau + k_abt)
    r1 = (sigma / (1.0 - p.lam) + 1.0) * (c_abt + c1 / sqrt_d) * kappa_tau
    r_b = r0 - p.nu * r1

    log_gamma = tau * sqrt_d * math.log((sqrt_d + alpha) / (2.0 * (tau + 1.0 / sqrt_d)))
    rho_over_gamma = p.rho * math.exp(-log_gamma) if log_gamma < 700.0 else 0.0
    if rho_over_gamma >= 1.0:
        raise ValueError("rho >= gamma: the balance factor is singular")
    kappa_rho_gamma = 0.5 + 0.5 / (1.0 - rho_over_gamma)
    q0 = math.exp(-p.rho * sigma * kappa_rho_gamma)
    q_mass = 1.0 - math.exp(-p.rho * p.lam)
    q = min(q_mass, q0)

    return EpshatCertificate(
        value=2.0 * r_b * q,
        c_ab=c_ab,
        r0=r0,
        kappa_tau=kappa_tau,
        c_abt=c_abt,
        c1=c1,
        kappa_alpha_tau=kappa_alpha_tau,
        k_abt=k_abt,
        sigma=sigma,
        r1=r1,
        r_b=r_b,
        log_gamma=log_gamma,
        kappa_rho_gamma=kappa_rho_gamma,
        q0=q0,
        q_mass=q_mass,
        q=q,
    )


@dataclass(frozen=True)
class LbCurveResult:
    """Sample-complexity lower bound at one (eps, d) point.

    ``n_lower`` is the certified bound in its simplified exponent-1 form,
    ``n_lower_strong`` the unsimplified form ``nu * 2**(tau sqrt(d))``.
    """

    valid: bool
    n_lower: float
    log_n_lower: float
    regime: str
    tau: float
    alpha: float
    beta: float
    n_lower_strong: float


def scaled_band(p: LbParams, tau: float) -> tuple[float, float]:
    """Band endpoints along the validity curve: scaled by tau0/tau."""
    return p.alpha0 * p.tau0 / tau, p.beta0 * p.tau0 / tau


def lb_curve(p: LbParams, eps: float, d: int) -> LbCurveResult:
    """Certified lower bound on the randomized sample complexity at (eps, d).

    For ``eps0 sqrt(d0/d) <= eps <= eps0`` and ``d >= d0`` the certificate
    scales with ``tau = tau0 eps0 / eps`` and yields
    ``n_lower = n0 * exp(sqrt(d) eps0/eps - sqrt(d0))`` (the simplification
    requires ``tau0 log 2 >= 1``, which is validated).  For smaller eps the
    bound at the regime edge persists by monotonicity of the complexity in
    eps: ``n_lower = n0 * exp(d/sqrt(d0) - sqrt(d0))``.  Outside the regime
    (d < d0 or eps > eps0) the result is flagged invalid.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if p.tau0 * math.log(2.0) < 1.0:
        raise ValueError("the simplified bound requires tau0 >= 1/log(2)")
    base = lb_epshat(p, p.d0)
    if base.value <= p.eps0:
        raise ValueError(
            f"certificate check failed: epshat({p.d0}) = {base.value} <= eps0 = {p.eps0}"
        )
    sqrt_d, sqrt_d0 = math.sqrt(d), math.sqrt(p.d0)
    log_n0 = math.log(p.n0)
    if d < p.d0 or eps > p.eps0:
        return LbCurveResult(
            False, math.nan, math.nan, "outside", math.nan, math.nan, math.nan, math.nan
        )
    if eps >= p.eps0 * math.sqrt(p.d0 / d):
        regime, tau = "scaling", p.tau0 * p.eps0 / eps
        log_n = log_n0 + sqrt_d * (p.eps0 / eps) - sqrt_d0
    else:
        regime, tau = "monotone-fallback", p.tau0 * math.sqrt(d / p.d0)
        log_n = log_n0 + d / sqrt_d0 - sqrt_d0
    alpha, beta = scaled_band(p, tau)
    log_strong = math.log(p.nu) + tau * sqrt_d * math.log(2.0)
    return LbCurveResult(
        True, _exp_or_inf(log_n), log_n, regime, tau, alpha, beta, _exp_or_inf(log_strong)
    )
