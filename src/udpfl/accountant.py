"""Privacy accounting for user-level DP federated training.

The mechanism under analysis releases a vector perturbed with Gaussian noise
of std ``sigma`` while each client participates in a round with probability
``q``.  On adjacent local datasets the released value differs by at most the
sensitivity ``dl``, so one output coordinate is distributed either as the
base Gaussian ``N(0, sigma^2)`` or as the mixture
``q*N(dl, sigma^2) + (1-q)*N(0, sigma^2)``.

This module provides:

* the closed-form log-moment bound used for calibration (``moment_bound``),
* exact moments of the privacy loss in both directions (``moment_numeric``),
  computed via a binomial sum in log-space and via adaptive quadrature, so
  the bound and the ordering between the two directions can be validated
  numerically,
* noise calibration for a fixed round budget (``calibrate_sigma``) and
  recalibration when the budget shrinks mid-training
  (``recalibrate_sigma``), with an explicit ``BudgetExhausted`` error,
* a convergence-bound evaluator and ``MomentLedger``, the one per-client
  privacy record that recalibration and the decay baseline's halt both read,
* the report tables as lists of row dicts: ``verify_accountant`` (both
  directed moments against the bound on four standard panels),
  ``calibration_table`` and ``moment_table``; the CLI writes them as CSV.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, special

from . import ConfigError

# Moment directions: the privacy loss can be measured with the mixture in the
# numerator (the direction the binomial sum computes) or the base Gaussian in
# the numerator (no closed form; quadrature only).
D_MIX_BASE = "mix||base"
D_BASE_MIX = "base||mix"

_DIRECTIONS = (D_MIX_BASE, D_BASE_MIX)

# Upward bias applied to recalibrated sigmas: one part in 1e14 keeps the
# accumulated inverse-variance ledger strictly inside the budget under IEEE
# rounding even for schedules that saturate it exactly.  The bias is far
# below every consistency tolerance used elsewhere (1e-12 relative).
_LEDGER_GUARD = 1e-14


class BudgetExhausted(RuntimeError):
    """The privacy budget cannot fund another round at any finite sigma."""


class QuadratureError(RuntimeError):
    """Numeric moment integration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class MechanismParams:
    """Parameters of one round of the sampled Gaussian mechanism.

    q: per-round participation probability, in (0, 1].
    sigma: noise std, > 0.
    sensitivity: max L2 change of the released value on adjacent shards, >= 0.
    lam: positive integer moment order.
    """

    q: float
    sigma: float
    sensitivity: float
    lam: int

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.sensitivity < 0.0:
            raise ValueError(f"sensitivity must be >= 0, got {self.sensitivity}")
        if int(self.lam) != self.lam or self.lam < 1:
            raise ValueError(f"lam must be a positive integer, got {self.lam}")


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-client (epsilon, delta) target."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        v = []
        if not self.epsilon > 0.0:
            v.append(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            v.append(f"delta must be in (0, 1), got {self.delta}")
        if v:
            raise ConfigError(v)


def sensitivity(eta: float, clip: float, n_samples: int) -> float:
    """L2 sensitivity of one full-batch clipped gradient step: 2*eta*clip/n.

    Replacing one of ``n_samples`` per-sample gradients, each clipped to norm
    ``clip`` and averaged with weight ``eta/n_samples``, moves the updated
    parameters by at most ``2*eta*clip/n_samples``.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if clip <= 0.0:
        raise ValueError(f"clip must be > 0, got {clip}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return 2.0 * eta * clip / n_samples


def _half_snr(m: MechanismParams) -> float:
    # dl^2 / (2 sigma^2), the basic exponent scale of all moment formulas.
    return m.sensitivity * m.sensitivity / (2.0 * m.sigma * m.sigma)


def regime_ratio(m: MechanismParams) -> float:
    """lam*dl^2/(2*sigma^2); the closed-form bound is trusted when << 1.

    Callers compare against the documented validity cutoff 0.1.
    """
    return m.lam * _half_snr(m)


def moment_bound(m: MechanismParams) -> float:
    """Closed-form log-moment bound q*lam*(lam+1)*dl^2/(2*sigma^2).

    Monotone nondecreasing in lam, q and sensitivity, nonincreasing in
    sigma.  Valid in the small ``regime_ratio`` regime; callers should
    inspect ``regime_ratio(m)`` before trusting it.
    """
    return m.q * (m.lam * (m.lam + 1)) * _half_snr(m)


def log_moment_numeric(m: MechanismParams, direction: str = D_MIX_BASE) -> float:
    """Exact log-moment of the privacy loss at integer order ``m.lam``.

    Direction ``mix||base`` is the order-(lam) moment of the likelihood
    ratio mixture/base under the base measure, equal to the binomial sum
    ``sum_l C(lam+1, l) (1-q)^(lam+1-l) q^l exp(l(l-1) dl^2/(2 sigma^2))``
    evaluated in log-space.  Direction ``base||mix`` has no closed form and
    is integrated numerically.
    """
    if direction == D_MIX_BASE:
        return _log_moment_binomial(m)
    if direction == D_BASE_MIX:
        return log_moment_quadrature(m, direction)
    raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


def moment_numeric(m: MechanismParams, direction: str = D_MIX_BASE) -> float:
    """Exact moment (not its log); see ``log_moment_numeric``."""
    return math.exp(log_moment_numeric(m, direction))


def _log_moment_binomial(m: MechanismParams) -> float:
    lam, q, x = m.lam, m.q, _half_snr(m)
    if x == 0.0:
        return 0.0
    if q == 1.0:
        # Only the l = lam+1 term survives; (lam+1)*lam matches the integer
        # product in moment_bound so the q=1 bound is met with equality.
        return (m.lam * (m.lam + 1)) * x
    ls = np.arange(lam + 2)
    log_binom = (
        special.gammaln(lam + 2)
        - special.gammaln(ls + 1)
        - special.gammaln(lam + 2 - ls)
    )
    log_terms = log_binom + (lam + 1 - ls) * math.log1p(-q) + ls * math.log(q)
    log_terms = log_terms + ls * (ls - 1) * x
    return float(special.logsumexp(log_terms))


def _log_integrand(z, m: MechanismParams, power: float):
    """log of base_pdf(z) * ratio(z)**power, vectorized over z."""
    s2 = m.sigma * m.sigma
    u = (2.0 * z - m.sensitivity) * m.sensitivity / (2.0 * s2)
    if m.q == 1.0:
        log_ratio = u
    else:
        log_ratio = np.logaddexp(math.log1p(-m.q), math.log(m.q) + u)
    log_pdf = -0.5 * math.log(2.0 * math.pi) - math.log(m.sigma) - z * z / (2.0 * s2)
    return log_pdf + power * log_ratio


def log_moment_quadrature(m: MechanismParams, direction: str = D_BASE_MIX) -> float:
    """Moment of either direction by stabilized adaptive quadrature.

    Serves as the only route for direction ``base||mix`` and as an
    independent cross-check of the binomial sum for ``mix||base``.  The
    integrand is shifted by its log-maximum before integration so the
    adaptive rule works on O(1) values; the window extends 20 sigma beyond
    every Gaussian center the integrand can concentrate at (tail mass
    beyond that is < 1e-80).  Raises ``QuadratureError`` if the estimated
    relative error exceeds 1e-10.
    """
    if direction == D_MIX_BASE:
        power = float(m.lam + 1)
    elif direction == D_BASE_MIX:
        power = float(-m.lam)
    else:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    if m.sensitivity == 0.0:
        return 0.0

    shift = power * m.sensitivity
    lo = min(0.0, shift, m.sensitivity) - 20.0 * m.sigma
    hi = max(0.0, shift, m.sensitivity) + 20.0 * m.sigma

    # Expanding the mixture power shows the integrand is a sum of Gaussian
    # bumps centered at integer multiples of the sensitivity between 0 and
    # ``shift``.  When those bumps are narrow relative to the window the
    # adaptive rule needs explicit breakpoints or it can step over them.
    lmin, lmax = min(0, math.floor(power)), max(0, math.ceil(power))
    centers = m.sensitivity * np.arange(lmin, lmax + 2, dtype=float)

    zs = np.linspace(lo, hi, 4001)
    peak = float(np.max(_log_integrand(zs, m, power)))
    peak = max(peak, float(np.max(_log_integrand(centers, m, power))))

    narrow_bumps = (hi - lo) / 4000.0 > 0.5 * m.sigma
    breakpoints = np.unique(np.clip(centers, lo, hi)) if narrow_bumps else None

    val, err = integrate.quad(
        lambda z: math.exp(_log_integrand(z, m, power) - peak),
        lo,
        hi,
        epsabs=0.0,
        epsrel=1e-12,
        limit=max(400, 4 * len(centers)),
        points=breakpoints,
    )
    if not math.isfinite(val) or val <= 0.0 or err > 1e-10 * val:
        raise QuadratureError(
            f"moment quadrature did not converge: direction={direction} "
            f"q={m.q} sigma={m.sigma} sensitivity={m.sensitivity} "
            f"lam={m.lam} value={val} abs_err={err}"
        )
    return peak + math.log(val)


def calibrate_sigma(b: PrivacyBudget, q: float, T: int, dl: float) -> float:
    """Noise std meeting budget ``b`` over ``T`` rounds: dl*sqrt(2qT ln(1/delta))/eps."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if int(T) != T or T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    if dl <= 0.0:
        raise ValueError(f"sensitivity must be > 0, got {dl}")
    return dl * math.sqrt(2.0 * q * T * math.log(1.0 / b.delta)) / b.epsilon


def inverse_variance_budget(b: PrivacyBudget, q: float, dl: float) -> float:
    """Total inverse variance eps^2/(2 q dl^2 ln(1/delta)) the budget can fund.

    A run is within budget iff the sum of 1/sigma_t^2 over its rounds stays
    at or below this constant; ``calibrate_sigma`` splits it evenly over T
    rounds and ``recalibrate_sigma`` spreads the remainder over what is left.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if dl <= 0.0:
        raise ValueError(f"sensitivity must be > 0, got {dl}")
    return b.epsilon * b.epsilon / (2.0 * q * dl * dl * math.log(1.0 / b.delta))


def recalibrate_sigma(
    b: PrivacyBudget,
    q: float,
    T_new: int,
    t: int,
    hist: Sequence[float],
    dl: float,
) -> float:
    """Noise std for the remaining ``T_new - t`` rounds given past spending.

    Returns ``sqrt((T_new - t) / (inverse_variance_budget - sum 1/hist^2))``.
    With an empty history this reduces to ``calibrate_sigma``; with an
    unchanged ``T_new`` and a history of its own outputs it keeps returning
    the same value, so a fixed-budget run has constant noise.  The result
    carries a +1e-14 relative bias so that the recorded inverse-variance
    ledger stays strictly inside the budget under float rounding.

    Raises ``BudgetExhausted`` when past rounds already consumed the budget
    (denominator <= 0): training must stop, noise is never silently clamped.
    """
    if t < 0 or t >= T_new:
        raise ValueError(f"need 0 <= t < T_new, got t={t} T_new={T_new}")
    if len(hist) != t:
        raise ValueError(f"history length {len(hist)} != completed rounds {t}")
    if any(s <= 0.0 for s in hist):
        raise ValueError("sigma history entries must be > 0")
    budget = inverse_variance_budget(b, q, dl)
    spent = math.fsum(1.0 / (s * s) for s in hist)
    remaining = budget - spent
    if remaining <= 0.0:
        raise BudgetExhausted(
            f"inverse-variance budget {budget:.6g} exhausted after {t} rounds "
            f"(spent {spent:.6g}); no sigma can fund round {t}"
        )
    return math.sqrt((T_new - t) / remaining) * (1.0 + _LEDGER_GUARD)


def implied_moment_order(b: PrivacyBudget, q: float, T: int, dl: float, sigma: float) -> float:
    """Diagnostic: the moment order the calibration implicitly optimizes,
    eps*sigma^2/(T*q*dl^2) - 1/2."""
    return b.epsilon * sigma * sigma / (T * q * dl * dl) - 0.5


def convergence_bound(
    T: int,
    U: int,
    K: int,
    budgets: Sequence[PrivacyBudget],
    mu: float,
    L_smooth: float,
    eta: float,
    eps_div: float,
    gap0: float,
    dl: float,
) -> float:
    """Upper bound on the optimality gap after T noisy federated rounds.

    With contraction factor ``A = 1 - 2 mu eta + mu eta^2 L`` the bound is

        A^T * gap0
        + (1 - A^T) * ( L^2 dl^2 / mu * T K / U^2 * sum_i ln(1/delta_i)/eps_i^2
                        + eta^2 L^2 eps_div / (2 mu) * U (U-K) / (K (U-1)) )

    where the first penalty charges the injected noise and the second the
    partial participation (it vanishes at K = U).  ``eps_div`` bounds the
    divergence between local and global gradients.  Requires eta <= 1/L.
    """
    if mu <= 0.0 or L_smooth <= 0.0:
        raise ValueError(f"mu and L must be > 0, got mu={mu} L={L_smooth}")
    if eta <= 0.0 or eta > 1.0 / L_smooth:
        raise ValueError(f"need 0 < eta <= 1/L = {1.0 / L_smooth}, got {eta}")
    if not 1 <= K <= U:
        raise ValueError(f"need 1 <= K <= U, got K={K} U={U}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if len(budgets) != U:
        raise ValueError(f"need one budget per client: {len(budgets)} != U={U}")

    A = 1.0 - 2.0 * mu * eta + mu * eta * eta * L_smooth
    k0 = L_smooth * L_smooth * dl * dl / mu
    k1 = eta * eta * L_smooth * L_smooth * eps_div / (2.0 * mu)
    budget_sum = math.fsum(
        math.log(1.0 / b.delta) / (b.epsilon * b.epsilon) for b in budgets
    )
    noise_term = k0 * T * K / (U * U) * budget_sum
    sampling_term = 0.0 if K == U else k1 * U * (U - K) / (K * (U - 1))
    contraction = A**T
    return contraction * gap0 + (1.0 - contraction) * (noise_term + sampling_term)


# the four standard verification panels: (label, q, local samples, U)
VERIFY_PANELS = (
    ("q0.9_d800_U50", 0.9, 800, 50),
    ("q0.1_d800_U50", 0.1, 800, 50),
    ("q0.9_d400_U50", 0.9, 400, 50),
    ("q0.9_d800_U200", 0.9, 800, 200),
)
VERIFY_SIGMA = 0.01
VERIFY_ETA = 0.05
VERIFY_CLIP = 1.0
REGIME_CUTOFF = 0.1


def _moments(m: MechanismParams) -> dict:
    """Both exact directed log-moments beside the closed-form bound; raises
    ``QuadratureError``."""
    return {
        "log_D10": log_moment_numeric(m, D_MIX_BASE),
        "log_D01": log_moment_numeric(m, D_BASE_MIX),
        "log_bound": moment_bound(m),
    }


def verify_accountant(lambdas=range(1, 101)) -> list:
    """Compare numeric moments against the closed-form bound on the four
    standard panels; returns one row dict per (panel, lambda).  A row whose
    quadrature failed carries ``error`` in place of the moments and flags."""
    rows = []
    for label, q, n_local, _U in VERIFY_PANELS:
        dl = sensitivity(VERIFY_ETA, VERIFY_CLIP, n_local)
        for lam in lambdas:
            m = MechanismParams(q=q, sigma=VERIFY_SIGMA, sensitivity=dl, lam=lam)
            ratio = regime_ratio(m)
            row = {
                "panel": label,
                "q": q,
                "sigma": VERIFY_SIGMA,
                "lambda": lam,
                "regime_ratio": ratio,
                "bound_checked": int(ratio < REGIME_CUTOFF),
            }
            try:
                row.update(_moments(m))
            except QuadratureError as exc:
                row["error"] = repr(exc)
            else:
                row.update(
                    ordering_violation=int(not row["log_D10"] >= row["log_D01"] - 1e-9),
                    bound_violation=int(
                        ratio < REGIME_CUTOFF and not row["log_bound"] >= row["log_D10"]
                    ),
                )
            rows.append(row)
    return rows


def calibration_table(epsilons, deltas, qs, Ts, sensitivities) -> list:
    """Cross-product noise-calibration table: one row dict per
    (epsilon, delta, q, T, sensitivity)."""
    return [
        {
            "epsilon": float(eps),
            "delta": float(delta),
            "q": float(q),
            "T": T,
            "sensitivity": float(dl),
            "sigma": calibrate_sigma(PrivacyBudget(eps, delta), q, T, dl),
        }
        for eps, delta, q, T, dl in itertools.product(epsilons, deltas, qs, Ts, sensitivities)
    ]


def moment_table(q, sigma, dl, lambdas) -> list:
    """One row dict per order: both directed log-moments and the bound."""
    rows = []
    for lam in lambdas:
        m = MechanismParams(q=q, sigma=sigma, sensitivity=dl, lam=lam)
        rows.append({"q": float(q), "sigma": float(sigma), "lambda": lam, **_moments(m)})
    return rows


class MomentLedger:
    """One client's privacy record: budget, ``q``, ``dl`` and the noise
    scale charged for each round, which ``recalibrate_sigma`` reads as the
    spent history.  The tail bound converts the composed log-moment
    ``S*lam*(lam+1)``, ``S = sum q*dl^2/(2 sigma^2)``, into the smallest
    achievable delta at a given epsilon by minimizing ``S*lam*(lam+1) -
    lam*eps`` over positive integer orders (the objective is quadratic in
    lam, so only the integer neighbors of its vertex need checking).
    """

    def __init__(self, budget: PrivacyBudget, q: float, dl: float) -> None:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if dl <= 0.0:
            raise ValueError(f"sensitivity must be > 0, got {dl}")
        self.budget = budget
        self.q = q
        self.dl = dl
        self.sigmas: list[float] = []

    def charge(self, sigma: float) -> None:
        if not sigma > 0.0:  # NaN too
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.sigmas.append(sigma)

    @property
    def rounds(self) -> int:
        return len(self.sigmas)

    def coefficient(self) -> float:
        num = self.q * self.dl * self.dl
        return math.fsum(num / (2.0 * s * s) for s in self.sigmas)

    def log_tail_delta(self, epsilon: float, extra_sigma: float | None = None) -> float:
        """log of the smallest delta certified at ``epsilon``; -inf if unspent.

        ``extra_sigma`` previews the value after one more round at that
        noise scale without mutating the ledger.
        """
        S = self.coefficient()
        if extra_sigma is not None:
            if extra_sigma <= 0.0:
                raise ValueError(f"sigma must be > 0, got {extra_sigma}")
            S += self.q * self.dl * self.dl / (2.0 * extra_sigma * extra_sigma)
        if S == 0.0:
            return -math.inf
        vertex = (epsilon - S) / (2.0 * S)
        candidates = {1, max(1, math.floor(vertex)), max(1, math.ceil(vertex))}
        return min(S * lam * (lam + 1) - lam * epsilon for lam in candidates)

    def within(self, extra_sigma: float | None = None) -> bool:
        """True iff the tail bound certifies the ledger's own budget."""
        return self.log_tail_delta(self.budget.epsilon, extra_sigma) <= math.log(self.budget.delta)
