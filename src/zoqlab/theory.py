"""Numerical verification of the zeroth-order estimator theory.

Checks, against independent Monte-Carlo and quadrature oracles:
  * the two-point estimator is unbiased for the gradient of the
    Gaussian-smoothed quantized objective;
  * its mean squared error obeys (1/q) [2 G^2 d (d+2) + G^2 step^2 d^2 / (2 eps^2)]
    and scales like 1/q;
  * the one-dimensional Gaussian tail identities and Mills' bound;
  * the smoothed gradient decays like
    (G/sqrt(2 pi)) (step/eps + 2 t + 2/t) exp(-t^2/2) away from quantizer
    thresholds, which makes the straight-through surrogate's expectation
    (exactly G for a linear loss) an Omega(G) bias there.

Oracles draw from numpy's PCG64 generator, a different substrate than the
Philox streams driving the production estimator. Every check returns one
CheckRow whose reference is the limit it is held to. A limit with a
standard-error term allows Z standard errors, where Z spreads the family-wise
false-alarm rate ALPHA over all FAMILY_SIZE such comparisons in the suite; the
row's config records both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.special import erfc, erfcinv

from .errors import DataError
from .numerics import normals_at  # noqa: F401  kept bound: perfbench/tracer.py patches it
from .zo import ParamView, ZoConfig, zo_gradient_scale

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Chance that a correct implementation fails any standard-error comparison of
# run_verification. There are FAMILY_SIZE of them: 32 components in the four
# zo_unbiasedness rows, 4 in oracle_self_consistency, and one each in the three
# grad_decay_bound rows, grad_decay_monotone, ste_bias_lower_bound and
# ste_bias_target. The Sidak correction gives each a two-sided rate of
# 1 - (1 - ALPHA)^(1/FAMILY_SIZE); Z is the normal quantile at that rate.
ALPHA = 0.01
FAMILY_SIZE = 42
Z = math.sqrt(2.0) * float(erfcinv(1.0 - (1.0 - ALPHA) ** (1.0 / FAMILY_SIZE)))
_FAMILY = f"alpha={ALPHA} z={Z:.4g}"


def norm_pdf(t):
    return np.exp(-np.square(t) / 2.0) / _SQRT2PI


def norm_sf(t):
    """Upper tail P(U >= t) via erfc, accurate far into the tail."""
    return 0.5 * erfc(np.asarray(t, dtype=np.float64) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Report rows
# ---------------------------------------------------------------------------

@dataclass
class CheckRow:
    name: str
    config: str
    measured: float
    reference: float
    margin: float
    passed: bool

    def line(self) -> str:
        return (
            f"[{'PASS' if self.passed else 'FAIL'}] {self.name} ({self.config}): "
            f"measured={self.measured:.6g} reference={self.reference:.6g} margin={self.margin:.3g}"
        )


@dataclass
class VerificationReport:
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def text(self) -> str:
        lines = [r.line() for r in self.rows]
        verdict = "ALL CHECKS PASSED" if self.passed else "SOME CHECKS FAILED"
        return "\n".join(lines + [verdict])

    def csv_rows(self):
        yield ("name", "config", "measured", "reference", "margin", "passed")
        for r in self.rows:
            numbers = (repr(r.measured), repr(r.reference), repr(r.margin))
            yield (r.name, r.config, *numbers, str(r.passed))


def _at_most(name: str, config: str, measured: float, limit: float) -> CheckRow:
    return CheckRow(name, config, measured, limit, limit - measured, bool(measured <= limit))


def _at_least(name: str, config: str, measured: float, limit: float) -> CheckRow:
    return CheckRow(name, config, measured, limit, measured - limit, bool(measured >= limit))


# ---------------------------------------------------------------------------
# Objectives and threshold geometry
# ---------------------------------------------------------------------------

@dataclass
class SmoothedObjective:
    """A base loss composed with a per-coordinate uniform quantizer.

    kind 'linear' is lipschitz * z[0]; 'quadratic' is 0.5 ||z||^2.
    quant_step 0 disables the quantizer. epsilon is the Gaussian smoothing
    radius.
    """

    kind: str
    dim: int
    epsilon: float
    quant_step: float = 0.0
    lipschitz: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise DataError(f"unknown objective kind {self.kind!r}")
        if self.epsilon <= 0:
            raise DataError("smoothing radius must be positive")

    def quantize(self, z):
        if self.quant_step == 0.0:
            return z
        return self.quant_step * np.rint(z / self.quant_step)

    def base_loss_batch(self, z):
        if self.kind == "linear":
            return self.lipschitz * z[..., 0]
        return 0.5 * np.sum(z * z, axis=-1)

    def loss_batch(self, points):
        return self.base_loss_batch(self.quantize(points))

    def loss(self, point) -> float:
        return float(self.loss_batch(np.asarray(point, dtype=np.float64)[None, :])[0])


def place_at_distance(quant_step: float, t: float, epsilon: float) -> float:
    """1-D point whose nearest-threshold distance is exactly t * epsilon.

    Thresholds of the round-to-nearest quantizer sit on the midpoint grid
    step * (k + 1/2); the point lies just below the one at step / 2.
    """
    r = t * epsilon
    if r > quant_step / 2 + 1e-15:
        raise DataError(
            f"t*eps = {r} exceeds half a quantizer cell ({quant_step / 2}); unreachable"
        )
    return quant_step * 0.5 - r


# ---------------------------------------------------------------------------
# Monte-Carlo gradient oracles
# ---------------------------------------------------------------------------

@dataclass
class OracleEstimate:
    grad: np.ndarray
    se: np.ndarray
    samples: int

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.grad))


_CHUNK = 1 << 17


def oracle_grad_smoothed(
    obj: SmoothedObjective, w, samples: int, seed: int = 0, form: str = "antithetic"
) -> OracleEstimate:
    """Brute-force MC estimate of the smoothed gradient with componentwise SEs.

    form 'score' averages (U/eps) * [L(Q(w + eps U)) - L(Q(w))]; the
    subtracted constant leaves the mean untouched (E[U] = 0) and tames the
    variance. form 'antithetic' averages the symmetric two-point difference
    quotient times U, the same formula the production estimator uses.
    """
    if samples < 1000:
        raise DataError("oracle needs at least 1e3 samples")
    if form not in ("score", "antithetic"):
        raise DataError(f"unknown oracle form {form!r}")
    w = np.asarray(w, dtype=np.float64)
    rng = np.random.default_rng(seed)
    d = obj.dim
    s1 = np.zeros(d)
    s2 = np.zeros(d)
    base = obj.loss(w)
    done = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        u = rng.normal(size=(m, d))
        lp = obj.loss_batch(w + obj.epsilon * u)
        if form == "score":
            terms = ((lp - base) / obj.epsilon)[:, None] * u
        else:
            lm = obj.loss_batch(w - obj.epsilon * u)
            terms = ((lp - lm) / (2 * obj.epsilon))[:, None] * u
        s1 += terms.sum(axis=0)
        s2 += (terms * terms).sum(axis=0)
        done += m
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean * mean, 0.0)
    return OracleEstimate(grad=mean, se=np.sqrt(var / samples), samples=samples)


def _worst_z(a: OracleEstimate, b: OracleEstimate) -> float:
    """Largest componentwise |a - b| in units of their combined standard error."""
    combined = np.sqrt(a.se**2 + b.se**2)
    return float(np.max(np.abs(a.grad - b.grad) / np.maximum(combined, 1e-300)))


def zo_formula_gap(obj: SmoothedObjective, w, estimates: int, seed: int = 0) -> CheckRow:
    """Max |zo coefficient - directly recomputed coefficient| over shared streams.

    Pins the production estimator to the two-point formula on identical
    perturbation draws; zero up to float round-off when correct.
    """
    theta = np.asarray(w, dtype=np.float64).copy()
    view = ParamView([("weights", theta)])
    cfg = ZoConfig(epsilon=obj.epsilon, directions=1, steps=estimates, seed=seed, lr_weights=0.0)
    w0 = np.asarray(w, dtype=np.float64)
    gap = 0.0
    for j in range(estimates):
        (direction,) = zo_gradient_scale(lambda: obj.loss(theta), view, cfg, step=j)
        u = view.direction(cfg.seed, direction.stream_id, cfg.chunk_size)
        direct = (obj.loss(w0 + obj.epsilon * u) - obj.loss(w0 - obj.epsilon * u)) / (
            2 * obj.epsilon
        )
        gap = max(gap, abs(direction.coefficient - direct))
    config = f"d={obj.dim} {obj.kind} step={obj.quant_step}"
    return _at_most("zo_matches_two_point_formula", config, gap, 1e-9)


def check_unbiasedness(
    obj: SmoothedObjective,
    w,
    estimates: int,
    oracle_samples: int,
    seed: int = 0,
    estimator=None,
) -> CheckRow:
    """Mean of two-point estimates vs the score-function oracle, componentwise Z SE.

    estimator defaults to the antithetic sampler sharing the production
    formula; passing a different callable (the mutation-test hook) must make
    the check fail.
    """
    if estimator is None:
        estimator = lambda o, point, m, s: oracle_grad_smoothed(o, point, m, seed=s, form="antithetic")
    est = estimator(obj, w, estimates, seed + 1)
    ref = oracle_grad_smoothed(obj, w, oracle_samples, seed=seed + 2, form="score")
    config = f"kind={obj.kind} d={obj.dim} step={obj.quant_step} eps={obj.epsilon} {_FAMILY}"
    return _at_most("zo_unbiasedness", config, _worst_z(est, ref), Z)


_W8 = np.linspace(-0.61, 0.77, 8)


def unbiasedness_rows(seed: int, estimates: int, oracle_samples: int, estimator=None):
    """The suite's zo_unbiasedness rows: linear and quadratic losses, quantizer off and on."""
    return [
        check_unbiasedness(
            SmoothedObjective(kind, dim=8, epsilon=1e-2, quant_step=step),
            _W8,
            estimates,
            oracle_samples,
            seed=seed + 50 * ki + int(step * 10) + 101,
            estimator=estimator,
        )
        for ki, kind in enumerate(("linear", "quadratic"))
        for step in (0.0, 0.1)
    ]


# ---------------------------------------------------------------------------
# Mean-squared-error bound
# ---------------------------------------------------------------------------

def mse_bound(G: float, d: int, q: int, quant_step: float, epsilon: float) -> float:
    """The stated second-moment bound, instantiated symbolically."""
    return (2 * G * G * d * (d + 2) + (G * G * quant_step**2 * d * d) / (2 * epsilon**2)) / q


def check_mse_bound(
    obj: SmoothedObjective, w, q: int, trials: int, seed: int = 0, oracle_samples: int = 400_000
) -> CheckRow:
    """Empirical MSE of the q-direction zo estimator against the MC oracle."""
    if trials < 1000:
        raise DataError("check_mse_bound needs at least 1e3 trials")
    ref = oracle_grad_smoothed(obj, w, oracle_samples, seed=seed + 901, form="antithetic")
    theta = np.asarray(w, dtype=np.float64).copy()
    view = ParamView([("weights", theta)])
    cfg = ZoConfig(epsilon=obj.epsilon, directions=q, steps=trials, seed=seed, lr_weights=0.0)
    d = obj.dim
    total = 0.0
    for j in range(trials):
        directions = zo_gradient_scale(lambda: obj.loss(theta), view, cfg, step=j)
        g = np.zeros(d)
        for direction in directions:
            u = view.direction(cfg.seed, direction.stream_id, cfg.chunk_size)
            g += direction.coefficient * u
        g /= q
        diff = g - ref.grad
        total += float(diff @ diff)
    # eps enters the bound only through step / eps
    config = f"d={d} q={q} step={obj.quant_step:g}"
    if obj.quant_step:
        config += f" eps={obj.epsilon:g}"
    bound = mse_bound(obj.lipschitz, d, q, obj.quant_step, obj.epsilon)
    return _at_most("zo_mse_bound", config, total / trials, bound)


def mse_q_scaling_slope(
    obj: SmoothedObjective, w, qs, trials: int, seed: int = 0, oracle_samples: int = 400_000
) -> CheckRow:
    """Log-log slope of the MSE against q, which should sit within 0.15 of -1."""
    mses = [
        check_mse_bound(obj, w, q, trials, seed + 7 * q, oracle_samples).measured for q in qs
    ]
    slope = float(np.polyfit(np.log(qs), np.log(mses), 1)[0])
    return CheckRow(
        name="zo_mse_q_scaling_slope",
        config="q in {" + ",".join(map(str, qs)) + "}",
        measured=slope,
        reference=-1.0,
        margin=0.15 - abs(slope + 1.0),
        passed=bool(abs(slope + 1.0) <= 0.15),
    )


# ---------------------------------------------------------------------------
# Gaussian tail identities
# ---------------------------------------------------------------------------

def gaussian_tail_identities(t: float) -> CheckRow:
    """E[|U| 1{|U|>=t}], E[U^2 1{|U|>=t}], P(|U|>=t): closed form vs quadrature."""
    if t < 0:
        raise DataError("tail threshold must be nonnegative")
    analytic = (
        2.0 * float(norm_pdf(t)),
        2.0 * (t * float(norm_pdf(t)) + float(norm_sf(t))),
        2.0 * float(norm_sf(t)),
    )
    quad = tuple(
        2.0 * integrate.quad(f, t, np.inf, epsabs=1e-13, epsrel=1e-13)[0]
        for f in (
            lambda u: u * norm_pdf(u),
            lambda u: u * u * norm_pdf(u),
            lambda u: norm_pdf(u),
        )
    )
    diff = max(abs(a - b) for a, b in zip(analytic, quad))
    return _at_most("gaussian_tail_identities", f"t={t}", diff, 1e-10)


def mills_bound_gap(t) -> np.ndarray:
    """phi(t)/t - (1 - Phi(t)); nonnegative wherever Mills' bound holds."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0):
        raise DataError("Mills' bound needs t > 0")
    return norm_pdf(t) / t - norm_sf(t)


# ---------------------------------------------------------------------------
# Gradient decay and straight-through bias
# ---------------------------------------------------------------------------

def grad_decay_bound(G: float, quant_step: float, epsilon: float, t: float) -> float:
    """Upper bound on |grad f_eps| at normalized threshold distance t (1-D)."""
    if t <= 0:
        raise DataError("gradient decay bound needs t > 0")
    return (G / _SQRT2PI) * (quant_step / epsilon + 2 * t + 2 / t) * math.exp(-t * t / 2)


def _grad_at_distance(
    G: float, quant_step: float, epsilon: float, t: float, samples: int, seed: int
) -> OracleEstimate:
    """MC smoothed gradient of the quantized 1-D linear loss G z, t eps from a threshold."""
    obj = SmoothedObjective("linear", dim=1, epsilon=epsilon, quant_step=quant_step, lipschitz=G)
    w = place_at_distance(quant_step, t, epsilon)
    return oracle_grad_smoothed(obj, [w], samples, seed=seed, form="antithetic")


def check_grad_decay(
    G: float, quant_step: float, epsilon: float, t_grid, samples: int, seed: int = 0
) -> list[CheckRow]:
    """MC |grad f_eps| at each t against the decay bound plus Z SE."""
    rows = []
    for i, t in enumerate(t_grid):
        est = _grad_at_distance(G, quant_step, epsilon, t, samples, seed + 13 * i)
        limit = grad_decay_bound(G, quant_step, epsilon, t) + Z * float(est.se[0])
        config = f"t={float(t)} step/eps={quant_step / epsilon:g} {_FAMILY}"
        rows.append(_at_most("grad_decay_bound", config, est.norm, limit))
    return rows


def grad_decay_monotone_row(seed: int, samples: int) -> CheckRow:
    """|grad f_eps| 4 eps from a threshold below its value 2 eps from it, less Z SE.

    The far side sits where +-eps probes still cross the threshold (|U| >= 4,
    probability 6e-5), so both sides are measured: at 6 eps a crossing has
    probability 2e-9, and `verify --quick` read exactly 0 there.
    """
    lo = _grad_at_distance(1.0, 0.1, 5e-3, 2.0, samples, seed + 43)
    hi = _grad_at_distance(1.0, 0.1, 5e-3, 4.0, samples, seed + 44)
    limit = lo.norm - Z * float(lo.se[0] + hi.se[0])
    return _at_most("grad_decay_monotone", f"t=4 below t=2 {_FAMILY}", hi.norm, limit)


def check_ste_bias(
    G: float, quant_step: float, epsilon: float, t: float, samples: int, seed: int = 0
) -> CheckRow:
    """Bias of the straight-through surrogate against the smoothed gradient, 1-D.

    For the linear loss with identity surrogate the surrogate's expectation
    is exactly G; the smoothed gradient is MC-estimated at a point t
    normalized cell-distances from the nearest threshold. The bias must reach
    G minus the decay bound, less Z SE.
    """
    est = _grad_at_distance(G, quant_step, epsilon, t, samples, seed)
    limit = G - grad_decay_bound(G, quant_step, epsilon, t) - Z * float(est.se[0])
    config = f"G={G:g} step/eps={quant_step / epsilon:g} t={t:g} {_FAMILY}"
    return _at_least("ste_bias_lower_bound", config, abs(G - float(est.grad[0])), limit)


def min_t_for_bias(quant_step: float, epsilon: float, delta_target: float) -> float:
    """Smallest t with bias >= (1 - delta_target) G, by fixed-point iteration."""
    if not 0 < delta_target < 1:
        raise DataError("delta_target must be in (0, 1)")
    t = 3.0
    for _ in range(200):
        inner = (quant_step / epsilon + 2 * t + 2 / t) / (_SQRT2PI * delta_target)
        t_new = math.sqrt(2 * math.log(inner))
        if abs(t_new - t) < 1e-12:
            return t_new
        t = t_new
    return t


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def run_verification(quick: bool = False, seed: int = 0) -> VerificationReport:
    """The full proposition suite; every row carries its margin."""
    est_n = 20_000 if quick else 100_000
    oracle_n = 100_000 if quick else 400_000
    trials = 1000 if quick else 2000
    tail_n = 1_000_000 if quick else 10_000_000

    # estimator == formula on shared streams; unbiasedness
    obj0 = SmoothedObjective("quadratic", dim=8, epsilon=1e-2, quant_step=0.1, lipschitz=4.0)
    rows = [zo_formula_gap(obj0, _W8, estimates=256, seed=seed)]
    rows += unbiasedness_rows(seed, est_n, oracle_n)

    # oracle self-consistency: score vs antithetic forms
    obj_sc = SmoothedObjective("linear", dim=4, epsilon=1e-2, quant_step=0.1)
    w4 = np.array([0.04, -0.03, 0.11, 0.27])
    a = oracle_grad_smoothed(obj_sc, w4, oracle_n, seed=seed + 5, form="antithetic")
    b = oracle_grad_smoothed(obj_sc, w4, oracle_n, seed=seed + 6, form="score")
    config = f"d=4 linear step=0.1 {_FAMILY}"
    rows.append(_at_most("oracle_self_consistency", config, _worst_z(a, b), Z))

    # MSE bound grid and 1/q scaling
    for d in (1, 2, 4):
        obj, w = SmoothedObjective("linear", dim=d, epsilon=1e-2), np.linspace(0.05, 0.35, d)
        rows += [check_mse_bound(obj, w, q, trials, seed=seed + d * 31 + q) for q in (1, 4, 16)]
    # coordinate 0 one eps below a threshold, so that +-eps probes cross it
    obj_q = SmoothedObjective("linear", dim=2, epsilon=1e-3, quant_step=0.1)
    w_q = [place_at_distance(0.1, 1.0, 1e-3), 0.21]
    rows.append(check_mse_bound(obj_q, w_q, 1, trials, seed=seed + 77))
    obj_s = SmoothedObjective("quadratic", dim=4, epsilon=1e-2, lipschitz=4.0)
    w_s = np.linspace(-0.4, 0.5, 4)
    rows.append(mse_q_scaling_slope(obj_s, w_s, (1, 2, 4, 8, 16), trials, seed=seed + 303))

    # Gaussian tail identities and Mills' bound
    rows += [gaussian_tail_identities(t) for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
    worst_gap = float(np.min(mills_bound_gap(np.linspace(1e-3, 10.0, 2000))))
    rows.append(_at_least("mills_bound", "t in (0, 10]", worst_gap, 0.0))

    # gradient decay away from thresholds
    rows += check_grad_decay(1.0, 0.1, 1e-2, (2.0, 3.0, 5.0), tail_n, seed=seed + 42)
    rows.append(grad_decay_monotone_row(seed, tail_n))

    # straight-through bias; at t* the lower bound is (1 - delta) G
    ste = check_ste_bias(1.0, 0.1, 1e-2, t=5.0, samples=tail_n, seed=seed + 99)
    rows.append(ste)
    rows.append(_at_least("ste_bias_absolute", "G=1 step/eps=10 t=5", ste.measured, 0.99))
    t_star = min_t_for_bias(0.1, 1e-2, 0.1)
    ste9 = check_ste_bias(1.0, 0.1, 1e-2, t=t_star, samples=tail_n, seed=seed + 100)
    ste9.name, ste9.config = "ste_bias_target", f"delta=0.1 t*={t_star:.4f} {_FAMILY}"
    rows.append(ste9)
    return VerificationReport(rows)
