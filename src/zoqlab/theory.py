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
Philox streams driving the production estimator, and every pass/fail
decision carries an explicit 3-standard-error margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.special import erfc

from .errors import DataError
from .numerics import normals_at  # noqa: F401  kept bound: perfbench/tracer.py patches it
from .zo import ParamView, ZoConfig, zo_gradient_scale

_SQRT2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(t):
    return np.exp(-np.square(t) / 2.0) / _SQRT2PI


def norm_sf(t):
    """Upper tail P(U >= t) via erfc, accurate far into the tail."""
    return 0.5 * erfc(np.asarray(t, dtype=np.float64) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Objectives and threshold geometry
# ---------------------------------------------------------------------------

@dataclass
class SmoothedObjective:
    """A base loss composed with a per-coordinate uniform quantizer.

    kind 'linear' is lipschitz * z[0]; 'quadratic' is 0.5 ||z||^2; 'custom'
    evaluates fn on (M, d) batches. quant_step 0 disables the quantizer.
    epsilon is the Gaussian smoothing radius.
    """

    kind: str
    dim: int
    epsilon: float
    quant_step: float = 0.0
    lipschitz: float = 1.0
    fn: object = None

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic", "custom"):
            raise DataError(f"unknown objective kind {self.kind!r}")
        if self.epsilon <= 0:
            raise DataError("smoothing radius must be positive")
        if self.kind == "custom" and self.fn is None:
            raise DataError("custom objective needs fn")

    def quantize(self, z):
        if self.quant_step == 0.0:
            return z
        return self.quant_step * np.rint(z / self.quant_step)

    def base_loss_batch(self, z):
        if self.kind == "linear":
            return self.lipschitz * z[..., 0]
        if self.kind == "quadratic":
            return 0.5 * np.sum(z * z, axis=-1)
        return self.fn(z)

    def loss_batch(self, points):
        return self.base_loss_batch(self.quantize(points))

    def loss(self, point) -> float:
        return float(self.loss_batch(np.asarray(point, dtype=np.float64)[None, :])[0])


def place_at_distance(quant_step: float, t: float, epsilon: float, cell: int = 0) -> float:
    """1-D point whose nearest-threshold distance is exactly t * epsilon.

    Thresholds of the round-to-nearest quantizer sit on the midpoint grid
    step * (k + 1/2).
    """
    r = t * epsilon
    if r > quant_step / 2 + 1e-15:
        raise DataError(
            f"t*eps = {r} exceeds half a quantizer cell ({quant_step / 2}); unreachable"
        )
    return quant_step * (cell + 0.5) - r


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


def zo_formula_gap(obj: SmoothedObjective, w, estimates: int, seed: int = 0) -> float:
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
    return gap


# ---------------------------------------------------------------------------
# Mean-squared-error bound
# ---------------------------------------------------------------------------

def mse_bound(G: float, d: int, q: int, quant_step: float, epsilon: float) -> float:
    """The stated second-moment bound, instantiated symbolically."""
    return (2 * G * G * d * (d + 2) + (G * G * quant_step**2 * d * d) / (2 * epsilon**2)) / q


@dataclass
class MseBoundCheck:
    d: int
    q: int
    quant_step: float
    epsilon: float
    empirical_mse: float
    bound: float
    trials: int
    passed: bool


def check_mse_bound(
    obj: SmoothedObjective, w, q: int, trials: int, seed: int = 0, oracle_samples: int = 400_000
) -> MseBoundCheck:
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
    empirical = total / trials
    bound = mse_bound(obj.lipschitz, d, q, obj.quant_step, obj.epsilon)
    return MseBoundCheck(
        d=d,
        q=q,
        quant_step=obj.quant_step,
        epsilon=obj.epsilon,
        empirical_mse=empirical,
        bound=bound,
        trials=trials,
        passed=empirical <= bound,
    )


def mse_q_scaling_slope(
    obj: SmoothedObjective, w, qs, trials: int, seed: int = 0, oracle_samples: int = 400_000
) -> tuple[list[MseBoundCheck], float]:
    """MSE at each q plus the log-log slope (should sit near -1)."""
    checks = [
        check_mse_bound(obj, w, q, trials, seed=seed + 7 * q, oracle_samples=oracle_samples)
        for q in qs
    ]
    xs = np.log([c.q for c in checks])
    ys = np.log([c.empirical_mse for c in checks])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return checks, slope


# ---------------------------------------------------------------------------
# Gaussian tail identities
# ---------------------------------------------------------------------------

@dataclass
class TailIdentities:
    t: float
    analytic: tuple[float, float, float]
    quadrature: tuple[float, float, float]

    @property
    def max_abs_diff(self) -> float:
        return max(abs(a - b) for a, b in zip(self.analytic, self.quadrature))


def gaussian_tail_identities(t: float) -> TailIdentities:
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
    return TailIdentities(t=t, analytic=analytic, quadrature=quad)


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


@dataclass
class GradDecayRow:
    t: float
    mc_norm: float
    se: float
    bound: float
    passed: bool


def check_grad_decay(
    G: float, quant_step: float, epsilon: float, t_grid, samples: int, seed: int = 0
) -> list[GradDecayRow]:
    """MC |grad f_eps| at each t against the decay bound plus 3 SE."""
    rows = []
    for i, t in enumerate(t_grid):
        w = place_at_distance(quant_step, t, epsilon)
        obj = SmoothedObjective(
            "linear", dim=1, epsilon=epsilon, quant_step=quant_step, lipschitz=G
        )
        est = oracle_grad_smoothed(obj, [w], samples, seed=seed + 13 * i, form="antithetic")
        bound = grad_decay_bound(G, quant_step, epsilon, t)
        rows.append(
            GradDecayRow(
                t=float(t),
                mc_norm=est.norm,
                se=float(est.se[0]),
                bound=bound,
                passed=est.norm <= bound + 3 * float(est.se[0]),
            )
        )
    return rows


@dataclass
class SteBiasCheck:
    t: float
    ste_expectation: float
    oracle_grad: float
    oracle_se: float
    measured_bias: float
    lower_bound: float
    decay_bound: float
    passed: bool | None  # None when the bound is vacuous (report only)


def check_ste_bias(
    G: float, quant_step: float, epsilon: float, t: float, samples: int, seed: int = 0
) -> SteBiasCheck:
    """Bias of the straight-through surrogate against the smoothed gradient, 1-D.

    For the linear loss with identity surrogate the surrogate's expectation
    is exactly G; the smoothed gradient is MC-estimated at a point t
    normalized cell-distances from the nearest threshold.
    """
    if t == 0:
        w = quant_step * 0.5  # on a threshold; the lower bound is vacuous there
        bound = -math.inf
    else:
        w = place_at_distance(quant_step, t, epsilon)
        bound = G - grad_decay_bound(G, quant_step, epsilon, t)
    obj = SmoothedObjective("linear", dim=1, epsilon=epsilon, quant_step=quant_step, lipschitz=G)
    est = oracle_grad_smoothed(obj, [w], samples, seed=seed, form="antithetic")
    measured = abs(G - float(est.grad[0]))
    se = float(est.se[0])
    passed = None if t == 0 else bool(measured >= bound - 3 * se)
    return SteBiasCheck(
        t=float(t),
        ste_expectation=G,
        oracle_grad=float(est.grad[0]),
        oracle_se=se,
        measured_bias=measured,
        lower_bound=bound,
        decay_bound=grad_decay_bound(G, quant_step, epsilon, t) if t > 0 else math.inf,
        passed=passed,
    )


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

@dataclass
class CheckRow:
    name: str
    config: str
    measured: float
    reference: float
    margin: float
    passed: bool | None

    def line(self) -> str:
        status = "PASS" if self.passed else ("INFO" if self.passed is None else "FAIL")
        return (
            f"[{status}] {self.name} ({self.config}): measured={self.measured:.6g} "
            f"reference={self.reference:.6g} margin={self.margin:.3g}"
        )


@dataclass
class VerificationReport:
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)

    def text(self) -> str:
        lines = [r.line() for r in self.rows]
        verdict = "ALL CHECKS PASSED" if self.passed else "SOME CHECKS FAILED"
        return "\n".join(lines + [verdict])

    def csv_rows(self):
        yield ("name", "config", "measured", "reference", "margin", "passed")
        for r in self.rows:
            yield (
                r.name,
                r.config,
                repr(r.measured),
                repr(r.reference),
                repr(r.margin),
                "" if r.passed is None else str(r.passed),
            )


def check_unbiasedness(
    obj: SmoothedObjective,
    w,
    estimates: int,
    oracle_samples: int,
    seed: int = 0,
    estimator=None,
) -> CheckRow:
    """Mean of two-point estimates vs the score-function oracle, componentwise 3 SE.

    estimator defaults to the antithetic sampler sharing the production
    formula; passing a different callable (the mutation-test hook) must make
    the check fail.
    """
    if estimator is None:
        estimator = lambda o, point, m, s: oracle_grad_smoothed(o, point, m, seed=s, form="antithetic")
    est = estimator(obj, w, estimates, seed + 1)
    ref = oracle_grad_smoothed(obj, w, oracle_samples, seed=seed + 2, form="score")
    combined = np.sqrt(est.se**2 + ref.se**2)
    ratios = np.abs(est.grad - ref.grad) / np.maximum(combined, 1e-300)
    worst = float(np.max(ratios))
    return CheckRow(
        name="zo_unbiasedness",
        config=f"kind={obj.kind} d={obj.dim} step={obj.quant_step} eps={obj.epsilon}",
        measured=worst,
        reference=3.0,
        margin=3.0 - worst,
        passed=bool(worst <= 3.0),
    )


def run_verification(quick: bool = False, seed: int = 0) -> VerificationReport:
    """The full proposition suite; every row carries its margin."""
    report = VerificationReport()
    est_n = 20_000 if quick else 100_000
    oracle_n = 100_000 if quick else 400_000
    trials = 1000 if quick else 2000
    tail_n = 1_000_000 if quick else 10_000_000

    # estimator == formula on shared streams
    obj0 = SmoothedObjective("quadratic", dim=8, epsilon=1e-2, quant_step=0.1, lipschitz=4.0)
    w8 = np.linspace(-0.61, 0.77, 8)
    gap = zo_formula_gap(obj0, w8, estimates=256, seed=seed)
    report.rows.append(
        CheckRow(
            name="zo_matches_two_point_formula",
            config="d=8 quadratic step=0.1",
            measured=gap,
            reference=1e-9,
            margin=1e-9 - gap,
            passed=bool(gap <= 1e-9),
        )
    )

    # unbiasedness on linear and quadratic losses, quantizer off and on
    for ki, kind in enumerate(("linear", "quadratic")):
        for step in (0.0, 0.1):
            obj = SmoothedObjective(kind, dim=8, epsilon=1e-2, quant_step=step, lipschitz=1.0)
            report.rows.append(
                check_unbiasedness(
                    obj, w8, est_n, oracle_n, seed=seed + 50 * ki + int(step * 10) + 101
                )
            )

    # oracle self-consistency: score vs antithetic forms
    obj_sc = SmoothedObjective("linear", dim=4, epsilon=1e-2, quant_step=0.1, lipschitz=1.0)
    w4 = np.array([0.04, -0.03, 0.11, 0.27])
    a = oracle_grad_smoothed(obj_sc, w4, oracle_n, seed=seed + 5, form="antithetic")
    b = oracle_grad_smoothed(obj_sc, w4, oracle_n, seed=seed + 6, form="score")
    worst = float(np.max(np.abs(a.grad - b.grad) / np.sqrt(a.se**2 + b.se**2)))
    report.rows.append(
        CheckRow(
            name="oracle_self_consistency",
            config="d=4 linear step=0.1",
            measured=worst,
            reference=3.0,
            margin=3.0 - worst,
            passed=bool(worst <= 3.0),
        )
    )

    # MSE bound grid and 1/q scaling
    for d in (1, 2, 4):
        w = np.linspace(0.05, 0.35, d)
        for q in (1, 4, 16):
            obj = SmoothedObjective("linear", dim=d, epsilon=1e-2, quant_step=0.0, lipschitz=1.0)
            chk = check_mse_bound(obj, w, q, trials, seed=seed + d * 31 + q)
            report.rows.append(
                CheckRow(
                    name="zo_mse_bound",
                    config=f"d={d} q={q} step=0",
                    measured=chk.empirical_mse,
                    reference=chk.bound,
                    margin=chk.bound - chk.empirical_mse,
                    passed=chk.passed,
                )
            )
    obj_q = SmoothedObjective("linear", dim=2, epsilon=1e-3, quant_step=0.1, lipschitz=1.0)
    chk = check_mse_bound(obj_q, [0.04, 0.21], 1, trials, seed=seed + 77)
    report.rows.append(
        CheckRow(
            name="zo_mse_bound",
            config="d=2 q=1 step=0.1 eps=1e-3",
            measured=chk.empirical_mse,
            reference=chk.bound,
            margin=chk.bound - chk.empirical_mse,
            passed=chk.passed,
        )
    )
    obj_s = SmoothedObjective("quadratic", dim=4, epsilon=1e-2, quant_step=0.0, lipschitz=4.0)
    _, slope = mse_q_scaling_slope(
        obj_s, np.linspace(-0.4, 0.5, 4), (1, 2, 4, 8, 16), trials, seed=seed + 303
    )
    report.rows.append(
        CheckRow(
            name="zo_mse_q_scaling_slope",
            config="q in {1,2,4,8,16}",
            measured=slope,
            reference=-1.0,
            margin=0.15 - abs(slope + 1.0),
            passed=bool(abs(slope + 1.0) <= 0.15),
        )
    )

    # Gaussian tail identities and Mills' bound
    for t in (0.0, 0.5, 1.0, 2.0, 5.0):
        ident = gaussian_tail_identities(t)
        report.rows.append(
            CheckRow(
                name="gaussian_tail_identities",
                config=f"t={t}",
                measured=ident.max_abs_diff,
                reference=1e-10,
                margin=1e-10 - ident.max_abs_diff,
                passed=bool(ident.max_abs_diff <= 1e-10),
            )
        )
    ts = np.linspace(1e-3, 10.0, 2000)
    worst_gap = float(np.min(mills_bound_gap(ts)))
    report.rows.append(
        CheckRow(
            name="mills_bound",
            config="t in (0, 10]",
            measured=worst_gap,
            reference=0.0,
            margin=worst_gap,
            passed=bool(worst_gap >= 0.0),
        )
    )

    # gradient decay away from thresholds
    rows = check_grad_decay(1.0, 0.1, 1e-2, (2.0, 3.0, 5.0), tail_n, seed=seed + 42)
    for r in rows:
        report.rows.append(
            CheckRow(
                name="grad_decay_bound",
                config=f"t={r.t} step/eps=10",
                measured=r.mc_norm,
                reference=r.bound + 3 * r.se,
                margin=r.bound + 3 * r.se - r.mc_norm,
                passed=r.passed,
            )
        )
    decay_lo = check_grad_decay(1.0, 0.1, 5e-3, (2.0,), tail_n, seed=seed + 43)[0]
    decay_hi = check_grad_decay(1.0, 0.1, 5e-3, (6.0,), tail_n, seed=seed + 44)[0]
    sep = decay_lo.mc_norm - decay_hi.mc_norm - 3 * (decay_lo.se + decay_hi.se)
    report.rows.append(
        CheckRow(
            name="grad_decay_monotone",
            config="t=6 below t=2",
            measured=decay_hi.mc_norm,
            reference=decay_lo.mc_norm,
            margin=sep,
            passed=bool(sep > 0),
        )
    )

    # straight-through bias
    ste = check_ste_bias(1.0, 0.1, 1e-2, t=5.0, samples=tail_n, seed=seed + 99)
    report.rows.append(
        CheckRow(
            name="ste_bias_lower_bound",
            config="G=1 step/eps=10 t=5",
            measured=ste.measured_bias,
            reference=ste.lower_bound,
            margin=ste.measured_bias - (ste.lower_bound - 3 * ste.oracle_se),
            passed=ste.passed,
        )
    )
    report.rows.append(
        CheckRow(
            name="ste_bias_absolute",
            config="G=1 step/eps=10 t=5",
            measured=ste.measured_bias,
            reference=0.99,
            margin=ste.measured_bias - 0.99,
            passed=bool(ste.measured_bias >= 0.99),
        )
    )
    t_star = min_t_for_bias(0.1, 1e-2, 0.1)
    ste9 = check_ste_bias(1.0, 0.1, 1e-2, t=t_star, samples=tail_n, seed=seed + 100)
    report.rows.append(
        CheckRow(
            name="ste_bias_target",
            config=f"delta=0.1 t*={t_star:.4f}",
            measured=ste9.measured_bias,
            reference=0.9,
            margin=ste9.measured_bias - 0.9 + 3 * ste9.oracle_se,
            passed=bool(ste9.measured_bias >= 0.9 - 3 * ste9.oracle_se),
        )
    )
    return report
