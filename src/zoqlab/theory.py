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

The zo_unbiasedness rows check the two-point formula through an antithetic
sampler, not through zo_gradient_scale, which would cost about 14x as much
per row: a quick row (20,000 estimates at d = 8, then the 100,000-sample
oracle) took 25 ms, and 355 ms with its estimates drawn 16 directions to a
zo_gradient_scale step (470 ms at one direction per step; 2-CPU VM, 1 BLAS
thread). They reach the production estimator by composition (ESTIMATOR_LINK):
the zo_matches_two_point_formula row pins zo_gradient_scale's coefficient
to that formula on the production streams, each drawn again from its stream
id rather than read back from the view, and tier-1 tests pin the draws:
normals_at's moments and streams, and ParamView.direction's zero mean and
identity covariance across steps.

The oracles' memory is bounded. The Monte-Carlo oracle reduces each chunk of
samples in blocks of at most _BLOCK_FLOATS floats, with the bytes of the
whole-chunk sum at dimension 2 or more and within a few ulps of it at
dimension 1 (see oracle_grad_smoothed). The quadrature oracle is a fixed
Gauss-Legendre rule in numpy (tail_quadrature). No command loads
scipy.integrate, which would add about 25 MiB of resident memory and 0.3 s
to every process that imported it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, erfcinv

from .errors import DataError
from .numerics import normals_at
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

# The composition the module docstring describes; every report ends with it.
ESTIMATOR_LINK = (
    "note: zo_unbiasedness checks the two-point formula; zo_matches_two_point_formula pins the "
    "production coefficient to it on shared draws, and the normals_at and ParamView.direction "
    "tests pin the draws"
)


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
        return "\n".join(lines + [ESTIMATOR_LINK, verdict])

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
            return self.lipschitz * z.T[0]  # a scalar for a 1-D point, where z[..., 0] is a 0-d array
        return 0.5 * np.add.reduce(z * z, axis=-1)  # np.sum's reduction without its Python wrapper

    def loss_batch(self, points):
        return self.base_loss_batch(self.quantize(points))

    def loss(self, point) -> float:
        """loss_batch of the one point, evaluated on it directly with the same bytes."""
        return float(self.loss_batch(np.asarray(point, dtype=np.float64)))


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


# Samples per chunk, and floats per block of a chunk; see oracle_grad_smoothed.
_CHUNK = 1 << 17
_BLOCK_FLOATS = 1 << 15


def oracle_grad_smoothed(
    obj: SmoothedObjective, w, samples: int, seed: int = 0, form: str = "antithetic"
) -> OracleEstimate:
    """Brute-force MC estimate of the smoothed gradient with componentwise SEs.

    form 'score' averages (U/eps) * [L(Q(w + eps U)) - L(Q(w))]; the
    subtracted constant leaves the mean untouched (E[U] = 0) and tames the
    variance. form 'antithetic' averages the symmetric two-point difference
    quotient times U, the same formula the production estimator uses.

    Samples are summed in chunks of _CHUNK. Each chunk is drawn and reduced
    in blocks of at most _BLOCK_FLOATS floats, so a call holds
    O(_BLOCK_FLOATS) floats whatever the sample count; the sums carried from
    a chunk's earlier blocks are added to the first row of the next block's
    terms and squares. numpy sums axis 0 of a C-contiguous (m, dim) array
    row by row when dim >= 2, and PCG64 draws are sequential, so the result
    has the bytes of one block per chunk. An (m, 1) column is summed
    pairwise instead, so at dim 1 the blocked sum differs from the
    whole-chunk sum in the last few bits.
    """
    if samples < 1000:
        raise DataError("oracle needs at least 1e3 samples")
    if form not in ("score", "antithetic"):
        raise DataError(f"unknown oracle form {form!r}")
    w = np.asarray(w, dtype=np.float64)
    rng = np.random.default_rng(seed)
    d = obj.dim
    block = max(1, _BLOCK_FLOATS // d)
    s1 = np.zeros(d)
    s2 = np.zeros(d)
    base = obj.loss(w)
    done = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        sums = None
        for lo in range(0, m, block):
            u = rng.normal(size=(min(block, m - lo), d))
            sums = _block_sums(obj, w, base, form, u, sums)
        s1 += sums[0]
        s2 += sums[1]
        done += m
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean * mean, 0.0)
    return OracleEstimate(grad=mean, se=np.sqrt(var / samples), samples=samples)


def _block_sums(obj: SmoothedObjective, w, base: float, form: str, u, carried):
    """Column sums of the terms and squares of the block drawn in u, continuing carried's.

    A function of its own, so that no array of a block outlives it.
    """
    lp = obj.loss_batch(w + obj.epsilon * u)
    if form == "score":
        terms = ((lp - base) / obj.epsilon)[:, None] * u
    else:
        lm = obj.loss_batch(w - obj.epsilon * u)
        terms = ((lp - lm) / (2 * obj.epsilon))[:, None] * u
    squares = terms * terms
    if carried is not None:
        terms[0] += carried[0]
        squares[0] += carried[1]
    return terms.sum(axis=0), squares.sum(axis=0)


def _worst_z(a: OracleEstimate, b: OracleEstimate) -> float:
    """Largest componentwise |a - b| in units of their combined standard error."""
    combined = np.sqrt(a.se**2 + b.se**2)
    return float(np.max(np.abs(a.grad - b.grad) / np.maximum(combined, 1e-300)))


def zo_formula_gap(obj: SmoothedObjective, w, estimates: int, seed: int = 0) -> CheckRow:
    """Max |zo coefficient - directly recomputed coefficient| over shared streams.

    Pins the production estimator to the two-point formula on identical
    perturbation draws; zero up to float round-off when correct. u is drawn
    here from the stream id the estimate names, not read back from the view
    that perturbed the parameters, so a view that draws the wrong stream
    shows a gap.
    """
    theta = np.asarray(w, dtype=np.float64).copy()
    view = ParamView([("weights", theta)])
    cfg = ZoConfig(epsilon=obj.epsilon, directions=1, steps=estimates, seed=seed, lr_weights=0.0)
    w0 = np.asarray(w, dtype=np.float64)
    gap = 0.0
    for j in range(estimates):
        (direction,) = zo_gradient_scale(lambda: obj.loss(theta), view, cfg, step=j)
        u = normals_at(seed, direction.stream_id, 0, obj.dim)
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
) -> CheckRow:
    """Mean of two-point estimates vs the score-function oracle, componentwise Z SE.

    The two-point estimates come from the antithetic sampler, which shares
    the production formula.
    """
    est = oracle_grad_smoothed(obj, w, estimates, seed=seed + 1, form="antithetic")
    ref = oracle_grad_smoothed(obj, w, oracle_samples, seed=seed + 2, form="score")
    config = f"kind={obj.kind} d={obj.dim} step={obj.quant_step} eps={obj.epsilon} {_FAMILY}"
    return _at_most("zo_unbiasedness", config, _worst_z(est, ref), Z)


_W8 = np.linspace(-0.61, 0.77, 8)


def unbiasedness_rows(seed: int, estimates: int, oracle_samples: int):
    """The suite's zo_unbiasedness rows: linear and quadratic losses, quantizer off and on."""
    return [
        check_unbiasedness(
            SmoothedObjective(kind, dim=8, epsilon=1e-2, quant_step=step),
            _W8,
            estimates,
            oracle_samples,
            seed=seed + 50 * ki + int(step * 10) + 101,
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
    obj: SmoothedObjective, w, q: int, trials: int, oracle_samples: int, seed: int = 0
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
            u = view.direction(direction.stream_id)
            u *= direction.coefficient
            g += u
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
    obj: SmoothedObjective, w, qs, trials: int, oracle_samples: int, seed: int = 0
) -> CheckRow:
    """Log-log slope of the MSE against q, which should sit within 0.15 of -1."""
    mses = [
        check_mse_bound(obj, w, q, trials, oracle_samples, seed + 7 * q).measured for q in qs
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

# Unit panels of the tail quadrature, on [t, t + _TAIL_PANELS]; phi(t + 40)
# < 1e-300, so the truncated tail is below float64 resolution of the integrals.
_TAIL_PANELS = 40


def tail_closed_forms(t: float) -> tuple[float, float, float]:
    """E[|U| 1{|U|>=t}], E[U^2 1{|U|>=t}] and P(|U|>=t), from phi and erfc."""
    return (
        2.0 * float(norm_pdf(t)),
        2.0 * (t * float(norm_pdf(t)) + float(norm_sf(t))),
        2.0 * float(norm_sf(t)),
    )


def tail_quadrature(t: float, nodes: int = 32) -> tuple[float, float, float]:
    """tail_closed_forms' three integrals by Gauss-Legendre quadrature of phi.

    A nodes-point rule on each of _TAIL_PANELS unit panels of [t, t + 40].
    It integrates phi = exp(-u^2/2)/sqrt(2 pi) directly and uses no erfc, so
    it is independent of the closed forms it checks. numpy.polynomial is
    imported here, not at module level, so that no command pays for it at
    import even where scipy.special does not load it already.
    """
    from numpy.polynomial.legendre import leggauss

    x, weights = leggauss(nodes)
    u = t + np.arange(_TAIL_PANELS)[:, None] + 0.5 * (x + 1.0)
    panel_weights = 0.5 * weights
    phi = norm_pdf(u)
    return tuple(2.0 * float(np.sum(f * panel_weights)) for f in (u * phi, u * u * phi, phi))


def gaussian_tail_identities(t: float) -> CheckRow:
    """E[|U| 1{|U|>=t}], E[U^2 1{|U|>=t}], P(|U|>=t): closed form vs quadrature.

    The row measures the largest of the three differences between
    tail_closed_forms and tail_quadrature; a correct closed form sits within
    rounding of the quadrature, far under the 1e-10 limit.
    """
    if t < 0:
        raise DataError("tail threshold must be nonnegative")
    diff = max(abs(a - b) for a, b in zip(tail_closed_forms(t), tail_quadrature(t)))
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
        rows += [check_mse_bound(obj, w, q, trials, oracle_n, seed=seed + d * 31 + q) for q in (1, 4, 16)]
    # coordinate 0 one eps below a threshold, so that +-eps probes cross it
    obj_q = SmoothedObjective("linear", dim=2, epsilon=1e-3, quant_step=0.1)
    w_q = [place_at_distance(0.1, 1.0, 1e-3), 0.21]
    rows.append(check_mse_bound(obj_q, w_q, 1, trials, oracle_n, seed=seed + 77))
    obj_s = SmoothedObjective("quadratic", dim=4, epsilon=1e-2, lipschitz=4.0)
    w_s = np.linspace(-0.4, 0.5, 4)
    rows.append(mse_q_scaling_slope(obj_s, w_s, (1, 2, 4, 8, 16), trials, oracle_n, seed=seed + 303))

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
