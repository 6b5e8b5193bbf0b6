"""Concentration bounds driven by entropy-curve inversion.

The tail bound for a function with per-order energy ratios held below
beta(s) is

    P{ln f - ln ||f||_p >= r} <= exp{ n q I(p,q) - r q },
    I(p,q) = integral over s in [p,q] of phi_s(beta(s)) / s^2,

where phi_s inverts the order-s entropy curve of the underlying chain.
Two families are built in. The Gaussian (Ornstein-Uhlenbeck) family has
phi_s(t) = s^2 t / 2 exactly, so with beta = 1/n the optimized bound is the
classic piecewise form exp(-(r + p/2)^2 / 2) for r >= p/2 and exp(-p r)
below. The hypercube (Bonami-Beckner) family inverts the two-point closed
form at each order, with beta(s) = (e-1)(e^(s-1)-1)/(2(s-1)), which is
bounded by 2 on [0,2].

In w = atanh(2u) = (1/2) ln((1-y)/y) the order-q two-point curve reads

    F_q(w) = sinh(w/q) sinh((q-1)w/q) / ((q-1) cosh w),

which is w tanh w at q = 1 (no cancellation there) and rises to its
supremum F_sat = 1/(2(q-1)) for q > 1, where
F_sat - F_q(w) = cosh((2-q)w/q) / (2(q-1) cosh w). The inverse solves
ln F_q = ln t by Newton in ln w, or, once t >= F_sat/2, ln(F_sat - F_q) =
ln(F_sat - t) by Newton in w, where that gap is nearly linear; both keep a
bracket and bisect it when a step leaves it. The level is then
alpha = ln 2 - h((1 - tanh w)/2) (alpha_of_u at u = tanh(w)/2).

As s -> 0 its integrand phi_s(beta(s))/s^2 tends to the order-0 inverse
(order_zero_inverse) of beta(0), which the quadrature reads at s = 0.
For s >= 2 - ln(e-1) the level beta(s) exceeds the largest value
1/(2(s-1)) of the order-s curve and the inversion saturates at ln 2; the
quadrature splits at that order, where the integrand loses smoothness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sobolev import LN2, alpha_of_u

INF = float("inf")

QUAD_TOL = 1e-8
QUAD_MAX_DEPTH = 40

# golden-section search for the Chernoff order stops at this bracket width
Q_STAR_TOL = 1e-8

# above this order the binary constraint level exceeds the curve's range
SATURATION_ORDER = 2.0 - math.log(math.e - 1.0)

# Newton solve of the two-point inverse: cap on curve evaluations, and the
# step in ln w or w (relative once |w| > 1) below which the next iterate is
# the root to rounding
INVERSE_MAXITER = 60
INVERSE_STEP_TOL = 1e-9


class ConcentrationError(ValueError):
    pass


class QuadratureError(ConcentrationError):
    """Quadrature failed to meet its error budget."""


class InversionError(ConcentrationError):
    """Curve inversion did not converge within its iteration cap."""


def beta_binary(s) -> float:
    """Per-order energy-ratio ceiling of 1-Lipschitz cube functions."""
    s = float(s)
    if not (0.0 <= s <= 2.0):
        raise ConcentrationError(f"order {s} outside [0, 2]")
    if abs(s - 1.0) < 1e-9:
        # removable singularity, expand (e^(s-1)-1)/(s-1) around 1
        return 0.5 * (math.e - 1.0) * (1.0 + 0.5 * (s - 1.0))
    return (math.e - 1.0) * math.expm1(s - 1.0) / (2.0 * (s - 1.0))


def order_zero_inverse(t) -> float:
    """Unclamped inverse of the order-0 two-point curve in its level."""
    return math.acosh(1.0 + 2.0 * t) ** 2 / 8.0


def _ln_sinh(x):
    if x > 20.0:
        return x - LN2 + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x))


def _ln_cosh(x):
    if x > 20.0:
        return x - LN2 + math.log1p(math.exp(-2.0 * x))
    return math.log(math.cosh(x))


def _x_coth(x):
    """x coth x, with its limit 1 at x = 0."""
    return x / math.tanh(x) if x > 0.0 else 1.0


def _curve_ln_w(q, v):
    """ln F_q(w) and its slope d ln F_q / d ln w at w = e^v, order q > 0.

    sinh((q-1)w/q)/(q-1) is written (w/q) sinh(y)/y with y = |q-1| w/q, so
    the form is exact at q = 1 and loses nothing near it.
    """
    w = math.exp(v)
    x = w / q
    y = abs(q - 1.0) * x
    ln_sinhc = _ln_sinh(y) - math.log(y) if y > 0.0 else 0.0
    val = _ln_sinh(x) + v - math.log(q) + ln_sinhc - _ln_cosh(w)
    return val, _x_coth(x) + _x_coth(y) - w * math.tanh(w)


def _curve_gap_w(q, w):
    """ln(F_sat - F_q(w)) and its w-derivative, order q > 1.

    With a = |2-q|/q, ln cosh(aw) - ln cosh(w) is written as
    -(1-a) w + ln(1 + e^(-2aw)) - ln(1 + e^(-2w)), and 1 - a = 2 min(q-1, 1)/q
    directly, so nothing cancels at large w or near q = 1.
    """
    a = abs(2.0 - q) / q
    val = (-2.0 * min(q - 1.0, 1.0) / q * w
           + math.log1p(math.exp(-2.0 * a * w))
           - math.log1p(math.exp(-2.0 * w)) - math.log(2.0 * (q - 1.0)))
    return val, a * math.tanh(a * w) - math.tanh(w)


def _newton(f, x, target, lo, hi, increasing):
    """Root of f(x) = target for monotone f, from x inside (lo, hi).

    Every evaluation shrinks the bracket; a Newton step that leaves it is
    replaced by the bracket's midpoint. A step heads toward the root, so it
    never crosses an infinite end, and the midpoint is always finite.
    """
    for _ in range(INVERSE_MAXITER):
        val, slope = f(x)
        if val == target:
            return x
        if (val < target) == increasing:
            lo = x
        else:
            hi = x
        step = (target - val) / slope
        if abs(step) <= INVERSE_STEP_TOL * max(1.0, abs(x)):
            return x + step
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    raise InversionError(f"curve inversion did not converge in "
                         f"{INVERSE_MAXITER} steps")


def xi_inverse(q, t) -> float:
    """Entropy level alpha at which the order-q two-point curve reaches t.

    A bracketed Newton solve in w = atanh(2u), exact at order 0. Levels
    above the curve's range return ln 2, where the inversion saturates.
    InversionError if the solve does not converge.
    """
    t = float(t)
    if t < 0:
        raise ConcentrationError("level t must be nonnegative")
    if t == 0.0:
        return 0.0
    if q < 0:
        raise ConcentrationError("order q must be nonnegative")
    if q == 0:
        return min(LN2, order_zero_inverse(t))
    if q > 1.0:
        f_sat = 0.5 / (q - 1.0)
        if t >= f_sat:
            return LN2
        if t >= 0.5 * f_sat:
            # start where the gap's large-w line ln(F_sat) - (1 - a) w
            # meets the target
            target = math.log(f_sat - t)
            w0 = (math.log(f_sat) - target) * q / (2.0 * min(q - 1.0, 1.0))
            w = _newton(lambda w: _curve_gap_w(q, w), w0, target,
                        0.0, INF, increasing=False)
            return alpha_of_u(0.5 * math.tanh(w))
    # start from the order-0 limit F = sinh^2(w/q), also F ~ (w/q)^2 at
    # small w for every order
    v0 = math.log(q * math.asinh(math.sqrt(t)))
    v = _newton(lambda v: _curve_ln_w(q, v), v0, math.log(t),
                -INF, INF, increasing=True)
    return alpha_of_u(0.5 * math.tanh(math.exp(v)))


@dataclass(frozen=True)
class PhiFamily:
    """Curve inversion phi(s, t), its s -> 0 limit of phi/s^2, and interior
    orders where the integrand loses smoothness."""
    name: str
    phi: callable
    zero_limit: callable
    breakpoints: tuple = ()


GAUSSIAN_FAMILY = PhiFamily(
    "gaussian",
    phi=lambda s, t: 0.5 * s * s * t,
    zero_limit=lambda t: 0.5 * t,
)

BINARY_FAMILY = PhiFamily(
    "binary",
    phi=lambda s, t: xi_inverse(s, t),
    zero_limit=order_zero_inverse,
    breakpoints=(SATURATION_ORDER,),
)


def adaptive_simpson(f, a, b, tol=QUAD_TOL):
    """Recursive Simpson with Richardson correction -> (value, error bound)."""
    if b <= a:
        return 0.0, 0.0

    def rec(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        fl, fr = f(0.5 * (x0 + x1)), f(0.5 * (x1 + x2))
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * fr + f2)
        diff = left + right - whole
        if abs(diff) <= 15.0 * tol:
            return left + right + diff / 15.0, abs(diff) / 15.0
        if depth >= QUAD_MAX_DEPTH:
            raise QuadratureError("quadrature did not converge")
        vl, el = rec(x0, x1, f0, fl, f1, left, 0.5 * tol, depth + 1)
        vr, er = rec(x1, x2, f1, fr, f2, right, 0.5 * tol, depth + 1)
        return vl + vr, el + er

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, tol, 0)


def _family_integrand(family: PhiFamily, beta):
    def f(s):
        if s <= 0.0:
            return family.zero_limit(beta(0.0))
        return family.phi(s, beta(s)) / (s * s)
    return f


def _family_integral(family, beta, a, b, tol):
    if b <= a:
        return 0.0, 0.0
    cuts = [a] + [x for x in family.breakpoints if a < x < b] + [b]
    f = _family_integrand(family, beta)
    total = err = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        v, e = adaptive_simpson(f, lo, hi, tol / (len(cuts) - 1))
        total += v
        err += e
    return total, err


def upsilon_bound(p, q, beta, family: PhiFamily) -> float:
    """(qp/(q-p)) * integral of phi_s(beta(s))/s^2 over [p, q], p > 0.

    The p = 0 limit lives in concentration_bound, where the p-dependent
    prefactor cancels against the entropy normalization.
    """
    if not 0.0 < p < q:
        raise ConcentrationError("requires 0 < p < q")
    val, _ = _family_integral(family, beta, p, q, QUAD_TOL)
    return q * p / (q - p) * val


def _safe_exp(x):
    return math.exp(x) if x < 709.0 else INF


def concentration_bound(n, p, q, r, family: PhiFamily, beta,
                        log=False) -> float:
    """Tail bound exp{nq I(p,q) - rq} at a fixed Chernoff order q."""
    if n < 1:
        raise ConcentrationError("n must be >= 1")
    if not 0.0 <= p <= q:
        raise ConcentrationError("requires 0 <= p <= q")
    val, _ = _family_integral(family, beta, p, q, QUAD_TOL)
    logv = n * q * val - r * q
    return logv if log else _safe_exp(logv)


def gaussian_q_star(p, r) -> float:
    """Optimal Chernoff order for the Gaussian family, p/2 + r capped at p."""
    if p < 0:
        raise ConcentrationError("p must be nonnegative")
    return 0.5 * p + r if r >= 0.5 * p else p


def gaussian_bound(p, r) -> float:
    """Closed-form optimized Gaussian tail, piecewise at r = p/2."""
    if p < 0:
        raise ConcentrationError("p must be nonnegative")
    if r >= 0.5 * p:
        return math.exp(-0.5 * (r + 0.5 * p) ** 2)
    return math.exp(-p * r)


def standard_cube_baseline(n, p, r) -> float:
    """Tail bound from the standard log-Sobolev route, piecewise at r = np."""
    if r >= n * p:
        return math.exp(-n * (r / (2.0 * n) + 0.5 * p) ** 2)
    return math.exp(-p * r)


@dataclass(frozen=True)
class BoundReport:
    n: int
    p: float
    r: float
    q_star: float
    log_bound: float
    bound: float
    baseline: float
    quad_error: float
    saturated: bool


def hypercube_bound(n, p, r, grid_size=64) -> BoundReport:
    """Optimized cube tail bound: inf over q in [p, 2] of the order-q bound.

    Cumulative quadrature along a bracketing grid, then golden-section
    inside the best bracket. The reported bound is unclamped and may
    exceed 1 (e.g. whenever r <= 0).
    """
    if not 0.0 <= p <= 2.0:
        raise ConcentrationError("p must lie in [0, 2]")
    if n < 1:
        raise ConcentrationError("n must be >= 1")
    quad_err = 0.0

    if p == 2.0:
        logv = -2.0 * r
        return BoundReport(n, p, r, 2.0, logv, _safe_exp(logv),
                           standard_cube_baseline(n, p, r), 0.0, True)

    qs = np.linspace(p, 2.0, grid_size)
    cum = np.zeros(grid_size)
    seg_tol = QUAD_TOL / (2 * grid_size)
    for i in range(grid_size - 1):
        v, e = _family_integral(BINARY_FAMILY, beta_binary,
                                qs[i], qs[i + 1], seg_tol)
        cum[i + 1] = cum[i] + v
        quad_err += e

    def exponent(q):
        nonlocal quad_err
        k = int(np.searchsorted(qs, q, side="right")) - 1
        k = min(max(k, 0), grid_size - 2)
        v, e = _family_integral(BINARY_FAMILY, beta_binary, qs[k], q, seg_tol)
        quad_err += e
        return n * q * (cum[k] + v) - r * q

    grid_vals = n * qs * cum - r * qs
    k0 = int(np.argmin(grid_vals))
    lo = qs[max(k0 - 1, 0)]
    hi = qs[min(k0 + 1, grid_size - 1)]
    # golden-section shrink of the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = exponent(x1), exponent(x2)
    while hi - lo > Q_STAR_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = exponent(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = exponent(x2)
    q_star = 0.5 * (lo + hi)
    logv = min(exponent(q_star), grid_vals[k0])
    if logv == grid_vals[k0]:
        q_star = float(qs[k0])
    if quad_err > QUAD_TOL:
        raise QuadratureError("accumulated quadrature error above "
                              "tolerance")
    return BoundReport(n, float(p), float(r), float(q_star), logv,
                       _safe_exp(logv), standard_cube_baseline(n, p, r),
                       quad_err, bool(q_star > SATURATION_ORDER))
