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
form at each order, by one bisection in u = 1/2 - y, with
beta(s) = (e-1)(e^(s-1)-1)/(2(s-1)), which is bounded by 2 on [0,2].

As s -> 0 its integrand phi_s(beta(s))/s^2 tends to the order-0 inverse
(order_zero_inverse) of beta(0), which the quadrature reads at s = 0.
For s >= 2 - ln(e-1) the level beta(s) exceeds the largest value
1/(2(s-1)) of the order-s curve and the inversion saturates at ln 2; the
quadrature splits at that order, where the integrand loses smoothness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sobolev import (LN2, SampledCurve, alpha_of_u, binary_xi_y,
                      bisect_half)

INF = float("inf")

QUAD_TOL = 1e-8
QUAD_MAX_DEPTH = 40

# above this order the binary constraint level exceeds the curve's range
SATURATION_ORDER = 2.0 - math.log(math.e - 1.0)


class ConcentrationError(ValueError):
    pass


class QuadratureError(ConcentrationError):
    """Quadrature failed to meet its error budget."""


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


def xi_inverse(q, t, curve: SampledCurve = None) -> float:
    """Entropy level alpha at which the order-q curve reaches t.

    Closed-form two-point curve by default (one bisection in u = 1/2 - y,
    exact at order 0); a sampled convex-envelope curve inverts by linear
    interpolation. Levels above the curve's range return the right endpoint,
    where the inversion saturates.
    """
    t = float(t)
    if t < 0:
        raise ConcentrationError("level t must be nonnegative")
    if t == 0.0:
        return 0.0
    if curve is not None:
        if curve.kind != "conv_xi_q":
            raise ConcentrationError("sampled inversion expects a "
                                     "convex-envelope curve")
        vals, grid = curve.values, curve.grid
        if t >= vals[-1]:
            return float(grid[-1])
        keep = np.concatenate(([0], 1 + np.flatnonzero(np.diff(vals) > 0)))
        return float(np.interp(t, vals[keep], grid[keep]))
    if q < 0:
        raise ConcentrationError("order q must be nonnegative")
    if q == 0:
        return min(LN2, order_zero_inverse(t))
    if t >= binary_xi_y(q, 0.0):
        return LN2
    return alpha_of_u(bisect_half(lambda u: binary_xi_y(q, 0.5 - u), t))


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


def adaptive_simpson(f, a, b, tol=QUAD_TOL, max_depth=QUAD_MAX_DEPTH):
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
        if depth >= max_depth:
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


def upsilon_bound(p, q, beta, family: PhiFamily, tol=QUAD_TOL) -> float:
    """(qp/(q-p)) * integral of phi_s(beta(s))/s^2 over [p, q], p > 0.

    The p = 0 limit lives in concentration_bound, where the p-dependent
    prefactor cancels against the entropy normalization.
    """
    if not 0.0 < p < q:
        raise ConcentrationError("requires 0 < p < q")
    val, _ = _family_integral(family, beta, p, q, tol)
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

    @property
    def clamped(self):
        return min(1.0, self.bound)


def hypercube_bound(n, p, r, grid_size=64, q_tol=1e-8) -> BoundReport:
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
    while hi - lo > q_tol:
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
