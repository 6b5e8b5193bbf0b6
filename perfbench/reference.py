"""Reference computations the benchmark checks rslab's outputs against.

Nothing here calls rslab's solvers. The two-point curve, its inverse, the
tail exponent and the extremal rates are computed from their own formulas;
witness re-evaluation goes through `semigroup.dirichlet_form` (the carre du
champ route) and `entropy.renyi_divergence`, not through the generator-action
kernel the optimizer scores with.

The two-point curve is parametrized by u = 1/2 - y in [0, 1/2]:

    alpha(u) = ln 2 - h(1/2 - u),
    value    = (y expm1(-delta) + (1 - y) expm1(delta)) / (2 (1 - q)),
    delta    = rho (1 - q) / q,   rho = ln((1 - y)/y) = 2 atanh(2u),

which is the closed form (1 - y^{1/q}(1-y)^{1/q'} - y^{1/q'}(1-y)^{1/q}) /
(2(q-1)) rewritten so that neither small u (small alpha) nor q near 1 or 0
cancels. alpha(u) uses the series sum_k (2u)^{2k} / (2k(2k-1)) near u = 0,
where ln 2 - h(y) computed directly loses every digit.
"""

import functools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, logsumexp

LN2 = math.log(2.0)
# above this order the binary energy ceiling exceeds the curve's range
SATURATION_ORDER = 2.0 - math.log(math.e - 1.0)


# ---------------------------------------------------------------------------
# two-point curve


def kl_gap(u):
    """ln 2 - h(1/2 - u) for u in [0, 1/2]."""
    x = 2.0 * u
    if x < 0.5:
        x2 = x * x
        term, total, k = x2, 0.0, 1
        while True:
            add = term / (2 * k * (2 * k - 1))
            total += add
            if add <= 1e-18 * total:
                return total
            term *= x2
            k += 1
    y = 0.5 - u
    if y <= 0.0:
        return LN2
    return LN2 + y * math.log(y) + (1.0 - y) * math.log1p(-y)


def _u_of_alpha(alpha):
    if alpha <= 0.0:
        return 0.0
    if alpha >= LN2:
        return 0.5
    return brentq(lambda u: kl_gap(u) - alpha, 0.0, 0.5, xtol=1e-300,
                  rtol=8.9e-16, maxiter=500)


def curve_at_u(q, u):
    """Order-q two-point curve value at parameter u (q > 0)."""
    y = 0.5 - u
    if u <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0 / (2.0 * (q - 1.0)) if q > 1.0 else math.inf
    rho = 2.0 * math.atanh(2.0 * u) if u < 0.25 else math.log((1.0 - y) / y)
    if q == 1.0:
        return u * rho
    delta = rho * (1.0 - q) / q
    if delta > 700.0:
        return math.inf
    if -delta > 30.0:
        first = math.exp(math.log(y) - delta) - y
    else:
        first = y * math.expm1(-delta)
    return (first + (1.0 - y) * math.expm1(delta)) / (2.0 * (1.0 - q))


def two_point_xi(q, alpha):
    """Two-point chain (flip rate 1/2) curve at order q and level alpha."""
    if alpha <= 0.0:
        return 0.0
    if q == 0.0:
        # -E(D, 1/D) = (cosh s - 1)/2 with |ln(D_1/D_0)| = s = 2 sqrt(2 alpha)
        return 0.5 * math.expm1(2.0 * math.sqrt(2.0 * alpha)) ** 2 \
            / (2.0 * math.exp(2.0 * math.sqrt(2.0 * alpha)))
    return curve_at_u(q, _u_of_alpha(alpha))


def two_point_inverse(s, t):
    """Level alpha at which the order-s two-point curve reaches t; ln 2 once
    t is at or above the curve's largest value."""
    if t <= 0.0:
        return 0.0
    if s > 1.0 and t >= 1.0 / (2.0 * (s - 1.0)):
        return LN2

    def f(u):
        v = curve_at_u(s, u)
        return (v if v < 1e300 else 1e300) - t

    return kl_gap(brentq(f, 0.0, 0.5, xtol=1e-300, rtol=8.9e-16, maxiter=500))


def lower_hull(x, y):
    """Greatest convex minorant of the points (x, y), x increasing,
    evaluated at x."""
    hull = []
    for px, py in zip(x, y):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (px - x1) >= (py - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((px, py))
    hx, hy = zip(*hull)
    return np.interp(x, hx, hy)


@functools.lru_cache(maxsize=None)
def convex_minorant(q, points=2048):
    """Greatest convex minorant of the two-point curve, sampled on a uniform
    grid of [0, ln 2]: (grid, values) for np.interp."""
    grid = np.linspace(0.0, LN2, points + 1)
    return grid, lower_hull(grid, [two_point_xi(q, a) for a in grid])


# ---------------------------------------------------------------------------
# hypercube tail exponent


def energy_ceiling(s):
    """beta(s) = (e - 1)(e^{s-1} - 1) / (2 (s - 1))."""
    if s == 1.0:
        return 0.5 * (math.e - 1.0)
    return (math.e - 1.0) * math.expm1(s - 1.0) / (2.0 * (s - 1.0))


def tail_integrand(s):
    if s <= 0.0:
        return math.acosh(1.0 + 2.0 * energy_ceiling(0.0)) ** 2 / 8.0
    return two_point_inverse(s, energy_ceiling(s)) / (s * s)


@functools.lru_cache(maxsize=None)
def tail_integral(p, q):
    """I(p, q) = int_p^q phi_s(beta(s)) / s^2 ds, split at the saturation
    order."""
    if q <= p:
        return 0.0
    cuts = [p] + [c for c in (SATURATION_ORDER,) if p < c < q] + [q]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        v, _ = quad(tail_integrand, lo, hi, epsabs=1e-14, epsrel=1e-13,
                    limit=200)
        total += v
    return total


def tail_exponent(n, p, r, q):
    """n q I(p, q) - r q."""
    return n * q * tail_integral(p, q) - r * q


def cube_baseline(n, p, r):
    """Tail bound of the standard log-Sobolev route."""
    if r >= n * p:
        return math.exp(-n * (r / (2.0 * n) + 0.5 * p) ** 2)
    return math.exp(-p * r)


# ---------------------------------------------------------------------------
# method of types on the binary cube (flip rate 1/2 per coordinate)


def _weight_law(n):
    k = np.arange(n + 1)
    logmult = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return k, logmult - n * LN2          # log pi^n(weight = k)


def _rates_from_weight_density(n, dens, p, q):
    """(ent_rate, dirichlet_rate) of the density D(k) of Q_n w.r.t. the
    uniform law, as a function of the Hamming weight k."""
    k, logw = _weight_law(n)
    gamma = p / q
    pos = dens > 0
    with np.errstate(divide="ignore"):
        logd = np.log(dens)
    if gamma == 0:
        ent = -logsumexp(logw[pos])
    elif gamma == 1:
        ent = float(np.sum(np.exp(logw[pos] + logd[pos]) * logd[pos]))
    else:
        ent = logsumexp(logw[pos] + gamma * logd[pos]) / (gamma - 1.0)
    # E(f, g) = sum_k C(n,k)(n-k) 2^{-n-1} (f(k+1)-f(k))(g(k+1)-g(k))
    qp = q / (q - 1.0)
    f = dens ** (1.0 / q)
    g = dens ** (1.0 / qp)
    edges = np.exp(logw[:-1] + np.log(n - k[:-1]) - LN2)
    energy = float(np.sum(edges * np.diff(f) * np.diff(g))) / (q - 1.0)
    return ent / n, energy / n


def dirac_mixture_rates(n, p, q, eps, beta):
    """Rates of (1 - e^{-n beta}) pi^n(. | T_eps) + e^{-n beta} delta_{0^n}."""
    k, logw = _weight_law(n)
    typical = np.abs(k / n - 0.5) <= eps * 0.5 + 1e-12
    mass = float(np.exp(logsumexp(logw[typical])))
    w = math.exp(-n * beta)
    dens = np.where(typical, (1.0 - w) / mass, 0.0)
    dens[0] += w * 2.0 ** n              # 0^n is the only string of weight 0
    return _rates_from_weight_density(n, dens, p, q)


def conditional_typical_rates(n, p, q, eps, Q):
    """Rates of Q^n(. | T_eps(Q)) for a binary Q = (Q_0, Q_1)."""
    k, logw = _weight_law(n)
    Q0, Q1 = Q
    emp1 = k / n
    typical = ((np.abs((1.0 - emp1) - Q0) <= eps * Q0 + 1e-12)
               & (np.abs(emp1 - Q1) <= eps * Q1 + 1e-12))
    # log Q^n(x) for one string of weight k, minus log pi^n(x)
    logratio = (n - k) * math.log(Q0) + k * math.log(Q1) + n * LN2
    logZ = logsumexp(logw[typical] + logratio[typical])
    dens = np.where(typical, np.exp(logratio - logZ), 0.0)
    return _rates_from_weight_density(n, dens, p, q)


# ---------------------------------------------------------------------------
# witness re-evaluation


def product_law(pi, n):
    out = np.ones(1)
    for _ in range(n):
        out = np.kron(out, pi)
    return out


def witness_objective(semigroup, S, Q, q, n):
    """(1/n) times the density objective of witness Q, through the carre du
    champ: E(D^{1/q}, D^{1/q'})/(q-1), E(D, ln D) at q = 1 and -E(D, 1/D) at
    q = 0, with D = Q / pi^n."""
    m = S.nstates
    D = np.asarray(Q, dtype=float) / product_law(S.stationary, n)

    def form(f, g):
        return semigroup.dirichlet_form(S, semigroup.NonnegFunction(f, m, n),
                                        semigroup.NonnegFunction(g, m, n))

    if q == 1:
        lg = np.log(D)
        lg = lg - lg.min()               # E(f, g + c) = E(f, g)
        return (form(D, lg) if lg.max() > 0 else 0.0) / n
    if q == 0:
        return -form(D, 1.0 / D) / n
    qp = q / (q - 1.0)
    return form(D ** (1.0 / q), D ** (1.0 / qp)) / (q - 1.0) / n


def log_variance_level(S, Q):
    """Var_pi(ln(Q/pi)) / 2, the q = 0 constraint."""
    pi = S.stationary
    logd = np.log(np.asarray(Q, dtype=float)) - np.log(pi)
    mean = float(pi @ logd)
    return 0.5 * float(pi @ (logd - mean) ** 2)


def power_adjacency(A, n):
    """Adjacency of the n-fold Cartesian power, first factor most
    significant."""
    k = A.shape[0]
    out = A
    for _ in range(n - 1):
        out = np.kron(out, np.eye(k)) + np.kron(np.eye(out.shape[0]), A)
    return out
