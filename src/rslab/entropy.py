"""Entropy functionals and Renyi divergences with all limit orders.

The two-parameter entropy of a nonnegative f is

    Ent_{p,q}(f) = (p q / (p - q)) ln(||f||_p / ||f||_q),   p != q,

with limits: p = q gives the normalized entropy Ent(f^q)/E[f^q]; either
parameter 0 gives -ln pi(f > 0); an infinite parameter s' with the other
finite equal to s gives s ln(||f||_inf / ||f||_s); both infinite gives
-ln pi(f = max f).  The divergence identity Ent_{p,q}(f) = D_{p/q}(Q || pi)
with Q = f^q pi / E[f^q] holds throughout and is exercised by the tests.

All sums run in log space where overflow is a risk.  Convention 0 ln 0 = 0.
Every log-sum-exp goes through `_logsumexp`, which repeats the steps of
scipy.special.logsumexp for real input, and so gives its bits, without its
per-call overhead.

`renyi_rows` is the one Renyi divergence: it evaluates D_gamma row by row for
the simplex optimizer in `sobolev`, and `renyi_divergence` is its checked
one-row case.
"""

from dataclasses import dataclass

import numpy as np

INF = float("inf")


class EntropyError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability weights over X^n together with the reference law."""

    weights: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.base, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "base", b)
        if w.shape != b.shape:
            raise EntropyError("weights and base must have equal length")
        if np.any(w < 0):
            raise EntropyError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12 * max(1, w.size):
            raise EntropyError("weights must sum to 1")


def _coerce(f):
    # accept NonnegFunction or raw arrays
    v = np.asarray(getattr(f, "values", f), dtype=float)
    if np.any(v < 0) or not np.any(v > 0):
        raise EntropyError("f must be nonnegative and not identically zero")
    return v


def _logsumexp(a):
    """ln sum exp(a) over the last axis of a real array.

    The steps of scipy.special.logsumexp for real input, in plain numpy and
    so with its bits: the m entries equal to the max are summed apart, as
    log1p(s/m) + ln m + max with s the sum of exp(a - max) over the rest;
    where that is not finite (every entry -inf, or an entry +inf), the
    result is ln sum exp(a) itself. An empty axis gives -inf.

    The log1p steps are kept for the ray crossings' accuracy as well as for
    SciPy's bits: with a plain ln sum exp(a - max) + max, which rounds more
    coarsely near 0, `sobolev._level_crossing` returned a crossing more
    than 256 ulp of t from a bisection's (`TestLevelCrossing`).
    """
    if a.shape[-1] == 0:
        return np.full(a.shape[:-1], -INF)[()]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amax = a.max(axis=-1, keepdims=True)
        top = a == amax
        m = top.sum(axis=-1, keepdims=True, dtype=float)
        s = np.exp(np.where(top, -INF, a) - amax).sum(axis=-1, keepdims=True)
        out = (np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + amax)[..., 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.exp(a).sum(axis=-1)), out)
    return out[()]


def ent(f, pi) -> float:
    """Ent(f) = E[f ln f] - E[f] ln E[f], with 0 ln 0 = 0."""
    v = _coerce(f)
    pi = np.asarray(pi, dtype=float)
    pos = v > 0
    mean_flnf = float(np.sum(pi[pos] * v[pos] * np.log(v[pos])))
    mean_f = float(pi @ v)
    return mean_flnf - mean_f * np.log(mean_f)


def _log_norm(v, pi, s: float) -> float:
    """ln ||v||_s for s > 0 finite."""
    pos = v > 0
    if not np.any(pos):
        return -INF
    return _logsumexp(np.log(pi[pos]) + s * np.log(v[pos])) / s


def ent_pq(f, pi, p, q) -> float:
    """Two-parameter entropy with every limit case handled exactly."""
    v = _coerce(f)
    pi = np.asarray(pi, dtype=float)
    if p < 0 or q < 0:
        raise EntropyError("orders must lie in [0, inf]")

    if p == 0 or q == 0:
        return float(-np.log(np.sum(pi[v > 0])))
    if np.isinf(p) and np.isinf(q):
        fmax = v.max()
        return float(-np.log(np.sum(pi[v == fmax])))
    if np.isinf(p) or np.isinf(q):
        s = q if np.isinf(p) else p
        return float(s * (np.log(v.max()) - _log_norm(v, pi, s)))
    if p == q:
        # exact p -> q limit: Ent(f^q) / E[f^q], no numerical limit taken
        fq = v ** q
        mean = float(pi @ fq)
        return ent(fq, pi) / mean
    val = (p * q / (p - q)) * (_log_norm(v, pi, p) - _log_norm(v, pi, q))
    return float(val)


def density_from_function(f, pi, q: float) -> Distribution:
    """The tilted law Q = f^q pi / E[f^q] appearing in the divergence identity."""
    v = _coerce(f)
    pi = np.asarray(pi, dtype=float)
    if q <= 0 or np.isinf(q):
        raise EntropyError("tilting requires finite q > 0")
    pos = v > 0
    logw = np.full(v.shape, -INF)
    logw[pos] = np.log(pi[pos]) + q * np.log(v[pos])
    logw -= _logsumexp(logw)
    return Distribution(np.exp(logw), pi)


def renyi_rows(Qs, pi, logpi, gamma) -> np.ndarray:
    """D_gamma(Q_i || pi) for each row Q_i of Qs, in log space, unchecked.

    pi must be strictly positive with logpi = ln pi, and gamma >= 0; rows may
    contain zeros (0 ln 0 = 0).
    """
    Qs = np.atleast_2d(Qs)
    with np.errstate(divide="ignore", invalid="ignore"):
        if gamma == 1:
            t = np.where(Qs > 0, Qs * (np.log(Qs) - logpi), 0.0)
            return t.sum(axis=1)
        if gamma == 0:
            return -np.log(np.where(Qs > 0, pi, 0.0).sum(axis=1))
        if np.isinf(gamma):
            return np.log((Qs / pi).max(axis=1))
        expo = np.where(Qs > 0, gamma * np.log(Qs) + (1 - gamma) * logpi,
                        -INF)
    return _logsumexp(expo) / (gamma - 1.0)


def renyi_divergence(Q, pi, gamma) -> float:
    """D_gamma(Q || pi) for gamma in [0, inf].

    gamma = 1 is relative entropy, gamma = 0 is -ln pi(Q > 0), gamma = inf is
    ln max Q/pi over the support (the limit of the finite-order formula).
    Absolute-continuity failure with gamma > 1 returns +inf.
    """
    w = np.asarray(getattr(Q, "weights", Q), dtype=float)
    pi = np.asarray(pi, dtype=float)
    if gamma < 0:
        raise EntropyError("order must lie in [0, inf]")
    sup = w > 0
    if np.any(pi[sup] == 0):
        if gamma >= 1:
            return INF
        sup = sup & (pi > 0)           # gamma < 1 ignores pi-null mass
        if not np.any(sup):
            return INF
    return float(renyi_rows(w[sup], pi[sup], np.log(pi[sup]), gamma)[0])
