"""Entropy-constrained Dirichlet minimization: the log-Sobolev curve family.

The central object is

    xi_q(alpha) = inf { (1/(q-1)) E(D^{1/q}, D^{1/q'}) :
                        D = Q/pi, Q a distribution, KL(Q || pi) >= alpha }

over a single-letter alphabet, together with its limit objectives

    q = 1:  E(D, ln D)            subject to  KL(Q || pi) >= alpha
    q = 0:  -E(D, 1/D)            subject to  Var_pi(ln D)/2 >= alpha

and the n-letter two-parameter version

    xi_pq_n(alpha) = inf { (1/((q-1) n)) E_n(D^{1/q}, D^{1/q'}) :
                           (1/n) D_{p/q}(Q || pi^n) >= alpha }.

Under a constraint, reported values are best-found upper bounds on the
infimum. The starts are the points where the rays from pi toward the
barycenters of the simplex's proper faces (every face on up to four states,
the corners beyond) cross the constraint boundary, found by a bracketed
secant root-find (`_level_crossing`), and for n >= 2 the product laws on
the boundary. Each ray crosses the boundary once: the divergence is 0 at pi
and quasi-convex in Q, so nondecreasing along every ray from pi, at every
order (it is not convex in Q above order 1); so is the log-variance, whose
derivative along a ray is a covariance of two increasing functions of
Q/pi. Each start is polished by an in-repo Newton-KKT (SQP) method for the
one divergence constraint, with an active set for the faces where optima
sit at q > 1; `minimize` polishes all starts of a call in lockstep. xi_q at
q > 0 is xi_pq_n at p = q, n = 1.

At p = 0 the constraint only bounds the support. With pi uniform each
support face is then an exact q-radius problem, solved by the certified
loop `graph_spectral._fixed_point_radius`: no search, and no polish.

Objective and constraint are invariant under every permutation of X^n that
preserves L_n and pi^n; `semigroup.automorphisms` gives the group
Aut(L, pi) wr S_n. The two enumerators search one member per orbit, under
different groups. Support faces are reduced by the whole group, which maps
each face onto one of equal minimum: the lexicographically first face of
each orbit is solved, from `graph_spectral._canonical_subsets`, the
orderly generator the Faber-Krahn search uses. Rays are reduced only by the
stabilizer of state N - 1, and only on orbits where it acts freely. The
polish runs in y = ln(Q/Q_last), and a Newton iteration in y is
equivariant under the permutations that fix the reference state, which
only permute the y coordinates, but not under a change of that state. A
ray fixed by a nontrivial symmetry starts on that symmetry's fixed
subspace, which the polish preserves, and where it can end at a saddle
point that it leaves along a direction of negative curvature; which member
of the orbit then reaches the least value is not known beforehand, so the
whole orbit is kept.

Each polish works on one dense problem (`_Polish`): with M = diag(pi^n) L_n
from `semigroup.kronecker_sum`, objective and constraint are closed forms
in z = ln Q, and one pass over y gives both values; their gradients and
Hessians in y come only at accepted points. The polishes of one call
share each round's dense work: their points, and their Newton-KKT steps
with one `eigh` for the stack, are evaluated together per support size,
by kernels that give every row the bits it gets alone. Seeds and re-scores
take the value from `_objective`, through `semigroup.dirichlet_rows`, and
the divergence from `entropy.renyi_rows`, so every reported value is
scored apart from the polish's own closed forms.

The two-point chain admits a closed form (binary_xi_q) used as an oracle, in
terms of y = h^{-1}(ln 2 - alpha) on [0, 1/2] (binary_xi_y for q > 0):

    q not in {0, 1}: (1 - y^{1/q}(1-y)^{1/q'} - y^{1/q'}(1-y)^{1/q}) / (2(q-1))
    q = 1:           (1/2 - y) ln((1-y)/y)
    q = 0:           (e^{2 sqrt(2 alpha)} + e^{-2 sqrt(2 alpha)})/4 - 1/2

In w = atanh(1 - 2y) = (1/2) ln((1-y)/y) the q > 0 form reads
sinh(w/q) sinh((q-1)w/q) / ((q-1) cosh w), which has no cancellation near
q = 1; `concentration.xi_inverse` inverts the curve in w by Newton's method.
binary_xi_y keeps the y form above, whose last bits the curve tables pin.

The module also builds the finite-n extremal functions whose entropy and
Dirichlet rates exhibit the p <= q / p > q transition: products of typical-set
conditioned densities and mixtures with a point mass at a least-likely string.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .entropy import _logsumexp, renyi_divergence, renyi_rows
from .graph_spectral import (SUBSET_SEARCH_BUDGET, _canonical_subsets,
                             _fixed_point_radius)
from .semigroup import (
    ENUMERATION_BUDGET,
    NonnegFunction,
    Semigroup,
    SemigroupError,
    automorphisms,
    dirichlet_rows,
    kronecker_sum,
    pi_product,
)

INF = float("inf")
LN2 = math.log(2.0)


class SobolevError(ValueError):
    pass


# ---------------------------------------------------------------------------
# binary closed form


def hfun(y):
    """Binary entropy (natural log) with h(0) = h(1) = 0."""
    y = float(y)
    if y <= 0.0 or y >= 1.0:
        return 0.0
    return -y * math.log(y) - (1.0 - y) * math.log1p(-y)


def hinv(v):
    """Inverse of the binary entropy restricted to [0, 1/2], by bisection."""
    if not (-1e-15 <= v <= LN2 + 1e-15):
        raise SobolevError(f"h^-1 argument {v} outside [0, ln 2]")
    v = min(max(v, 0.0), LN2)
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            # no float lies strictly inside: further halvings would leave
            # the returned midpoint as it is
            return mid
        if hfun(mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_of_u(u):
    """ln 2 - h(1/2 - u) for u in [0, 1/2], to a few ulps."""
    if u < 0.25:
        # ln 2 - h(1/2 - u) = 2u atanh(2u) + log1p(-4u^2)/2, no cancellation
        # against ln 2 as u -> 0; past 1/4 atanh loses digits near 1
        return 2.0 * u * math.atanh(2.0 * u) + 0.5 * math.log1p(-4.0 * u * u)
    return LN2 - hfun(0.5 - u)


def binary_xi_q(q, alpha):
    """Two-point chain log-Sobolev curve, exact closed form."""
    if q < 0:
        raise SobolevError("order q must be nonnegative")
    if not (-1e-15 <= alpha <= LN2 + 1e-15):
        raise SobolevError(f"alpha {alpha} outside [0, ln 2]")
    alpha = min(max(alpha, 0.0), LN2)
    if alpha == 0.0:
        return 0.0      # level 0 admits the uniform density at every order
    if q == 0:
        u = 2.0 * math.sqrt(2.0 * alpha)
        return 0.25 * (math.exp(u) + math.exp(-u)) - 0.5
    return binary_xi_y(q, hinv(LN2 - alpha))


def binary_xi_y(q, y):
    """Order-q > 0 two-point curve at y = h^{-1}(ln 2 - alpha) in [0, 1/2]."""
    # near q = 1 the generic form divides an O(q-1) cancellation by q-1;
    # inside the window the limit formula is the accurate route
    if abs(q - 1.0) <= 3e-9:
        if y == 0.0:
            return INF
        return (0.5 - y) * math.log((1.0 - y) / y)
    if y == 0.0:
        return 1.0 / (2.0 * (q - 1.0)) if q > 1 else INF
    qp = q / (q - 1.0)
    # combined exponents: separate fractional powers underflow near the ends;
    # for q < 1 the exponent can pass 709, where the curve truly diverges
    ly, l1y = math.log(y), math.log1p(-y)
    ea = ly / q + l1y / qp
    eb = ly / qp + l1y / q
    a = math.exp(ea) if ea < 709.0 else INF
    b = math.exp(eb) if eb < 709.0 else INF
    return (1.0 - a - b) / (2.0 * (q - 1.0))


# ---------------------------------------------------------------------------
# sampled curves


@dataclass(frozen=True, eq=False)
class SampledCurve:
    grid: np.ndarray
    values: np.ndarray
    kind: str
    q: float
    nstates: int = None      # alphabet size behind the grid, when known

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.ndim != 1 or g.shape != v.shape or g.size < 1:
            raise SobolevError("grid/values must be equal-length vectors")
        if np.any(np.diff(g) <= 0):
            raise SobolevError("grid must be strictly increasing")
        if self.kind not in ("xi_q", "conv_xi_q"):
            raise SobolevError(f"unknown curve kind {self.kind!r}")
        if self.kind == "conv_xi_q" and g.size >= 3:
            d2 = np.diff(v, 2)
            if np.min(d2) < -1e-9:
                raise SobolevError("convex-envelope curve fails convexity check")


def alpha_grid(pi, size=64):
    """Default grid: [0, -ln min pi - 1e-6), right endpoint excluded."""
    pi = np.asarray(pi, dtype=float)
    hi = -math.log(float(pi.min())) - 1e-6
    return np.linspace(0.0, hi, size, endpoint=False)


def sample_binary_curve(q, size=64, scale=1.0):
    """Closed-form two-point curve; scale 2.0 gives the unit-rate version
    generated by the graph Laplacian of a single edge."""
    grid = alpha_grid((0.5, 0.5), size)
    vals = scale * np.array([binary_xi_q(q, a) for a in grid])
    return SampledCurve(grid, vals, "xi_q", q, nstates=2)


def conv_envelope(curve: SampledCurve) -> SampledCurve:
    """Greatest convex minorant of the sampled points, re-sampled on the grid.

    Lower hull by monotone chain; the result is pointwise <= the input and
    convex along the grid.
    """
    g, v = curve.grid, curve.values
    if g.size < 2:
        raise SobolevError("need at least two points for an envelope")
    if not np.all(np.isfinite(v)):
        raise SobolevError("envelope requires finite curve values")
    hull = []
    for x, y in zip(g, v):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    out = np.minimum(np.interp(g, hx, hy), v)
    return SampledCurve(g, out, "conv_xi_q", curve.q, nstates=curve.nstates)


def phi_pq(p, q, conv_curve: SampledCurve, alpha):
    """Transition function: envelope value when p <= q, zero when p > q."""
    if p > q:
        return 0.0
    g = conv_curve.grid
    if alpha < g[0] - 1e-12 or alpha > g[-1] + 1e-12:
        raise SobolevError(f"alpha {alpha} outside curve range")
    return float(np.interp(alpha, g, conv_curve.values))


def lsi_constant(curve: SampledCurve, q) -> float:
    """Optimal constant of the linear inequality alpha <= C * scale * value.

    Normalized so the two-point chain has optimal constant 2 at every order
    (scale q^2/4 for q != 0 and 1/4 for q = 0).
    """
    scale = q * q / 4.0 if q != 0 else 0.25
    best = 0.0
    for a, v in zip(curve.grid, curve.values):
        if a <= 0:
            continue
        if v <= 0:
            return INF
        best = max(best, a / (scale * v))
    return best


# ---------------------------------------------------------------------------
# simplex optimizer


MULTISTART = 16            # ray seeds polished per call
POLISH_MAXITER = 100       # Newton iterations per polish
FACE_TOL = 1e-12           # q > 1: mass ratio below which a coordinate may go
EIG_FLOOR = 1e-8           # least modified Hessian eigenvalue, relative
NEGATIVE_RTOL = 1e-4       # relative eigenvalue of a direction to leave along
STOP_RTOL = 1e-13          # stationary once the merit can fall by no more,
KKT_RTOL = 1e-10           # or once the relative KKT residual is this small
STEP_MAX = 10.0            # longest step in any log-mass ratio
SADDLE_RATIO = 1.25        # saddles above this times the incumbent are left
LAM_GROWTH = 100.0         # carried multiplier over the least-squares one


def _objective(S: Semigroup, n, q, Q, pin):
    """Dirichlet objective F of the density characterization at one
    distribution Q on X^n, with D = Q/pi^n; inf for q <= 1 where D has a
    zero.

    F is -<pi^n, L u . v>/(q-1) on the rows u = D^{1/q}, v = D^{1/q'}, and
    -<pi^n, L D . ln D> at q = 1 and <pi^n, L D . (1/D)> at q = 0, all
    through `semigroup.dirichlet_rows`.
    """
    D = Q / pin
    if q <= 1 and not np.all(D > 0):
        return INF
    # near a face, negative powers of D overflow to the infinite value the
    # objective has there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if q == 1:
            A, B = D, np.log(D)
        elif q == 0:
            A, B = D, 1.0 / D
        else:
            qp = q / (q - 1.0)
            A, B = D ** (1.0 / q), D ** (1.0 / qp)
        E = dirichlet_rows(S, A[None, :], B[None, :], n, pin)[0]
        val = E if q == 1 else E / (q - 1.0)
    return float(val)


def _logvar_rows(Qs, pin, logpin):
    """Var_pi(ln(Q/pi))/2 per row; rows with zeros are infeasible (inf)."""
    Qs = np.atleast_2d(Qs)
    out = np.full(Qs.shape[0], INF)
    ok = np.all(Qs > 0, axis=1)
    if np.any(ok):
        # one (1, N) @ (N,) product per row, so that a row's value does not
        # depend on the batch it comes in (the ray crossings evaluate the
        # rows they have not finished)
        logd = (np.log(Qs[ok]) - logpin)[:, None, :]
        mean = logd @ pin
        out[ok] = 0.5 * (((logd - mean[:, :, None]) ** 2) @ pin)[:, 0]
    return out


def _level_crossing(out, inside, constraint_rows, level):
    """The points (1-t) out + t inside_i on the level, one for each row
    inside_i, from an infeasible point out to feasible rows, as rows.

    Each t is found by the bracketed secant (Illinois) rule of Dowell and
    Jarratt (BIT 11, 1971) on [lo, hi], where lo misses the level and hi
    meets it: the secant point replaces the end whose side it falls on, the
    value kept at the other end is halved when that end stays twice in a
    row, and the midpoint stands in for a secant point that does not fall
    strictly inside. hi moves only to points that meet the level, so every
    returned row meets it; a row stops when lo and hi are adjacent floats,
    so the float below its t misses the level. Only unfinished rows are
    evaluated, so constraint_rows must give a row the same bits alone as in
    any batch.
    """
    inside = np.atleast_2d(inside)
    out = np.broadcast_to(out, inside.shape)
    k = inside.shape[0]
    ends = constraint_rows(np.concatenate((out, inside))) - level
    hi = np.where(ends[:k] >= 0, 0.0, 1.0)      # out may already meet it
    # the unfinished rows, their ends lo < h, the values there, and which
    # end moved last (+1 h, -1 lo)
    rows = np.flatnonzero((ends[:k] < 0) & (ends[k:] >= 0))
    a, b = out[rows], inside[rows]
    gl, gh = ends[:k][rows], ends[k:][rows]
    lo, h, kept = np.zeros(rows.size), np.ones(rows.size), np.zeros(rows.size)
    while rows.size:
        with np.errstate(invalid="ignore"):     # inf at a face: bisect
            t = h - gh * ((h - lo) / (gh - gl))
        t = np.where((lo < t) & (t < h), t, 0.5 * (lo + h))
        live = (lo < t) & (t < h)
        if not live.all():
            hi[rows[~live]] = h[~live]
            rows, a, b, lo, h, gl, gh, kept, t = (
                x[live] for x in (rows, a, b, lo, h, gl, gh, kept, t))
            if not rows.size:
                break
        g = constraint_rows((1 - t[:, None]) * a + t[:, None] * b) - level
        up = g >= 0
        step = np.where(up, 1.0, -1.0)
        halve = np.where(kept == step, 0.5, 1.0)
        h, gh = np.where(up, t, h), np.where(up, g, halve * gh)
        lo, gl = np.where(up, lo, t), np.where(up, halve * gl, g)
        kept = step
    return (1 - hi[:, None]) * out + hi[:, None] * inside


def _ray_seeds(origin, constraint_rows, level, symmetries):
    """Boundary points of the rays from origin toward the barycenter of every
    proper face of the simplex, corners first, when those 2^k - 2 faces fit
    in MULTISTART (k <= 4 states); toward each corner otherwise.

    Optima can sit inside a face rather than at a corner (K4 at q = 0 splits
    its mass 2-2), and the ray to that face's barycenter starts the polish
    there. The constraints are 0 at pi and nondecreasing along each ray from
    it (see the module docstring), so each ray crosses the level set at
    most once; all rays go to `_level_crossing` together.

    symmetries holds index permutations of the k states, as rows, that fix
    origin, the problem and the polish (`_optimize_density`). A face that
    no nontrivial one of them fixes polishes to the value of every face in
    its orbit, so only the first of its orbit is kept. A face fixed by a
    nontrivial symmetry is kept with its whole orbit: the polish preserves
    the fixed subspace, and its end can be a saddle point there, which the
    polish leaves along a direction of negative curvature; which member of
    the orbit that reaches the least value is not known beforehand.
    """
    k = origin.size
    if 2 ** k - 2 <= MULTISTART:
        faces = [f for r in range(1, k) for f in combinations(range(k), r)]
        member = np.zeros((len(faces), k), dtype=bool)
        for row, f in zip(member, faces):
            row[list(f)] = True
        images = member @ np.exp2(symmetries.T)     # image bitmasks
    else:
        member = np.eye(k, dtype=bool)
        images = symmetries.T                       # image corners
    ordered = np.sort(images, axis=1)
    keep = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    keep[np.unique(images.min(axis=1), return_index=True)[1]] = True
    member = member[keep]
    targets = member / member.sum(axis=1, keepdims=True)
    targets = targets[constraint_rows(targets) >= level]
    return list(_level_crossing(origin, targets, constraint_rows, level))


def _product_seeds(S, n, gamma, level):
    """The product laws P^{(x)n}, P = (1-t) pi + t delta_z, on the level, one
    for each letter z whose point mass reaches it. The Renyi divergence
    tensorizes, D_g(P^{(x)n} || pi^n) = n D_g(P || pi), so t is found on
    the single letters (`_level_crossing`)."""
    pi = S.stationary
    logpi = np.log(pi)

    def rows(Ps):
        return renyi_rows(Ps, pi, logpi, gamma)

    corners = np.eye(pi.size)
    seeds = []
    for P in _level_crossing(pi, corners[rows(corners) >= level], rows,
                             level):
        Pn = P
        for _ in range(n - 1):
            Pn = np.multiply.outer(Pn, P).ravel()
        seeds.append(Pn)
    return seeds


_Point = namedtuple("_Point", "y f c Q ld A MA aux")


class _Polish:
    """The problem of one polish: the objective and one divergence
    constraint of `_optimize_density` on a support of X^n, over log-mass
    ratios y_i = ln(Q_i / Q_ref), the reference the support's last state.

    Everything is a closed form in z = ln Q. With M = diag(pi^n) L_n, dense
    and symmetric, and the rows a, b of one objective,

        q not in {0, 1}:  a = D^{1/q}, b = D^{1/q'},  F = -b.Ma/(q-1)
        q = 1:            a = D,       b = ln D,      F = -b.Ma
        q = 0:            a = D,       b = 1/D,       F =  b.Ma

    and the constraint is (1/n) D_gamma(Q || pi^n) (`kind` "renyi"), the
    smooth piece (1/n) ln(Q_x/pi_x) of the order-infinity divergence at one
    state x ("state"), or Var_pi(ln D)/2 at q = 0 ("logvar"). `point` gives
    both values, as floats, from one pass over y, with one product M [a, b];
    only at an accepted point does `derivatives` take their gradients and
    the Lagrangian's Hessian. `minimize` evaluates the points and
    derivatives of many problems at once (`_points`, `_derivatives`); the
    two methods are those of one problem alone. Every point is one dense
    evaluation, counted in `evals`.
    """

    def __init__(self, M, pin, q, n, constraint, level, support):
        self.full_M, self.full_pin = M, pin
        self.q, self.n, self.level = q, n, level
        self.kind, self.order = constraint
        s, t = (1.0, -1.0) if q == 0 else (1.0 / q, 1.0 - 1.0 / q)
        self.powers = np.array((s, t))
        # F = k b.Ma has z-gradient k (a' Mb + b' Ma) and z-Hessian
        # k M o (a' b'^T + b' a'^T) + k diag(a'' Mb + b'' Ma), ' the
        # derivative in z: a' = s a, a'' = s^2 a, b' = t b, b'' = t^2 b for
        # the powers, and a' = a'' = a, b' = 1, b'' = 0 at q = 1. With X =
        # [a Mb, b Ma] (b Ma read as Ma at q = 1) the gradient is X @ grad,
        # the diagonal term X @ curv, and the first term pair M o (a b^T +
        # b a^T) (a 1^T + 1 a^T at q = 1)
        if q == 1:
            self.pair, grad, curv = -1.0, (-1.0, -1.0), (-1.0, 0.0)
        else:
            k = 1.0 / (1.0 - q)
            self.pair = k * s * t
            grad, curv = (k * s, k * t), (k * s * s, k * t * t)
        self.grad, self.curv = np.array(grad), np.array(curv)
        self.evals = 0
        self.restrict(support)

    def restrict(self, support):
        """Continue on the face of the given states (ascending indices)."""
        self.support = support
        self.face = support.tobytes()
        self.M = self.full_M[np.ix_(support, support)]
        self.kM = self.pair * self.M
        self.pin = self.full_pin[support]
        self.logpin = np.log(self.pin)
        self.columns = np.eye(support.size)[:, :-1]
        if self.kind == "state":
            self.at = int(np.searchsorted(support, self.order))
        elif self.kind == "renyi":
            self.tilt = (1.0 - self.order) * self.logpin

    def point(self, y):
        """Objective and constraint at y, with what `derivatives` needs
        there: one dense evaluation."""
        return _points([self], [y])[0]

    def derivatives(self, pt, lam=None):
        """(g, a, W, lam) at pt: the gradients in y of objective and
        constraint, and the Hessian in y of the Lagrangian F - lam c
        (`_derivatives`)."""
        g, a, W, lam, _, _ = _derivatives([self], [pt], [lam])
        return g[0], a[0], W[0], lam[0]


def _stacked(polishes, *names):
    """The named attributes of each problem, stacked; those of the first
    problem alone, which broadcast over the stack, when all share its
    face."""
    P = polishes[0]
    if all(p.face == P.face for p in polishes):
        return [getattr(P, name) for name in names]
    return [np.array([getattr(p, name) for p in polishes]) for name in names]


def _points(polishes, ys):
    """`_Polish.point` of each problem at its y, in one stacked evaluation.

    The problems are those of one `minimize` call, on supports of one size.
    Each step acts row by row, through elementwise operations, reductions
    along rows, and stacked `@` and `np.vecdot`, which give each row the bits
    it gets alone (`einsum` does not), so no point depends on its batch.
    """
    P = polishes[0]
    q, n, kind, gamma = P.q, P.n, P.kind, P.order
    for p in polishes:
        p.evals += 1
    yt = np.zeros((len(ys), P.support.size))
    yt[:, :-1] = ys
    top = yt.max(axis=1, keepdims=True)
    w = np.exp(yt - top)
    total = w.sum(axis=1, keepdims=True)
    z = yt - [[t + math.log(u)] for t, u in zip(top[:, 0].tolist(),
                                                total[:, 0].tolist())]
    Q = w / total
    logpin, M, *extra = _stacked(polishes, "logpin", "M", *(
        ("pin",) if kind == "logvar" else ("tilt",) if kind == "renyi" else ()))
    ld = z - logpin
    if q == 1:
        A = np.empty(ld.shape + (2,))
        A[:, :, 0], A[:, :, 1] = np.exp(ld), ld
        MA = M @ A
        f = -np.vecdot(A[:, :, 1], MA[:, :, 0])
    elif q > 1:
        A = np.exp(ld[:, :, None] * P.powers)
        MA = M @ A
        f = np.vecdot(A[:, :, 1], MA[:, :, 0]) / (1.0 - q)
    else:
        # below q = 1 the row b is a negative power of D, which overflows
        # to the infinite value the objective has near a face
        with np.errstate(over="ignore", invalid="ignore"):
            A = np.exp(ld[:, :, None] * P.powers)
            MA = M @ A
            f = np.vecdot(A[:, :, 1], MA[:, :, 0]) / (1.0 - q)
    aux = [None] * len(ys)
    if kind == "state":
        c = (ld[np.arange(len(ys)), [p.at for p in polishes]] / n).tolist()
    elif kind == "logvar":
        aux = ld - np.vecdot(extra[0], ld)[:, None]
        c = (0.5 * np.vecdot(extra[0], aux * aux)).tolist()
    elif gamma == 1:
        c = (np.vecdot(Q, ld) / n).tolist()
    else:
        e = gamma * z + extra[0]
        top = e.max(axis=1, keepdims=True)
        w = np.exp(e - top)
        total = w.sum(axis=1, keepdims=True)
        c = [(t + math.log(u)) / ((gamma - 1.0) * n)
             for t, u in zip(top[:, 0].tolist(), total[:, 0].tolist())]
        aux = w / total
    return [_Point(*row) for row in zip(ys, f.tolist(), c, Q, ld, A, MA, aux)]


def _derivatives(polishes, pts, lams):
    """`_Polish.derivatives` of each problem at its point, stacked as in
    `_points`: (g, a, W, lam, a.a, a.g), g and a stacked rows, W stacked
    matrices, the rest lists.

    g and a are the gradients in y of objective and constraint, and W the
    Hessian in y of the Lagrangian F - lam c. Where a given lam is None,
    lam is the least-squares multiplier max(0, a.g/|a|^2); a given lam is
    capped at LAM_GROWTH times that plus 1, so that a multiplier carried
    from step to step cannot run away where |a| is small.

    With J = dz/dy = I - 1 Q^T (the reference column dropped), the
    gradients are J^T times those in z, and W = J^T (H - s diag Q) J, with
    H the Lagrangian's Hessian in z and s the sum of its gradient in z: the
    Hessian of each z_i in y is -(diag Q - Q Q^T) on the y coordinates,
    which is J^T (diag Q - Q Q^T) J, and J^T Q = 0.
    """
    P = polishes[0]
    n, kind, gamma = P.n, P.kind, P.order
    Q = np.array([p.Q for p in pts])
    A, MA = np.array([p.A for p in pts]), np.array([p.MA for p in pts])
    k, m = Q.shape
    X = A * MA[:, :, ::-1]              # a Mb, b Ma
    if P.q == 1:
        X[:, :, 1] = MA[:, :, 0]        # b' = 1
    g, diag = X @ P.grad, X @ P.curv
    # the constraint's gradient a in z, and its Hessian in z,
    # diag(cd) + rho r r^T
    cd = r = None
    if kind == "state":
        a = np.zeros((k, m))
        a[np.arange(k), [p.at for p in polishes]] = 1.0 / n
    elif kind == "logvar":
        cd = r = np.broadcast_to(_stacked(polishes, "pin")[0], (k, m))
        a = r * np.array([p.aux for p in pts])
        rho = -1.0
    elif gamma == 1:
        ld = np.array([p.ld for p in pts])
        a = Q * (ld + 1.0) / n
        cd = Q * (ld + 2.0) / n
    else:
        r = np.array([p.aux for p in pts])
        kk = gamma / ((gamma - 1.0) * n)
        a = kk * r
        cd, rho = gamma * a, -gamma * kk
    J = P.columns - Q[:, None, :-1]
    gy, ay = (g[:, None] @ J)[:, 0], (a[:, None] @ J)[:, 0]
    aa, ag = np.vecdot(ay, ay).tolist(), np.vecdot(ay, gy).tolist()
    lam = [
        least if given is None else min(given, LAM_GROWTH * (least + 1.0))
        for given, least in zip(lams, [max(0.0, y / x) if x > 0 else 0.0
                                       for x, y in zip(aa, ag)])]
    ra = A[:, :, 0]
    if P.q == 1:
        H = ra[:, :, None] + ra[:, None]
    else:
        H = ra[:, :, None] * A[:, None, :, 1]
        H += H.transpose(0, 2, 1)
    H *= _stacked(polishes, "kM")[0]
    lv = np.array(lam)[:, None]
    # the terms in lam are left out, not multiplied by 0, where lam is 0
    on = [bool(x) for x in lam]
    if cd is not None and any(on):
        if all(on):
            diag -= lv * cd
        else:
            diag[on] -= lv[on] * cd[on]
    diag -= (g.sum(axis=1, keepdims=True)
             - lv * a.sum(axis=1, keepdims=True)) * Q
    H.reshape(k, -1)[:, ::m + 1] += diag
    if r is not None and any(on):
        if all(on):
            H -= r[:, :, None] * ((lv * rho) * r)[:, None]
        else:
            H[on] -= r[on, :, None] * ((lv[on] * rho) * r[on])[:, None]
    return gy, ay, J.transpose(0, 2, 1) @ H @ J, lam, aa, ag


def _tangent_basis(a, aa):
    """Orthonormal basis of the complement of each row of a, aa the rows'
    a.a as a list, as the columns of stacked matrices: the last columns of
    the Householder reflection that maps the row onto e_0."""
    k, m = a.shape
    v = a / np.array([[math.sqrt(x)] for x in aa])
    v0 = v[:, :1]
    # v.v = 2 (1 + |v0|) for a unit a
    c = -1.0 / (1.0 + np.abs(v0))
    v0 += np.copysign(1.0, v0)
    Z = v[:, :, None] * (c * v[:, 1:])[:, None]
    Z.reshape(k, -1)[:, m - 1::m] += 1.0     # the identity's last columns
    return Z


def _modified_solve(W, b):
    """W^+ b for each stacked W and column b, with W^+ the inverse of W
    after its eigenvalues are replaced by their absolute values, floored at
    EIG_FLOOR of the largest (one `eigh` for the stack); and for each a unit
    direction of negative curvature of W (an eigenvalue below
    -NEGATIVE_RTOL times the largest), or None."""
    ev, V = np.linalg.eigh(W)
    least = ev[:, 0].tolist()           # eigenvalues ascend
    top = [max(-lo, hi, 1e-300) for lo, hi in zip(least, ev[:, -1].tolist())]
    floor = np.maximum(np.abs(ev), [[EIG_FLOOR * t] for t in top])
    x = V @ ((b.transpose(0, 2, 1) @ V) / floor[:, None]).transpose(0, 2, 1)
    return x, [V[i, :, 0] if lo < -NEGATIVE_RTOL * t else None
               for i, (lo, t) in enumerate(zip(least, top))]


def _kkt_steps(W, g, a, r, aa):
    """Step of the quadratic model min g.d + d.W.d/2 subject to the
    linearized constraint r + a.d >= 0, for each stacked W, column g and
    a, and entry of the lists r and aa = a.a.

    First the step onto a.d = -r: its normal part -r a/|a|^2 plus the
    Newton step of the model on the tangent space, with multiplier lam =
    a.(g + W d)/|a|^2. Where the model is convex that step solves the
    problem when lam >= 0; where lam < 0 at a feasible point, or the step
    ascends there by more than rounding, the constraint is dropped and the
    Newton step of the whole model taken instead, with multiplier 0. Where
    W, or its restriction to the tangent space, is not positive definite,
    its eigenvalues are replaced by their absolute values, floored.

    Returns (d, lam, s): the steps as stacked columns, and lists of each
    one's lam and s, a unit direction of negative curvature of W on the
    space the step was taken in, or None."""
    k, m, _ = g.shape
    d, lam, s = np.empty((k, m, 1)), [0.0] * k, [None] * k
    # beneath aa = 1e-200 the normal step would overflow
    rows = [i for i in range(k) if aa[i] > 1e-200]
    whole = [i for i in range(k) if not aa[i] > 1e-200]
    if rows:
        pick = slice(None) if not whole else rows
        Wr, gr, ar = W[pick], g[pick], a[pick]
        dr = np.array([[[-r[i] / aa[i]]] for i in rows]) * ar
        sr = [None] * len(rows)
        if m > 1:
            Z = _tangent_basis(ar[:, :, 0], [aa[i] for i in rows])
            Zt = Z.transpose(0, 2, 1)
            t, sr = _modified_solve(Zt @ Wr @ Z, Zt @ (gr + Wr @ dr))
            dr = dr - Z @ t
            sr = [None if v is None else Z[j] @ v for j, v in enumerate(sr)]
        lr = np.vecdot(ar, gr + Wr @ dr, axis=1)[:, 0].tolist()
        gd = small = None
        for j, i in enumerate(rows):
            lj = lr[j] / aa[i]
            keep = r[i] < 0
            if not keep and lj >= 0:
                if gd is None:
                    gd = np.vecdot(gr, dr, axis=1)[:, 0].tolist()
                    small = (np.abs(dr).max(axis=(1, 2)) < 1e-12).tolist()
                keep = gd[j] <= 0 or small[j]
            if keep:
                lam[i], s[i] = max(0.0, lj), sr[j]
            else:
                whole.append(i)
        if not whole:
            return dr, lam, s
        d[rows] = dr
    whole.sort()
    x, sw = _modified_solve(W[whole], g[whole])
    d[whole] = -x
    for i, v in zip(whole, sw):
        s[i] = v
    return d, lam, s


def _steps(polishes, asks):
    """The Newton-KKT step of each problem at its point, from the
    multiplier of its last step (`minimize`): derivatives and step stacked,
    the step cut to STEP_MAX in every coordinate. Per problem (g, a, a.a,
    a.g, d, g.d, lam, s)."""
    pts = [pt for pt, _ in asks]
    g, a, W, _, aa, ag = _derivatives(polishes, pts, [lam for _, lam in asks])
    level = polishes[0].level
    d, lam, s = _kkt_steps(W, g[:, :, None], a[:, :, None],
                           [pt.c - level for pt in pts], aa)
    d = d[:, :, 0]
    longest = np.abs(d).max(axis=1)
    if any(x > STEP_MAX for x in longest.tolist()):
        d *= np.where(longest > STEP_MAX, STEP_MAX / longest, 1.0)[:, None]
    return list(zip(g, a, aa, ag, d, np.vecdot(g, d).tolist(), lam, s))


# the requests of a polish (`_polish_steps`) to `minimize`
_POINT, _STEP, _GATE = "point", "step", "gate"

_PolishResult = namedtuple("_PolishResult",
                           "point value converged nit evals")


def minimize(polishes, ys, prior, score):
    """Newton-KKT (SQP) polish of each `_Polish` problem from its y, all in
    lockstep: minimize the objective subject to constraint >= level
    (Nocedal and Wright, Numerical Optimization, chs. 16 and 18).

    The problems are those of one `_optimize_density` call, in seed order.
    Each polish keeps its own control flow (`_polish_steps`) and asks for
    dense work. A round first evaluates the trial points every polish asks
    for, then the Newton-KKT steps (`_steps`, with one `eigh` for the
    tangent-space models), stacked per support size; every row gets the
    bits it gets alone. A polish leaves the batch when it is stationary, its
    line search fails, or it reaches POLISH_MAXITER iterations, and its
    point is scored with the others that finish in that round: score maps a
    list of points on X^n to the points it keeps (moved back onto the
    level) and their values.

    Polish j leaves a saddle point only below SADDLE_RATIO times its
    incumbent, the least of prior[j] (the least seed value before it) and
    the values of polishes 0..j-1, as when the polishes ran one after the
    other. Where prior[j] and the finished ones among them already put it
    at or above that, it stops at once; otherwise it waits for them.

    Returns one `_PolishResult` per problem: the scored point and its
    value, whether the polish met its stationarity test within
    POLISH_MAXITER iterations, the iterations and the dense evaluations it
    took.
    """
    runs = [_polish_steps(p, y) for p, y in zip(polishes, ys)]
    asks = [next(run) for run in runs]
    done = [None] * len(runs)
    values = [None] * len(runs)
    live = list(range(len(runs)))
    waiting = set()         # gates left open since a polish last finished
    while live:
        # the trial points of every polish first, so that all polishes
        # then take their next steps together
        work, gates = {_POINT: {}, _STEP: {}}, []
        for i in live:
            if asks[i][0] == _GATE:
                gates.append(i)
            else:
                work[asks[i][0]].setdefault(polishes[i].support.size,
                                            []).append(i)
        op = _POINT if work[_POINT] else _STEP
        answers = {}
        for rows in work[op].values():
            answers.update(zip(rows, (_points if op == _POINT else _steps)(
                [polishes[i] for i in rows], [asks[i][1] for i in rows])))
        for i in gates:
            if i in waiting:
                continue
            known = [v for v in values[:i] if v is not None]
            if asks[i][1] >= SADDLE_RATIO * min([prior[i]] + known):
                answers[i] = False
            elif len(known) == i:
                answers[i] = True
            else:
                waiting.add(i)
        finished = []
        for i, answer in answers.items():
            try:
                asks[i] = runs[i].send(answer)
            except StopIteration as stop:
                done[i] = stop.value
                finished.append(i)
        if finished:
            waiting.clear()
            points, scored = score([done[i][0] for i in finished])
            for i, Q, v in zip(finished, points, scored):
                values[i] = v
                done[i] = _PolishResult(Q, v, *done[i][1:])
            live = [i for i in live if values[i] is None]
    return done


def _polish_steps(polish, y):
    """The polish of one problem from y, as a generator: it yields its
    requests to `minimize`, (_POINT, y) for the point at y, (_STEP, (pt,
    lam)) for the Newton-KKT step at pt, and (_GATE, f) to ask whether it
    may leave a saddle point of value f, and is sent the answers. Returns
    (Q on X^n, converged, nit, evals).

    Each iteration takes the step of `_kkt_steps` on the Lagrangian Hessian
    W = H - lam C, with lam the last step's multiplier (at the seed the
    least-squares one, and never above LAM_GROWTH times the least-squares
    one plus 1), at most STEP_MAX long, and a backtracking line
    search on the l1 merit F + mu max(0, level - c). The penalty mu is reset
    every iteration to 1.5 lam; below the level it is kept at least as
    large as in the last iteration, and large enough that the step descends.
    A rejected trial that ends below the level, or off it while the
    constraint is active, gets a second-order correction along the
    constraint gradient.

    The polish is stationary when the merit can fall by at most STOP_RTOL
    relative along the step, or, near that, when the KKT residual is at
    most KKT_RTOL with the slack's value at most STOP_RTOL. At a stationary
    point it steps along a direction of negative curvature of W on the
    tangent space, if there is one: a saddle point, as on the fixed
    subspace of a symmetry that a seed starts on. It does so only below
    SADDLE_RATIO times the incumbent, the least value the seeds and
    polishes before it found: each such descent costs as many iterations
    as a polish, and one from a saddle point that much higher seldom ends
    below the incumbent (the SLSQP polish stopped at every saddle point).

    For q > 1 optima sit on faces, which y reaches only at infinity. A
    coordinate whose mass ratio falls below FACE_TOL in a step is fixed at
    zero, and the polish continues on that face, when the Lagrangian F -
    lam (c - level) is lower there.
    """
    pt = yield _POINT, y
    level = polish.level
    lam = None
    converged = False
    nit = 0
    mu_below = 0.0
    while math.isfinite(pt.f) and pt.y.size and nit < POLISH_MAXITER:
        nit += 1
        g, a, aa, ag, d, gd, lam, s = yield _STEP, (pt, lam)
        r = pt.c - level
        # below the level the penalty is also at least 1.5 times the
        # least-squares multiplier a.g/|a|^2 and outweighs any rise of F
        # along d
        mu = 1.5 * lam
        if r < 0:
            mu = max(mu, mu_below, 2.0 * gd / -r,
                     1.5 * ag / aa if aa > 0 else 0.0)
        mu_below = mu if r < 0 else 0.0

        def merit(p):
            return p.f + mu * max(0.0, level - p.c)

        phi = merit(pt)
        slope = gd - mu * max(0.0, -r)
        scale = max(1.0, abs(pt.f))
        stationary = r >= -1e-15 and (
            -slope <= STOP_RTOL * scale
            or (-slope <= 1e-8 * scale
                and _kkt_residual(g, a, r, STOP_RTOL * scale, aa, ag)
                <= KKT_RTOL))
        if stationary:
            if s is not None and (yield _GATE, pt.f):
                new = yield from _curvature_search(
                    polish, pt, s if g @ s <= 0 else -s, a, aa, lam > 0,
                    merit, phi)
                if new is not None:
                    pt = new
                    continue
            trial = yield _POINT, pt.y + d
            if merit(trial) <= phi:
                pt = trial
            converged = True
            break
        new = yield from _line_search(polish, pt, d, a, aa, lam > 0, merit,
                                      phi, slope)
        if new is None:
            break
        if polish.q > 1:
            new = yield from _drop_vanishing(polish, pt, new, lam)
        pt = new
    Q = np.zeros(polish.full_pin.size)
    Q[polish.support] = pt.Q
    return Q, converged or pt.y.size == 0, nit, polish.evals


def _kkt_residual(g, a, r, slack, aa, ag):
    """max |g - lam a| relative to max |g| + lam max |a|, with lam the
    least-squares multiplier ag/aa (aa = a.a, ag = a.g) where the
    constraint is active, that is where lam r, the first-order value of the
    slack r, is at most slack; lam is 0 where it is not."""
    lam = max(0.0, ag / aa) if aa > 0 else 0.0
    if lam * r > slack:
        lam = 0.0
    scale = np.abs(g).max() + lam * np.abs(a).max()
    return np.abs(g - lam * a).max() / scale if scale > 0 else 0.0


def _to_level(polish, p, a, aa):
    """Second-order correction: the request for p moved along a onto the
    linearized level."""
    return _POINT, p.y + ((polish.level - p.c) / aa) * a


def _line_search(polish, pt, d, a, aa, active, merit, phi, slope):
    """Backtracking Armijo search on the merit along d. A rejected trial
    that ends below the level, or off it on either side when the constraint
    is active, gets a second-order correction back onto it first."""
    t = 1.0
    while t > 1e-6:
        new = yield _POINT, pt.y + t * d
        if merit(new) <= phi + 1e-4 * t * slope:
            return new
        if (active or new.c < polish.level) and aa > 0:
            fix = yield _to_level(polish, new, a, aa)
            if merit(fix) <= phi + 1e-4 * t * slope:
                return fix
        t *= 0.5
    return None


def _curvature_search(polish, pt, s, a, aa, active, merit, phi):
    """Step along the unit direction s of negative curvature, halved until
    the merit falls; each trial is corrected back onto the level when the
    constraint is active, or when it ends below the level."""
    t = 1.0
    for _ in range(8):
        new = yield _POINT, pt.y + t * s
        if (active or new.c < polish.level) and aa > 0:
            new = yield _to_level(polish, new, a, aa)
        if merit(new) < phi:
            return new
        t *= 0.5
    return None


def _drop_vanishing(polish, old, new, lam):
    """The point on the face without the coordinates whose mass ratio fell
    below FACE_TOL in the last step, when the Lagrangian is lower there;
    new otherwise. The support's last state is the reference."""
    floor = FACE_TOL * new.Q.max()
    if new.Q.min() >= floor:
        return new
    vanish = (new.Q < floor) & (new.Q < old.Q)
    if not vanish.any():
        return new
    z = (new.ld + polish.logpin)[~vanish]
    support = polish.support
    polish.restrict(support[~vanish])
    face = yield _POINT, z[:-1] - z[-1]
    # F - lam (c - level) at both points, the level cancelling
    if (face.f - lam * face.c
            < new.f - lam * new.c - STOP_RTOL * max(1.0, abs(new.f))):
        return face
    polish.restrict(support)
    return new


_SeedRecord = namedtuple(
    "_SeedRecord", "family seed seed_value point value converged nit evals")


def _optimize_density(S, n, q, pin, gamma, level):
    """Seeds, then a Newton-KKT polish of each, all seeds of the call
    polished in lockstep (`minimize`).

    Minimizes the objective over distributions Q on X^n with constraint >=
    level; pin is pi_product(S, n), and the constraint is (1/n) D_gamma(Q ||
    pi^n), or Var_pi(ln(Q/pi))/2 when gamma is None (q = 0, n = 1).

    The seeds are the points where the rays from pi toward the face
    barycenters (up to four states) or the corners cross the level
    (`_ray_seeds`), reduced by the symmetries that fix state N - 1 (see the
    module docstring), and for n >= 2 the product laws of `_product_seeds`.
    Each seed is polished over log-mass ratios y with Q = softmax(y, 0), so
    the simplex needs no constraint: for q > 1 on the seed's support
    (masses above 1e-14 of its largest), while for q <= 1 a seed with a
    zero mass, where the objective is infinite, is scored but not polished.
    At gamma = inf the
    constraint ln max_x Q_x/pi_x >= n level is not smooth: each seed is
    polished under the smooth piece of the state x where Q/pi is largest at
    the seed, which implies it; the seeds hold one such state per orbit. A
    polished point that misses the level is moved back onto it, along the
    segment to the corner of its largest Q/pi (`_level_crossing`). Seeds
    and polished points alike are scored by the barrier objective (inf
    unless the constraint holds to 1e-13), so no infeasible point is
    reported and no result is worse than its seed. The constraint is
    scored for all seeds in one `constraint_rows` call, and for the
    polished points of each round of `minimize` in one; the objective
    takes one `_objective` call per point, since `semigroup.dirichlet_rows`
    gives a row other bits in a batch than alone.

    Returns the least value, the first point that reaches it (seeds in
    order, each before its polished point), and one `_SeedRecord` per seed:
    its family ("ray" or "product"), the seed and its value, the polished
    point and its value, and the polish's `converged`, `nit` and `evals`
    (None, 0 and 0 for a seed that is not polished).
    """
    N = pin.size
    logpin = np.log(pin)
    if gamma is None:
        def constraint_rows(Qs):
            return _logvar_rows(Qs, pin, logpin)
    else:
        def constraint_rows(Qs):
            return renyi_rows(Qs, pin, logpin, gamma) / n

    def full_objective(Qs):
        feasible = constraint_rows(np.array(Qs)) >= level - 1e-13
        return [_objective(S, n, q, Q, pin) if ok else INF
                for Q, ok in zip(Qs, feasible.tolist())]

    def polished(Qs):
        values = full_objective(Qs)
        for i, Q in enumerate(Qs):
            if not np.isfinite(values[i]):
                # the polish can stop just outside the level set; the
                # divergence grows from Q toward the corner of the largest
                # Q/pi
                corner = np.eye(N)[np.argmax(Q / pin)]
                if constraint_rows(corner[None, :])[0] >= level:
                    Qs[i] = _level_crossing(Q, corner, constraint_rows,
                                            level)[0]
                    values[i] = full_objective(Qs[i:i + 1])[0]
        return Qs, values

    perms = automorphisms(S, n)
    rays = _ray_seeds(pin, constraint_rows, level,
                      perms[perms[:, -1] == N - 1])[:MULTISTART]
    seeds = [("ray", s) for s in rays]
    if n > 1:
        seeds += [("product", s) for s in _product_seeds(S, n, gamma, level)]

    M = pin[:, None] * kronecker_sum(S.generator, n)
    seed_values = full_objective([s for _, s in seeds])
    polishes, ys, prior, least = [], [], [], INF
    for (_, s), seed_value in zip(seeds, seed_values):
        # q > 1 polishes on the face a seed lies on, up to masses at the
        # rounding level of the largest; below, the objective is infinite
        # there, and only seeds inside are polished
        support = np.flatnonzero(s > 1e-14 * s.max())
        if q > 1 or support.size == N:
            constraint = (("logvar", None) if gamma is None
                          else ("state", int(np.argmax(s / pin)))
                          if np.isinf(gamma) else ("renyi", gamma))
            ls = np.log(s[support])
            polishes.append(_Polish(M, pin, q, n, constraint, level, support))
            ys.append(ls[:-1] - ls[-1])
            prior.append(least)
        else:
            polishes.append(None)
        least = min(least, seed_value)
    results = iter(minimize([p for p in polishes if p], ys, prior, polished))
    records = [_SeedRecord(family, s, v, *(next(results) if p
                                           else (s, v, None, 0, 0)))
               for (family, s), v, p in zip(seeds, seed_values, polishes)]

    candidates = [c for r in records
                  for c in ((r.seed_value, r.seed), (r.value, r.point))
                  if np.isfinite(c[0])]
    if not candidates:
        raise SobolevError("no feasible point found; constraint level too high")
    vbest = min(c[0] for c in candidates)
    Qbest = next(c[1] for c in candidates if c[0] == vbest)
    return vbest, Qbest, records


def xi_q(S: Semigroup, q, alpha, return_witness=False):
    """Single-letter curve value at entropy level alpha (best-found bound).

    For q > 0 this is xi_pq_n at p = q and n = 1 (the KL constraint); q = 0
    takes the log-variance constraint.
    """
    if q < 0 or np.isinf(q):
        raise SobolevError("order q must be finite and nonnegative")
    if S.nstates > 4:
        raise SobolevError("single-letter solver supports |X| <= 4: beyond "
                           "that its rays reach only the corners, not every "
                           "face")
    hi = -math.log(float(S.stationary.min()))
    if not (0 <= alpha < hi):
        raise SobolevError(f"alpha {alpha} outside [0, {hi})")
    if alpha == 0:
        return (0.0, S.stationary.copy()) if return_witness else 0.0
    if q > 0:
        return xi_pq_n(S, q, q, 1, alpha, return_witness=return_witness)
    val, Q, _ = _optimize_density(S, 1, q, S.stationary, None, alpha)
    return (val, Q) if return_witness else val


def sample_xi_curve(S, q, size=64):
    grid = alpha_grid(S.stationary, size)
    vals = np.array([xi_q(S, q, a) for a in grid])
    return SampledCurve(grid, vals, "xi_q", q, nstates=S.nstates)


def _face_minimum(Ln, face, q):
    """Minimum of the p = 0 objective over distributions Q on `face`, and a
    minimizer on X^n; pi is uniform and Ln is the dense n-letter generator.

    With u = Q^{1/q}, w = Q^{1/q'}, c the largest degree on the face and
    M = L_face + cI >= 0, the objective is (c - u M w)/(q-1), so its minimum
    is (c - rho_q(M))/(q-1). The form is 1-homogeneous in the mass of each
    connected block of M, so each block gets its own q-radius loop: on the
    whole face that loop moves mass between blocks whose radii nearly tie
    too slowly to close its bracket within its cap.
    """
    L = Ln[np.ix_(face, face)]
    c = -float(np.diag(L).min())
    # least vertex reachable from each vertex: the label of its block
    roots = np.linalg.matrix_power((L != 0) | np.eye(face.size, dtype=bool),
                                   face.size).argmax(axis=1)
    best = (INF, None)
    for r in np.unique(roots):
        block = face[roots == r]
        s, u = _fixed_point_radius(Ln[np.ix_(block, block)]
                                   + c * np.eye(block.size), q)
        val = (c - s) / (q - 1.0)
        if val < best[0]:
            Q = np.zeros(Ln.shape[0])
            Q[block] = u ** q
            best = (val, Q / Q.sum())
    return best


def xi_pq_n(S: Semigroup, p, q, n, alpha, return_witness=False):
    """n-letter two-parameter curve value.

    The density characterization turns the functional problem into one over
    distributions Q on X^n: constraint (1/n) D_{p/q}(Q || pi^n) >= alpha,
    objective (1/((q-1) n)) E_n(D^{1/q}, D^{1/q'}) with D = Q/pi^n. For p > 0
    the value is a best-found upper bound (`_optimize_density`). For p = 0
    the constraint only bounds the support mass by e^{-n alpha}, so with pi
    uniform the maximal supports are the m-subsets of X^n, m the most states
    that fit (q > 1 only: the limit objectives blow up on proper faces).
    A symmetry of the chain maps each face onto one of equal minimum, so
    only the lexicographically first m-subset of each orbit of
    `semigroup.automorphisms` is solved (`graph_spectral._canonical_subsets`,
    which never lists all C(N, m) subsets); among those, the first face of
    least value gives the witness. The route's one budget is
    |X|^n <= `graph_spectral.SUBSET_SEARCH_BUDGET` = 16, so at any alpha
    it solves at most C(16, 8) = 12,870 faces.
    Each face minimum is an exact q-radius problem (`_face_minimum`): the
    q-radius loop brackets rho_q to RADIUS_RTOL relative or raises
    ConvergenceError. The value (c - rho_q)/(q - 1) taken at the bracket's
    lower end is an upper bound within RADIUS_RTOL rho_q/(c - rho_q)
    relative, which can exceed RADIUS_RTOL where c - rho_q is small.
    """
    if q < 0 or np.isinf(q):
        raise SobolevError("order q must be finite and nonnegative")
    if q == 0:
        raise SobolevError("n-letter route undefined at q = 0; use xi_q")
    if p < 0:
        raise SobolevError("order p must be nonnegative")
    if n < 1:
        raise SobolevError("n must be >= 1")
    N = S.nstates ** n
    if N > ENUMERATION_BUDGET:
        raise SobolevError("|X|^n exceeds enumeration budget")
    hi = -math.log(float(S.stationary.min()))
    if not (0 <= alpha < hi):
        raise SobolevError(f"alpha {alpha} outside [0, {hi})")
    pin = pi_product(S, n)
    if alpha == 0:
        return (0.0, pin.copy()) if return_witness else 0.0

    if p == 0:
        if q <= 1:
            raise SobolevError("support-constrained route requires q > 1")
        if N > SUBSET_SEARCH_BUDGET:
            raise SobolevError("support enumeration capped at "
                               f"|X|^n <= {SUBSET_SEARCH_BUDGET}")
        if np.any(S.stationary != S.stationary[0]):
            raise SobolevError("support route requires a uniform pi")
        m = int(np.count_nonzero(np.cumsum(pin)
                                 <= math.exp(-n * alpha) + 1e-12))
        Ln = kronecker_sum(S.generator, n)
        val, Q = min((_face_minimum(Ln, face, q)
                      for face in _canonical_subsets(automorphisms(S, n), m)),
                     key=lambda c: c[0])
        val = val / n
        return (val, Q) if return_witness else val

    val, Q, _ = _optimize_density(S, n, q, pin, p / q, alpha)
    val = val / n
    return (val, Q) if return_witness else val


# ---------------------------------------------------------------------------
# extremal constructions


@dataclass(frozen=True, eq=False)
class ExtremalSpec:
    """Recipe for a finite-n near-extremal function.

    variant 'conditional-typical': product of two typical-set conditioned
    densities, Q on the first floor(lam*n) coordinates and R on the rest.
    variant 'product': same with unconditioned product densities.
    variant 'dirac-mixture': density of (1-e^{-n beta}) pi^n(.|T_eps(pi))
    + e^{-n beta} delta_{(z,...,z)} with z a least-likely letter.
    """

    variant: str
    n: int
    eps: float = 0.1
    Q: np.ndarray = None
    R: np.ndarray = None
    lam: float = 1.0
    beta: float = None
    z: int = None

    def __post_init__(self):
        if self.variant not in ("conditional-typical", "product",
                                "dirac-mixture"):
            raise SobolevError(f"unknown extremal variant {self.variant!r}")
        if not (0.0 <= self.lam <= 1.0):
            raise SobolevError("lam must lie in [0, 1]")
        if self.eps <= 0:
            raise SobolevError("eps must be positive")
        if self.n < 1:
            raise SobolevError("n must be >= 1")
        if self.variant == "dirac-mixture" and (self.beta is None
                                                or self.beta <= 0):
            raise SobolevError("dirac-mixture requires beta > 0")


def sequence_type_counts(m, k):
    """(m^k, m) letter-count table for all base-m sequences of length k,
    x_1 most significant.

    Each column is built one coordinate at a time: putting a letter b in
    front of every sequence gives block b of the longer list, and adds 1 to
    column a where b = a.
    """
    if m ** k > ENUMERATION_BUDGET:
        raise SemigroupError("product space exceeds enumeration budget")
    letter = np.eye(m, dtype=np.int32)
    cols = []
    for a in range(m):
        col = np.zeros(1, dtype=np.int32)
        for _ in range(k):
            col = np.add.outer(letter[a], col).ravel()
        cols.append(col)
    return np.stack(cols, axis=1)


def _typical_rows(counts, k, Qw, eps):
    # empirical measures within relative eps of Q, with a small additive
    # slack so exact boundary types are kept; the test is made once per
    # count value c = 0..k of each letter and looked up per sequence
    ok = np.abs((np.arange(k + 1) / k)[:, None] - Qw) <= eps * Qw + 1e-12
    rows = ok[counts[:, 0], 0]
    for a in range(1, len(Qw)):
        rows &= ok[counts[:, a], a]
    return rows


def typical_mask(Qw, k, eps):
    """Sequences whose empirical measure is within relative eps of Q."""
    Qw = np.asarray(Qw, dtype=float)
    return _typical_rows(sequence_type_counts(Qw.size, k), k, Qw, eps)


def _product_density(Qw, pi, k, eps=None):
    """Q^k / pi^k as a dense vector over m^k sequences; with eps given,
    Q^k(. | T_eps(Q)) / pi^k instead."""
    if k == 0:
        return np.ones(1)
    counts = sequence_type_counts(len(Qw), k)
    with np.errstate(divide="ignore", invalid="ignore"):
        lq = np.where(Qw > 0, np.log(Qw), -INF)
        logp = counts @ np.where(np.isfinite(lq), lq, 0.0)
        dead = counts[:, ~np.isfinite(lq)].sum(axis=1) > 0
    logp[dead] = -INF
    keep = np.isfinite(logp)
    if eps is not None:
        keep &= _typical_rows(counts, k, Qw, eps)
        if not np.any(keep):
            raise SobolevError("empty typical set: eps too small for this "
                               "length")
        logp = logp - _logsumexp(logp[keep])
    out = np.zeros(len(logp))
    out[keep] = np.exp(logp[keep] - (counts @ np.log(pi))[keep])
    return out


def build_extremal(spec: ExtremalSpec, S: Semigroup) -> NonnegFunction:
    """Dense extremal density on X^n for the given recipe."""
    return _build_extremal(spec, S, None)


def _build_extremal(spec, S, pin):
    """`build_extremal`, with pi^n passed in when the caller holds it."""
    m = S.nstates
    pi = S.stationary
    n = spec.n
    if m ** n > ENUMERATION_BUDGET:
        raise SobolevError("|X|^n exceeds enumeration budget")

    if spec.variant == "dirac-mixture":
        mask = typical_mask(pi, n, spec.eps)
        z = spec.z if spec.z is not None else int(np.argmin(pi))
        zn = z * (m ** n - 1) // (m - 1)
        if pin is None:
            pin = pi_product(S, n)
        mass = float(pin[mask].sum())
        if mass <= 0:
            raise SobolevError("empty typical set: eps too small for this length")
        w = math.exp(-n * spec.beta)
        Qn = np.where(mask, (1.0 - w) * pin / mass, 0.0)
        Qn[zn] += w
        return NonnegFunction(Qn / pin, m, n)

    Qw = np.asarray(spec.Q, dtype=float) if spec.Q is not None else pi.copy()
    Rw = np.asarray(spec.R, dtype=float) if spec.R is not None else pi.copy()
    k = int(math.floor(spec.lam * n))
    eps = spec.eps if spec.variant == "conditional-typical" else None
    f1 = _product_density(Qw, pi, k, eps)
    f2 = _product_density(Rw, pi, n - k, eps)
    return NonnegFunction(np.kron(f1, f2), m, n)


@dataclass(frozen=True)
class ExtremalReport:
    ent_rate: float
    dirichlet_rate: float
    n: int
    p: float
    q: float


def extremal_report(spec: ExtremalSpec, S: Semigroup, p, q) -> ExtremalReport:
    """Entropy and Dirichlet rates of the built density.

    The built f is the density D of a distribution Q_n relative to pi^n; the
    report evaluates the canonical test function D^{1/q} of that distribution:
    ent_rate = (1/n) D_{p/q}(Q_n || pi^n) and dirichlet_rate the matching
    normalized Dirichlet objective (the q-norm of D^{1/q} is one by
    construction, so no denominator appears).
    """
    if q <= 0 or np.isinf(q):
        raise SobolevError("report requires finite q > 0")
    if p < 0:
        raise SobolevError("order p must be nonnegative")
    n = spec.n
    pin = pi_product(S, n)
    Qn = _build_extremal(spec, S, pin).values * pin
    Qn /= Qn.sum()
    ent_rate = renyi_divergence(Qn, pin, p / q) / n
    dirichlet_rate = _objective(S, n, q, Qn, pin) / n
    return ExtremalReport(float(ent_rate) + 0.0, float(dirichlet_rate) + 0.0,
                          n, p, q)
