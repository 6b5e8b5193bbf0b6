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
the corners beyond) cross the constraint boundary, found by bisection
(convexity of the divergence in Q makes each ray cross it exactly once).
Each is polished by SLSQP with the divergence constraint as an inequality;
xi_q at q > 0 is xi_pq_n at p = q, n = 1.

At p = 0 the constraint only bounds the support. With pi uniform each
support face is then an exact q-radius problem, solved by the certified
loop `graph_spectral._fixed_point_radius`: no search, and no SLSQP.

Objective and constraint are invariant under every permutation of X^n that
preserves L_n and pi^n; `semigroup.automorphisms` gives the group
Aut(L, pi) wr S_n. The two enumerators search one member per orbit, under
different groups. Support faces are reduced by the whole group, which maps
each face onto one of equal minimum. Rays are reduced only by the
stabilizer of state N - 1, and only on orbits where it acts freely. The
polish runs in y = ln(Q/Q_last), and SLSQP is not
equivariant under a change of that reference state; the stabilizer only
permutes the y coordinates. A ray fixed by a nontrivial symmetry starts on
that symmetry's fixed subspace, which the polish leaves only by rounding,
so its whole orbit is kept.

The optimizer evaluates the Dirichlet form with `_objective` and the
divergence through `entropy.renyi_rows`. SLSQP gets exact gradients: the
objective's value and gradient come from one `semigroup.generator_rows` call
on the stacked rows [u, v], the divergence's gradient in closed form
(`entropy.renyi_grad`). Each point y that SLSQP visits costs one softmax and
one such call, shared by the value, the gradient and the constraint; seeds
and re-scores take the value alone, from the row u.

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
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

from .entropy import _logsumexp, renyi_divergence, renyi_grad, renyi_rows
from .graph_spectral import _fixed_point_radius
from .semigroup import (
    ENUMERATION_BUDGET,
    NonnegFunction,
    Semigroup,
    SemigroupError,
    automorphisms,
    generator_rows,
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


MULTISTART = 16            # seeds polished per call


def _objective(S: Semigroup, n, q, Q, pin, grad=False):
    """Dirichlet objective F of the density characterization at one
    distribution Q on X^n, with D = Q/pi^n; inf for q <= 1 where D has a
    zero. With grad, the pair (F, h) with h = Q * dF/dQ.

    F is -<pi^n, L u . v>/(q-1) on the rows u = D^{1/q}, v = D^{1/q'}, and
    -<pi^n, L D . ln D> at q = 1 and <pi^n, L D . (1/D)> at q = 0. The
    gradient needs L v too, and L is self-adjoint in L^2(pi^n), so one
    generator call on the stacked rows [u, v] gives both:

        q = 1:  h = -pi [D L ln D + L D]
        q = 0:  h =  pi [D L(1/D) - (L D) / D]
        else:   h = -(pi/(q-1)) [u Lv / q + v Lu / q']

    For q > 1 h is finite, and zero, where Q is zero; for q <= 1 it is only
    meaningful where Q is strictly positive. Without grad only the row u is
    sent through the generator.
    """
    D = Q / pin
    infinite = q <= 1 and not np.all(D > 0)
    if infinite and not grad:
        return INF
    # the polish reaches densities near 1e-300, where negative powers of D
    # overflow to the infinite value the objective has there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if q == 1:
            A, B = D, np.log(D)
        elif q == 0:
            A, B = D, 1.0 / D
        else:
            qp = q / (q - 1.0)
            A, B = D ** (1.0 / q), D ** (1.0 / qp)
        LU = generator_rows(S, np.stack([A, B]) if grad else A[None, :], n)
        E = -np.einsum("x,rx,rx->r", pin, LU[:1], B[None, :])[0]
        val = E if q == 1 else -E if q == 0 else E / (q - 1.0)
        val = INF if infinite else float(val)
        if not grad:
            return val
        LA, LB = LU
        if q == 1:
            return val, -pin * (D * LB + LA)
        if q == 0:
            return val, pin * (D * LB - LA / D)
        return val, -(pin / (q - 1.0)) * (A * LB / q + B * LA / qp)


def _logvar_rows(Qs, pin, logpin):
    """Var_pi(ln(Q/pi))/2 per row; rows with zeros are infeasible (inf)."""
    Qs = np.atleast_2d(Qs)
    out = np.full(Qs.shape[0], INF)
    ok = np.all(Qs > 0, axis=1)
    if np.any(ok):
        # one (1, N) @ (N,) product per row, so that a row's value does not
        # depend on the batch it comes in (the ray bisection batches rows)
        logd = (np.log(Qs[ok]) - logpin)[:, None, :]
        mean = logd @ pin
        out[ok] = 0.5 * (((logd - mean[:, :, None]) ** 2) @ pin)[:, 0]
    return out


def _logvar_grad(Q, pin, logpin):
    """h = Q * d/dQ of Var_pi(ln(Q/pi))/2 at one strictly positive Q:
    pi (l - E_pi l) with l = ln(Q/pi)."""
    logd = np.log(Q) - logpin
    return pin * (logd - pin @ logd)


def _level_crossing(out, inside, constraint_rows, level):
    """Bisect (1-t) out + t inside_i for each row inside_i, from an infeasible
    to a feasible point, to the constraint boundary; the just-feasible points
    are returned as rows."""
    inside = np.atleast_2d(inside)
    lo, hi = np.zeros((inside.shape[0], 1)), np.ones((inside.shape[0], 1))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        feas = constraint_rows((1 - mid) * out + mid * inside) >= level
        feas = feas[:, None]
        lo, hi = np.where(feas, lo, mid), np.where(feas, mid, hi)
    return (1 - hi) * out + hi * inside


def _orbit_firsts(images):
    """Positions of the first member of each orbit, in list order. Row i
    holds the images of element i under every element of a group, as
    comparable keys; its orbit is named by the least of them."""
    return np.sort(np.unique(images.min(axis=1), return_index=True)[1])


def _ray_seeds(origin, constraint_rows, level, symmetries):
    """Boundary points of the rays from origin toward the barycenter of every
    proper face of the simplex, corners first, when those 2^k - 2 faces fit
    in MULTISTART (k <= 4 states); toward each corner otherwise.

    Optima can sit inside a face rather than at a corner (K4 at q = 0 splits
    its mass 2-2), and the ray to that face's barycenter starts the polish
    there. The divergence constraints are convex in Q with value 0 at pi, so
    each ray crosses the level set at most once; all rays are bisected
    together.

    symmetries holds index permutations of the k states, as rows, that fix
    origin, the problem and the polish (`_optimize_density`). A face that
    no nontrivial one of them fixes polishes, up to rounding, to the value
    of every face in its orbit, so only the first of its orbit is kept. A
    face fixed by a nontrivial symmetry is kept with its whole orbit: the
    polish preserves the fixed subspace, which only rounding lets it
    leave, and which member of the orbit leaves is a matter of rounding.
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
    keep[_orbit_firsts(images)] = True
    member = member[keep]
    targets = member / member.sum(axis=1, keepdims=True)
    targets = targets[constraint_rows(targets) >= level]
    return list(_level_crossing(origin, targets, constraint_rows, level))


def _softmax_point(y):
    """The point softmax(y, 0) of the simplex, for log-mass ratios y."""
    y = np.append(y, 0.0)
    w = np.exp(y - y.max())
    return w / w.sum()


def _y_gradient(h, Q):
    """Gradient in y of a function F of Q = softmax(y, 0), from
    h = Q * grad_Q F: h - Q sum h, last coordinate dropped."""
    return (h - Q * h.sum())[:-1]


def _optimize_density(S, n, q, pin, constraint, level):
    """Seeds, then an SLSQP polish of each.

    Minimizes the objective over distributions Q on X^n with rows(Q) >=
    level; pin is pi_product(S, n), and constraint is a pair (rows, grad),
    rows(Qs) evaluating it per row of Qs and grad(Q) giving
    h = Q * (its gradient in Q) at one Q.

    The seeds are the points where the rays from pi toward the face
    barycenters (up to four states) or the corners cross the level
    (`_ray_seeds`); they are the only global layer, reduced by the
    symmetries that fix state N - 1 (see the module docstring). Each seed is
    polished by SLSQP with exact gradients, with the divergence constraint as an inequality, over
    log-mass ratios y in [-700, 700]^{N-1} with Q = softmax(y, 0), so the
    simplex needs no constraint. A polished point that misses the level is
    bisected back onto it. Seeds and polished points alike are scored by
    the barrier objective (inf unless the constraint holds to 1e-13), so no
    infeasible point is reported and no result is worse than its seed.
    """
    N = S.nstates ** n
    constraint_rows, constraint_grad = constraint

    def full_objective(Q):
        if not constraint_rows(Q[None, :])[0] >= level - 1e-13:
            return INF
        return _objective(S, n, q, Q, pin)

    perms = automorphisms(S, n)
    seeds = _ray_seeds(pin, constraint_rows, level,
                       perms[perms[:, -1] == N - 1])[:MULTISTART]

    # polish over log-mass ratios y_i = ln(Q_i / Q_N): optima often sit on
    # a face (q > 1) or within 1e-10 of one (q <= 1), where the powers of Q
    # in objective and constraint have infinite slope in Q but not in y
    def polish_problem():
        """fun, jac and constraints of one SLSQP polish. SLSQP asks for the
        value, the gradient and the constraint at the same y: each distinct
        y costs one softmax and one objective evaluation, kept by y's bytes
        for the rest of the polish."""
        points = {}

        def at(y):
            key = y.tobytes()
            if key not in points:
                Q = _softmax_point(y)
                points[key] = (Q,) + _objective(S, n, q, Q, pin, grad=True)
            return points[key]

        def fun(y):
            return at(y)[1]

        def jac(y):
            Q, _, h = at(y)
            return _y_gradient(h, Q)

        def constraint(y):
            return constraint_rows(at(y)[0][None, :])[0] - level

        def constraint_jac(y):
            Q = at(y)[0]
            return _y_gradient(constraint_grad(Q), Q)

        return fun, jac, [{"type": "ineq", "fun": constraint,
                           "jac": constraint_jac}]

    bounds = [(-700.0, 700.0)] * (N - 1)
    candidates = []
    for s in seeds:
        ls = np.log(np.maximum(s, 1e-300))
        fun, jac, constraints = polish_problem()
        res = minimize(fun, ls[:-1] - ls[-1], method="SLSQP", jac=jac,
                       bounds=bounds, constraints=constraints,
                       options={"ftol": 1e-15, "maxiter": 200})
        Q = _softmax_point(res.x)
        v = full_objective(Q)
        if not np.isfinite(v):
            # SLSQP can stop just outside the level set (1e-11 seen); the
            # divergence grows from Q toward the corner of the largest Q/pi
            corner = np.eye(N)[np.argmax(Q / pin)]
            if constraint_rows(corner[None, :])[0] >= level:
                Q = _level_crossing(Q, corner, constraint_rows, level)[0]
                v = full_objective(Q)
        for c in ((full_objective(s), s), (v, Q)):
            if np.isfinite(c[0]):
                candidates.append(c)

    if not candidates:
        raise SobolevError("no feasible point found; constraint level too high")
    vbest = min(c[0] for c in candidates)
    Qbest = next(c[1] for c in candidates if c[0] == vbest)
    return vbest, Qbest


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
    pin = S.stationary
    logpin = np.log(pin)
    constraint = (lambda Qs: _logvar_rows(Qs, pin, logpin),
                  lambda Q: _logvar_grad(Q, pin, logpin))
    val, Q = _optimize_density(S, 1, q, pin, constraint, alpha)
    return (val, Q) if return_witness else val


def sample_xi_curve(S, q, size=64):
    grid = alpha_grid(S.stationary, size)
    vals = np.array([xi_q(S, q, a) for a in grid])
    return SampledCurve(grid, vals, "xi_q", q, nstates=S.nstates)


def _support_masks(N, max_mass, pin):
    """Maximal supports of pi-mass <= max_mass for a uniform pi, as the rows
    of a boolean (faces, N) membership matrix in increasing bitmask order:
    every m-subset of the N states, m the most states that fit."""
    m = int(np.count_nonzero(np.cumsum(pin) <= max_mass + 1e-12))
    # the cap counts every admissible subset, not only the maximal ones
    if sum(math.comb(N, k) for k in range(1, m + 1)) > 4096:
        raise SobolevError("support enumeration too large at this alpha")
    faces = combinations(range(N), m) if m else ()    # the empty set is none
    bits = np.array(sorted(sum(1 << i for i in f) for f in faces),
                    dtype=np.int64)
    return (bits[:, None] >> np.arange(N)) & 1 == 1


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
        if N > 16:
            raise SobolevError("support enumeration capped at |X|^n <= 16")
        if np.any(S.stationary != S.stationary[0]):
            raise SobolevError("support route requires a uniform pi")
        # every symmetry of the chain maps a face problem onto an equal
        # one, so one face per orbit of the whole group is solved; among
        # those, the first face of least value wins ties
        Ln = kronecker_sum(S.generator, n)
        member = _support_masks(N, math.exp(-n * alpha), pin)
        images = member @ np.exp2(automorphisms(S, n).T)   # image bitmasks
        val, Q = min((_face_minimum(Ln, np.flatnonzero(member[i]), q)
                      for i in _orbit_firsts(images)),
                     key=lambda c: c[0])
        val = val / n
        return (val, Q) if return_witness else val

    gamma = p / q
    logpin = np.log(pin)
    constraint = (lambda Qs: renyi_rows(Qs, pin, logpin, gamma) / n,
                  lambda Q: renyi_grad(Q, pin, logpin, gamma) / n)

    val, Q = _optimize_density(S, n, q, pin, constraint, alpha)
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
