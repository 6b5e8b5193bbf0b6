"""Finite-state symmetric Markov generators and their Dirichlet forms.

A semigroup here is the family T_t = exp(tL) generated by a symmetric rate
matrix L (nonnegative off-diagonal, zero row sums) together with a strictly
positive stationary distribution pi.  Functions on the n-fold product space
are stored as dense vectors indexed lexicographically by tuples
(x_1, ..., x_n) with x_1 most significant.

The product generator acts coordinate-wise: L_prod f = sum_k L f(x^{not k}, .),
and the carre du champ / Dirichlet form pair is

    Gamma(f, g)(x) = 1/2 sum_y L[x, y] (f(y) - f(x)) (g(y) - g(x))
    E(f, g)        = <Gamma(f, g)>_pi = -<L f, g>_pi .

One kernel computes the product-chain action: `_axis_apply` contracts a
matrix against one coordinate of a batch of rows, by a batched matrix
product on a reshaped view for the leading coordinates and one plain matrix
product for the last, so no axis is moved. `generator_rows` sums it over
the coordinates (the simplex optimizer in `sobolev` calls it),
`kronecker_sum` builds that sum as a dense matrix, block by block,
`dirichlet_rows` gives -<L u_i, v_i>_{pi^n} per row pair, and
`apply_generator`, `dirichlet_form_raw` and `product_heat_apply` are its
one-row cases.
`carre_du_champ` and `dirichlet_form` compute Gamma pairwise, from its
definition; they are the reference that the tests and the benchmark compare
the kernel against. `automorphisms` lists the index permutations of X^n
that preserve L_n and pi^n, which the optimizer in `sobolev` uses to search
one member of each orbit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

# dense product-space vectors are capped at this many entries
ENUMERATION_BUDGET = 1 << 20

STRUCT_TOL = 1e-12
IDENTITY_TOL = 1e-10


class SemigroupError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Semigroup:
    """Validated symmetric generator plus stationary distribution."""

    generator: np.ndarray
    stationary: np.ndarray

    @property
    def nstates(self) -> int:
        return self.generator.shape[0]


@dataclass(frozen=True, eq=False)
class NonnegFunction:
    """Nonnegative function on X^n, dense, lexicographic indexing."""

    values: np.ndarray
    base: int
    n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.n < 1:
            raise SemigroupError("dimension n must be >= 1")
        size = self.base ** self.n
        if size > ENUMERATION_BUDGET:
            raise SemigroupError(
                f"|X|^n = {size} exceeds enumeration budget {ENUMERATION_BUDGET}")
        if v.shape != (size,):
            raise SemigroupError(f"expected vector of length {size}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise SemigroupError("function values must be finite")
        if np.any(v < 0):
            raise SemigroupError("function values must be nonnegative")
        if not np.any(v > 0):
            raise SemigroupError("function must not be identically zero")


def as_function(values, base: int) -> NonnegFunction:
    """Wrap a raw vector over X^n, inferring n from its length."""
    v = np.asarray(values, dtype=float)
    n = 1
    size = base
    while size < v.size:
        size *= base
        n += 1
    return NonnegFunction(v, base, n)


def validate_semigroup(L) -> Semigroup:
    """Check generator structure and pair it with the uniform law.

    L must be symmetric with nonnegative off-diagonal entries and zero row
    sums, so the uniform distribution is stationary; pi^T L = 0 is still
    checked, to IDENTITY_TOL.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise SemigroupError("generator must be a square matrix")
    m = L.shape[0]
    if m < 2:
        raise SemigroupError("alphabet size must be >= 2")
    if not np.all(np.isfinite(L)):
        raise SemigroupError("generator entries must be finite")
    if np.max(np.abs(L - L.T)) > STRUCT_TOL:
        raise SemigroupError("generator must be symmetric")
    off = L - np.diag(np.diag(L))
    if np.min(off) < -STRUCT_TOL:
        raise SemigroupError("off-diagonal entries must be nonnegative")
    rowsum = L.sum(axis=1)
    if np.max(np.abs(rowsum)) > STRUCT_TOL * max(1.0, np.max(np.abs(L))):
        raise SemigroupError("row sums must vanish")

    pi = np.full(m, 1.0 / m)
    if np.max(np.abs(pi @ L)) > IDENTITY_TOL:
        raise SemigroupError("pi^T L = 0 violated")
    return Semigroup(L, pi)


def binary_semigroup() -> Semigroup:
    """Two-point chain with rate 1/2 flips and uniform stationary law."""
    L = np.array([[-0.5, 0.5], [0.5, -0.5]])
    return validate_semigroup(L)


def load_generator(path):
    """Read a generator matrix from a whitespace-separated text file."""
    M = np.loadtxt(path, dtype=float, ndmin=2)
    return M


def _expm(S: Semigroup, t: float) -> np.ndarray:
    # symmetric eigendecomposition; valid for any real t (internal use)
    w, U = np.linalg.eigh(S.generator)
    return (U * np.exp(t * w)) @ U.T


def heat_operator(S: Semigroup, t: float) -> np.ndarray:
    """exp(tL) for t >= 0, row-stochastic up to 1e-10."""
    if t < 0:
        raise SemigroupError("heat operator requires t >= 0")
    return _expm(S, t)


def pi_product(S: Semigroup, n: int) -> np.ndarray:
    """Product stationary distribution pi^n over X^n (lexicographic).

    Built by outer products, pi^(k+1) = pi^k (x) pi, so every entry is the
    same product as in reduce(np.kron, [pi] * n).
    """
    if n < 1:
        raise SemigroupError("n must be >= 1")
    if S.nstates ** n > ENUMERATION_BUDGET:
        raise SemigroupError("product space exceeds enumeration budget")
    pi = np.asarray(S.stationary, dtype=float)
    out = pi
    for _ in range(n - 1):
        out = np.multiply.outer(out, pi).ravel()
    return out


def sequence_digits(m: int, n: int) -> np.ndarray:
    """(m^n, n) array: digits of every index in base m, x_1 most significant."""
    if m ** n > ENUMERATION_BUDGET:
        raise SemigroupError("product space exceeds enumeration budget")
    idx = np.arange(m ** n)
    out = np.empty((m ** n, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        idx, out[:, k] = np.divmod(idx, m)
    return out


def automorphisms(S: Semigroup, n: int) -> np.ndarray:
    """Index permutations of X^n that preserve L_n and pi^n, as rows.

    The group is Aut(L, pi) wr S_n: a permutation of the letters that keeps
    L and pi exactly equal, chosen per coordinate, then any reordering of
    the coordinates. Row g maps index x to g[x]; row 0 is the identity. Aut
    is found by brute force over the m! letter permutations. Each dense
    table here is capped at ENUMERATION_BUDGET entries, like every other
    product-space array: where the letter permutations or the group would
    not fit, the trivial group (the identity row alone) is returned, which
    is still a subgroup. Cached on the exact bytes of L and pi and on n;
    the rows are read-only.
    """
    L = np.ascontiguousarray(S.generator, dtype=float)
    pi = np.ascontiguousarray(S.stationary, dtype=float)
    return _automorphisms(L.tobytes(), pi.tobytes(), L.shape[0], n)


@lru_cache(maxsize=64)
def _automorphisms(L_bytes, pi_bytes, m, n):
    L = np.frombuffer(L_bytes).reshape(m, m)
    pi = np.frombuffer(pi_bytes)
    N = m ** n
    group = np.arange(N)[None, :]
    if math.factorial(m) * m <= ENUMERATION_BUDGET:
        P = np.array(list(permutations(range(m))))
        P = P[np.all(pi[P] == pi, axis=1)]
        for x in range(m):
            P = P[np.all(L[P[:, x][:, None], P] == L[x], axis=1)]
        if len(P) ** n * math.factorial(n) * N <= ENUMERATION_BUDGET:
            group = _wreath_product(P, m, n)
    group.flags.writeable = False
    return group


def _wreath_product(P, m, n):
    """Rows y = (P[c_1][x_t(1)], ..., P[c_n][x_t(n)]) over every choice of
    letter automorphisms c and coordinate order t, as indices of X^n."""
    digits = sequence_digits(m, n)
    weights = m ** np.arange(n - 1, -1, -1)
    a = len(P)
    blocks = []
    for t in permutations(range(n)):
        # coordinate k of the image under letter automorphism c_k, laid
        # along axis k so the sum runs over every choice of c at once
        rows = sum((P[:, digits[:, t[k]]] * weights[k]).reshape(
                       (1,) * k + (a,) + (1,) * (n - k - 1) + (-1,))
                   for k in range(n))
        blocks.append(rows.reshape(a ** n, -1))
    return np.concatenate(blocks)


def _check_pair(S, f: NonnegFunction, g: NonnegFunction):
    if f.base != S.nstates or g.base != S.nstates:
        raise SemigroupError("function alphabet does not match semigroup")
    if f.n != g.n:
        raise SemigroupError("dimension mismatch between f and g")
    if f.n * S.nstates ** f.n > ENUMERATION_BUDGET:
        raise SemigroupError("n * |X|^n exceeds enumeration budget")


def _axis_apply(M: np.ndarray, U: np.ndarray, m: int, n: int, k: int):
    # contract M against coordinate k of every row of the batch U (R, m^n).
    # Before the last coordinate, U is viewed as (R m^k, m, m^(n-k-1)) and M
    # multiplies each block from the left, so no axis has to move; the last
    # coordinate is one (R m^(n-1), m) @ M^T product, not R m^(n-1) tiny ones
    if k == n - 1:
        return (U.reshape(-1, m) @ M.T).reshape(U.shape)
    return np.matmul(M, U.reshape(-1, m, m ** (n - k - 1))).reshape(U.shape)


def generator_rows(S: Semigroup, U: np.ndarray, n: int) -> np.ndarray:
    """Product generator action (sum of per-coordinate L) on each row of U."""
    out = np.zeros_like(U)
    for k in range(n):
        out += _axis_apply(S.generator, U, S.nstates, n, k)
    return out


def kronecker_sum(M: np.ndarray, n: int) -> np.ndarray:
    """Dense sum over k of I x ... x M x ... x I, M in factor k and the
    first factor most significant.

    M is added into the block diagonal of each factor in turn, k = 0..n-1:
    O(m^n m n) writes into a zero matrix. A diagonal entry sums its
    coordinates' diagonal entries of M in coordinate order; any other
    nonzero entry is one entry of M.
    """
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    out = np.zeros((m ** n, m ** n))
    for k in range(n):
        a, b = m ** k, m ** (n - k - 1)
        # (a, b, m, m) view of the entries whose row and column agree off
        # coordinate k
        blocks = np.einsum("iajibj->ijab", out.reshape(a, m, b, a, m, b))
        blocks += M
    return out


def dirichlet_rows(S: Semigroup, U: np.ndarray, V: np.ndarray, n: int,
                   pin: np.ndarray) -> np.ndarray:
    """E_n(u_i, v_i) = -<L u_i, v_i>_{pi^n} for each row pair of U, V.

    Rows may take any finite real values; pin is pi_product(S, n).
    """
    return -np.einsum("x,rx,rx->r", pin, generator_rows(S, U, n), V)


def apply_generator(S: Semigroup, f: NonnegFunction) -> np.ndarray:
    """Product generator action (sum of per-coordinate L) as a raw vector."""
    return generator_rows(S, f.values[None, :], f.n)[0]


def carre_du_champ(S: Semigroup, f: NonnegFunction, g: NonnegFunction) -> np.ndarray:
    """Gamma(f, g) on X^n, summing the per-coordinate squared-field terms."""
    _check_pair(S, f, g)
    m, n = S.nstates, f.n
    L = S.generator
    F = f.values.reshape((m,) * n)
    G = g.values.reshape((m,) * n)
    out = np.zeros((m,) * n)
    for k in range(n):
        Fk = np.moveaxis(F, k, -1)
        Gk = np.moveaxis(G, k, -1)
        df = Fk[..., None, :] - Fk[..., :, None]   # (..., x, y) -> f(y) - f(x)
        dg = Gk[..., None, :] - Gk[..., :, None]
        gam = 0.5 * np.einsum("...xy,xy->...x", df * dg, L)
        out += np.moveaxis(gam, -1, k)
    return out.reshape(-1)


def dirichlet_form(S: Semigroup, f: NonnegFunction, g: NonnegFunction) -> float:
    """E(f, g) = <Gamma(f, g)>_{pi^n}."""
    gam = carre_du_champ(S, f, g)
    return float(pi_product(S, f.n) @ gam)


def dirichlet_form_raw(S: Semigroup, u: np.ndarray, v: np.ndarray, n: int) -> float:
    """Dirichlet form on raw vectors (u, v may take any real values)."""
    return float(dirichlet_rows(S, u[None, :], v[None, :], n,
                                pi_product(S, n))[0])


def normalized_dirichlet_form(S: Semigroup, f: NonnegFunction, q: float) -> float:
    """E(f, f^{q-1}) / <f^q>_{pi^n}.

    For q < 1 the power f^{q-1} needs strictly positive f; zeros are an error
    rather than silently regularized.
    """
    if q < 1 and np.any(f.values == 0):
        raise SemigroupError("q < 1 requires strictly positive f")
    fq1 = f.values ** (q - 1.0) if q != 1 else np.ones_like(f.values)
    pin = pi_product(S, f.n)
    denom = float(pin @ (f.values * fq1))
    if denom <= 0:
        raise SemigroupError("zero denominator <f^q>")
    num = dirichlet_form_raw(S, f.values, fq1, f.n)
    return num / denom


def product_heat_apply(S: Semigroup, t: float, values: np.ndarray, n: int) -> np.ndarray:
    """(T_t^{tensor n}) f as a raw vector; t may be negative (internal FD use)."""
    Tt = _expm(S, t)
    out = values[None, :]
    for k in range(n):
        out = _axis_apply(Tt, out, S.nstates, n, k)
    return out[0]


def derivative_check(S: Semigroup, f: NonnegFunction, q: float):
    """Central finite difference of phi(t) = -(1/n) ln ||T_t f||_q at t = 0
    against the analytic slope (1/n) E(f, f^{q-1}) / <f^q>.

    Returns the pair (finite_difference, analytic).  Agreement is O(h^2) in
    the step h = 1e-4; the q-norm chain rule contributes a factor q that
    exactly cancels the 1/q in the norm, so no stray constant appears.
    """
    if q <= 1:
        raise SemigroupError("derivative check defined for q > 1")
    if np.any(f.values <= 0):
        raise SemigroupError("derivative check requires strictly positive f")
    n = f.n
    pin = pi_product(S, n)

    def phi(t):
        g = product_heat_apply(S, t, f.values, n)
        # ln ||g||_q = (1/q) ln sum pi g^q, g > 0 for |t| small
        return -(1.0 / n) * (1.0 / q) * np.log(float(pin @ g ** q))

    h = 1e-4
    fd = (phi(h) - phi(-h)) / (2 * h)
    analytic = normalized_dirichlet_form(S, f, q) / n
    return fd, analytic
