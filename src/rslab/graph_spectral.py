"""Rayleigh q-quotients, q-radii, Cartesian graph powers, Faber-Krahn maxima.

For a d-regular graph with adjacency A and a nonnegative f, the quotient

    R_q(A, f) = sum_xy f(x) A_{x,y} f(y)^{q-1} / sum_x f(x)^q

has limit branches at q in {0, 1, infinity} involving the support boundary
weight theta = sum_{x in supp(f), y not in supp(f)} f(x) A_{x,y}. Its maximum
over f is the q-radius rho_q(A): exactly the max row sum at q = 1, the max
column sum at q = infinity, and +infinity at q = 0. For finite q > 1 (the
spectral radius at q = 2 included) the maximum is found by reparametrizing
f = Q^{1/q} over distributions Q and iterating a multiplicative fixed-point
update from the uniform law. Every step brackets rho_q between two computed
numbers; the reported value is the lower end once the bracket is narrower
than RADIUS_RTOL relative, and ConvergenceError is raised if it never is.

The size-constrained maximum over induced subgraphs,

    Lambda_q(m) = max { rho_q(G') : G' induced in G^n, |V'| <= m },

is computed exactly at desk scale by a search over m-subsets, one per
symmetry orbit where that pays, and bounded through the entropy curve of the
chain generated by L = A - dI:

    Lambda_q(m) <= n (d - (q-1) conv Xi_q(alpha)),  alpha = ln|V| - ln(m)/n.

As `faber_krahn_bound` computes it, that bound is best-found, not
certified: the envelope is read off chords, which lie above a convex curve,
and a sampled Xi_q is the least value the optimizer found, at or above the
true one. Both pull the computed bound down.

Note the unit-rate Laplacian convention: the single-edge graph generates the
two-point chain at twice the half-rate normalization, so its curve is twice
the closed form and the cube bound lands on the familiar shape
n * (y^{1/q}(1-y)^{1/q'} + y^{1/q'}(1-y)^{1/q}) with y = h^{-1}(ln(m)/n).
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .semigroup import (Semigroup, automorphisms, kronecker_sum,
                        validate_semigroup)

INF = float("inf")

# dense adjacency cap: every contracted use sits at or below 2^12 vertices
DENSE_VERTEX_BUDGET = 4096

# the q-radius loop stops once its certified bracket is this narrow
# (relative), and fails loudly after this many steps
RADIUS_RTOL = 1e-10
RADIUS_MAXITER = 10000
# the least positive double: np.maximum(Q, TINY) changes only the zeros of Q
TINY = 5e-324

# Faber-Krahn subsets gathered and scored per stacked call: enough to spread
# the per-call cost, few enough that the (k, m, m) stack stays under 0.5 MiB
SUBSET_CHUNK = 256
# the most vertices of G^n (or states of X^n) whose subsets are searched
# with a q-radius loop per subset: `faber_krahn_exact` and the p = 0 support
# faces of `sobolev.xi_pq_n`; the orbit list then holds at most
# C(16, 8) = 12,870 subsets
SUBSET_SEARCH_BUDGET = 16


class GraphError(ValueError):
    pass


class ConvergenceError(GraphError):
    """The q-radius iteration hit its cap before its bracket closed."""


@dataclass(frozen=True, eq=False)
class Graph:
    adjacency: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=float)
        object.__setattr__(self, "adjacency", A)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise GraphError("adjacency must be square")
        if not np.array_equal(A, A.T):
            raise GraphError("adjacency must be symmetric")
        if np.any(np.diag(A) != 0):
            raise GraphError("adjacency must have zero diagonal")
        if not np.all((A == 0) | (A == 1)):
            raise GraphError("adjacency entries must be 0 or 1")
        deg = A.sum(axis=1)
        if not np.all(deg == deg[0]):
            raise GraphError("graph must be regular")

    @classmethod
    def _unchecked(cls, A):
        """Wrap a float adjacency that is valid by construction, without
        the dense checks; every outside `Graph(...)` is still checked."""
        G = object.__new__(cls)
        object.__setattr__(G, "adjacency", A)
        return G

    @property
    def nvertices(self):
        return self.adjacency.shape[0]

    @property
    def degree(self):
        return int(self.adjacency[0].sum())


@dataclass(frozen=True, eq=False)
class SubgraphView:
    parent: Graph
    vertices: tuple

    def __post_init__(self):
        vs = tuple(sorted(set(int(v) for v in self.vertices)))
        object.__setattr__(self, "vertices", vs)
        if not vs:
            raise GraphError("vertex subset must be nonempty")
        if vs[0] < 0 or vs[-1] >= self.parent.nvertices:
            raise GraphError("vertex index out of range")

    @property
    def submatrix(self):
        idx = np.array(self.vertices)
        return self.parent.adjacency[np.ix_(idx, idx)]


def complete_graph(k):
    if k < 2:
        raise GraphError("complete graph needs >= 2 vertices")
    return Graph(np.ones((k, k)) - np.eye(k))


def cycle_graph(k):
    if k < 3:
        raise GraphError("cycle needs >= 3 vertices")
    A = np.zeros((k, k))
    for i in range(k):
        A[i, (i + 1) % k] = A[(i + 1) % k, i] = 1
    return Graph(A)


def hypercube_graph(n):
    return cartesian_power(complete_graph(2), n)


def load_graph(path) -> Graph:
    """Edge-list file: first line "|V| |E|", then one "u v" pair per line."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphError("graph file too short")
    nv, ne = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * ne:
        raise GraphError("edge count does not match header")
    A = np.zeros((nv, nv))
    for k in range(ne):
        u, v = int(tokens[2 + 2 * k]), int(tokens[3 + 2 * k])
        if not (0 <= u < nv and 0 <= v < nv) or u == v:
            raise GraphError(f"bad edge {u} {v}")
        A[u, v] = A[v, u] = 1.0
    return Graph(A)


def graph_generator(G: Graph) -> Semigroup:
    """Chain generated by L = A - dI with uniform stationary law."""
    d = G.degree
    L = G.adjacency - d * np.eye(G.nvertices)
    return validate_semigroup(L)


def cartesian_power(G: Graph, n: int) -> Graph:
    """n-fold Kronecker sum of the adjacency; first factor most significant."""
    if n < 1:
        raise GraphError("power must be >= 1")
    N = G.nvertices ** n
    if N > DENSE_VERTEX_BUDGET:
        raise GraphError("dense adjacency budget exceeded")
    # off the diagonal a Kronecker sum holds single entries of A, and on it
    # sums of A's zero diagonal: symmetric, 0/1, zero-diagonal and
    # (n d)-regular whenever G is, so the dense checks are not run again
    return Graph._unchecked(kronecker_sum(G.adjacency, n))


def _as_values(f):
    v = np.asarray(getattr(f, "values", f), dtype=float)
    if v.ndim != 1 or np.any(v < 0) or not np.any(v > 0):
        raise GraphError("f must be a nonnegative, nonzero vector")
    return v


def rayleigh_q(A, f, q) -> float:
    """The q-quotient with all five branches, extended-real valued."""
    A = np.asarray(A, dtype=float)
    v = _as_values(f)
    if v.size != A.shape[0]:
        raise GraphError("dimension mismatch")
    if q < 0:
        raise GraphError("order q must be nonnegative")
    sup = v > 0
    theta = float(v[sup] @ A[np.ix_(sup, ~sup)].sum(axis=1)) if (~sup).any() \
        else 0.0

    if q == 0:
        if theta > 0:
            return INF
        if theta < 0:
            # unreachable for nonnegative A; kept for general matrices
            assert (A < 0).any(), "negative boundary weight with A >= 0"
            return -INF
        As = A[np.ix_(sup, sup)]
        return float(v[sup] @ As @ (1.0 / v[sup])) / int(sup.sum())
    if np.isinf(q):
        f0 = v.max()
        top = np.flatnonzero(v == f0)
        return float((v / f0) @ A[:, top].sum(axis=1)) / top.size
    if q == 1:
        As = A[np.ix_(sup, sup)]
        return float(v[sup] @ As.sum(axis=1)) / float(v[sup].sum())
    if q > 1:
        num = float(v @ A @ np.where(sup, v, 0.0) ** (q - 1.0))
        return num / float((v[sup] ** q).sum())
    # q in (0,1): boundary edges blow the quotient up
    if theta > 0:
        return INF
    As = A[np.ix_(sup, sup)]
    num = float(v[sup] @ As @ v[sup] ** (q - 1.0))
    return num / float((v[sup] ** q).sum())


def _fixed_point_radius(A, q):
    """Certified lower bounds on rho_q for a stack A of shape (..., N, N),
    finite q > 1, with their witnesses; one matrix gives a float and a
    vector, a stack an array of shape A.shape[:-2] and one of A.shape[:-1].

    For a distribution Q put u = Q^{1/q}, w = Q^{1/q'} and
    T = u (Aw) / q + w (Au) / q'. For every such Q,

        sum T = u A w  <=  rho_q(A)  <=  max_{Q_x > 0} T_x / Q_x

    (the upper side is weighted AM-GM term by term, using the symmetry of A;
    at q = 2 it is the Collatz-Wielandt bound). The bracket is global, so one
    start from the uniform law is enough: Q <- T / sum T until the bracket
    closes to RADIUS_RTOL relative, then sum T is reported. Isolated vertices
    leave the support after one step; an edgeless matrix scores 0. The
    matrices of a stack step together, each with the arithmetic of its own
    call, and leave the active set as their brackets close.
    """
    *lead, N = A.shape[:-1]
    qp = q / (q - 1.0)
    # one matrix steps a vector; a stack steps columns (K, N, 1), so each
    # product is one matrix-vector call per matrix and each sum spans the
    # vertices of one matrix
    if lead:
        A = A.reshape(-1, N, N)
    shape, axis, keep = ((len(A), N, 1), 1, True) if lead else (N, 0, False)
    rows, parts = slice(None), []       # active matrices; closed (rows, s, u)
    Q = np.full(shape, 1.0 / N)
    for _ in range(RADIUS_MAXITER):
        u, w = Q ** (1.0 / q), Q ** (1.0 / qp)
        T = u * (A @ w) / q + w * (A @ u) / qp
        s = np.add.reduce(T, axis=axis, keepdims=keep)
        # off the support T = Q = 0, and 0 / TINY = 0 leaves the max alone
        top = np.maximum.reduce(T / np.maximum(Q, TINY), axis=axis,
                                keepdims=keep)
        done = top - s <= RADIUS_RTOL * s
        if not lead:        # one matrix: a scalar test, no boolean reduction
            if done:
                return float(s), u
        elif done.any():
            at, done = np.arange(shape[0])[rows], done[:, 0, 0]
            parts.append((at[done], s[done], u[done]))
            if done.all():
                break
            left = ~done
            rows, A, T, s = at[left], A[left], T[left], s[left]
        Q = T / s
    else:
        raise ConvergenceError(
            f"q-radius bracket at q = {q:g} still wider than {RADIUS_RTOL:g} "
            f"relative after {RADIUS_MAXITER} steps")
    vals, wits = np.empty(shape[0]), np.empty((shape[0], N))
    for at, val, wit in parts:
        vals[at], wits[at] = val[:, 0, 0], wit[:, :, 0]
    return vals.reshape(lead), wits.reshape(*lead, N)


def q_radius(A, q, return_witness=False):
    """max_f R_q(A, f) for q in [1, inf], plus the q = 0 convention.

    Exact closed forms at q in {0, 1, inf}. For finite q > 1 the value is a
    certified lower bound whose bracket has relative width <= RADIUS_RTOL
    (see `_fixed_point_radius`); ConvergenceError if it does not close.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise GraphError("matrix must be square")
    if np.any(A < 0) or not np.array_equal(A, A.T):
        raise GraphError("matrix must be nonnegative symmetric")
    if q == 0:
        return (INF, None) if return_witness else INF
    if q < 1:
        raise GraphError("q-radius defined for q in [1, inf] or q = 0")
    if q == 1:
        rows = A.sum(axis=1)
        val = float(rows.max())
        # near-maximizer: the quotient averages in-support degrees, so a
        # point mass alone scores zero; spread a vanishing tail elsewhere
        wit = np.full(A.shape[0], 1e-9)
        wit[int(rows.argmax())] = 1.0
        return (val, wit) if return_witness else val
    if np.isinf(q):
        cols = A.sum(axis=0)
        val = float(cols.max())
        # near-maximizer: the quotient averages over the argmax set of f, so
        # a flat witness only certifies the value on regular matrices
        wit = np.full(A.shape[0], 1.0 - 1e-9)
        wit[int(cols.argmax())] = 1.0
        return (val, wit) if return_witness else val
    val, wit = _fixed_point_radius(A, q)
    return (val, wit) if return_witness else val


def subgraph_q_radius(view: SubgraphView, q):
    return q_radius(view.submatrix, q)


@dataclass(frozen=True)
class FaberKrahnResult:
    value: float
    witness: tuple


def _canonical_subsets(group, m):
    """The lexicographically first member of every orbit of m-subsets under
    the permutation rows of `group` (row 0 the identity), as index rows of
    shape (orbits, m) in lexicographic order. Both searches over m-subsets
    take their orbits from here: `faber_krahn_exact` and the p = 0 support
    faces of `sobolev.xi_pq_n`.

    Orderly generation: a subset S with image weights
    w_g(S) = sum_{v in S} 2^(N-1-g[v]) is first in its orbit when no image
    outweighs it. Removing the largest vertex of such a set leaves one, so
    each level extends the first (k-1)-sets by a vertex above their largest
    and keeps what passes; rows stay in lexicographic order because parents
    are taken in order and their extensions by increasing vertex.
    """
    N = group.shape[1]
    # int32 holds every sum of distinct weights while N <= 31; the searches
    # cap N at 20 (`eigvalsh` at q = 2) or SUBSET_SEARCH_BUDGET
    weight = np.left_shift(1, N - 1 - group.astype(np.int32)).T.copy()
    rows = np.empty((1, 0), dtype=np.intp)
    images = np.zeros((1, len(group)), dtype=np.int32)
    vert, last = np.arange(N), np.full(1, -1)
    for k in range(1, m + 1):
        # a vertex above the largest, leaving room for the m - k still to come
        parent, v = np.nonzero(vert[:N - (m - k)] > last[:, None])
        images = images[parent]
        images += weight[v]
        first = images.max(axis=1) == images[:, 0]
        last = v[first]
        rows = np.concatenate((rows[parent[first]], last[:, None]), axis=1)
        images = images[first]
    return rows


def _subset_chunks(G, n, N, m):
    """Index rows of the m-subsets to score, SUBSET_CHUNK at a time, in
    lexicographic order: every subset when one chunk holds them all or the
    symmetry group of G^n is trivial, else one subset per orbit."""
    total = math.comb(N, m)
    if total > SUBSET_CHUNK:
        group = automorphisms(graph_generator(G), n)
        if len(group) > 1:
            rows = _canonical_subsets(group, m)
            for i in range(0, len(rows), SUBSET_CHUNK):
                yield rows[i:i + SUBSET_CHUNK]
            return
    subsets = combinations(range(N), m)
    for _ in range(0, total, SUBSET_CHUNK):
        yield np.fromiter(chain.from_iterable(islice(subsets, SUBSET_CHUNK)),
                          dtype=np.intp).reshape(-1, m)


def faber_krahn_exact(G: Graph, n: int, q, m: int) -> FaberKrahnResult:
    """max rho_q over induced subgraphs of G^n with at most m vertices.

    Exact over supports of size exactly m: enlarging the support can only
    increase the maximum of R_q. Every m-subset is covered, up to symmetry.
    Where the m-subsets fill more than one SUBSET_CHUNK and the group
    `semigroup.automorphisms(graph_generator(G), n)` is nontrivial, only
    the lexicographically first subset of each orbit is scored (see
    `_canonical_subsets`): an automorphism maps an induced subgraph onto an
    isomorphic one, so an orbit shares one rho_q. Within the group caps that
    happens only at |V|^n = 16 (K2^4, K4^2, C4^2: 74 and 32 orbits of
    12,870 8-subsets for the first two). Every other search takes all
    m-subsets: where one chunk holds them, building the orbits costs more
    than scoring every subset. `sobolev.xi_pq_n` takes its p = 0 support
    faces from the same generator, with no all-subsets path.
    Connected-only enumeration is not used; its soundness for general q is
    not settled here.

    The subsets are taken in lexicographic order, SUBSET_CHUNK at a time,
    and each chunk's induced submatrices are gathered into one stack. Subsets
    whose max induced degree does not beat the incumbent are pruned
    (rho_q <= max row sum for q in [1, inf]); the rest are scored by one
    stacked call: `eigvalsh` at q = 2 (kept apart from the q-radius solver so
    the dual-route identity compares two independent routes), the exact max
    row sum at q = 1, and otherwise the certified lower bound of
    `_fixed_point_radius`, within RADIUS_RTOL relative of the true value.
    The incumbent is then replayed subset by subset: the witness is the
    lexicographically first subset that beats the incumbent before it by more
    than 1e-12, in degree bound and in value. The orbit search keeps that
    rule: the rest of an orbit comes after its first member and ties with it
    up to rounding, so none of them can beat the incumbent by 1e-12 once the
    first has been scored, and value and witness come out as from the full
    search.
    """
    if q != 2 and not (1 <= q < INF):
        raise GraphError("requires q in [1, inf)")
    # the q-radius loop costs more per subset than `eigvalsh` at q = 2
    cap = 20 if q == 2 else SUBSET_SEARCH_BUDGET
    if G.nvertices ** n > cap:
        raise GraphError(f"enumeration budget |V|^n <= {cap} exceeded")
    An = cartesian_power(G, n).adjacency
    N = An.shape[0]
    if not (1 <= m <= N):
        raise GraphError("need 1 <= m <= |V|^n")
    best, wit = 0.0, tuple(range(m))
    for idx in _subset_chunks(G, n, N, m):
        sub = An[idx[:, :, None], idx[:, None, :]]
        deg = np.maximum.reduce(np.add.reduce(sub, axis=2), axis=1)
        live = np.nonzero(deg > best + 1e-12)[0]    # the degree bound passes
        if not live.size:
            continue
        if live.size < len(sub):           # no copy when every subset is live
            sub = sub[live]
        bound = deg[live]
        score = (bound if q == 1 else np.linalg.eigvalsh(sub)[:, -1] if q == 2
                 else _fixed_point_radius(sub, q)[0])
        # replay: the incumbent only rises, so each later winner of the chunk
        # is among the subsets that beat it now
        ahead = np.nonzero(score > best + 1e-12)[0]
        while ahead.size:
            i, ahead = ahead[0], ahead[1:]
            best, wit = float(score[i]), tuple(idx[live[i]].tolist())
            if ahead.size:
                ahead = ahead[(bound[ahead] > best + 1e-12)
                              & (score[ahead] > best + 1e-12)]
    return FaberKrahnResult(best, wit)


def faber_krahn_bound(d: int, q, conv_curve, n: int, m: int) -> float:
    """Curve upper bound n(d - (q-1) conv Xi_q(alpha )), alpha from (|V|, m).

    The curve, a `sobolev.SampledCurve`, must come from the chain generated
    by L = A - dI on the base graph (uniform law), so |V| is read off the
    curve's alphabet size.

    The value is a best-found bound, not a certified one. The envelope is
    interpolated by chords, which lie above a convex curve, and a sampled
    Xi_q is the least value the optimizer found, at or above the true one;
    both pull the bound down. `rslab faber-krahn --graph hypercube --n 3
    --q 2 --m 4 --bound` prints 2.27438674377 from its sampled 64-point
    curve; the closed-form curve gives 2.27441092, and the exact maximum is
    2.
    """
    if q <= 1:
        raise GraphError("bound defined for q > 1")
    if conv_curve.kind != "conv_xi_q":
        raise GraphError("expected a convex-envelope curve")
    if conv_curve.nstates is None:
        raise GraphError("curve does not record its alphabet size")
    if n < 1 or m < 1:
        raise GraphError("need n >= 1 and m >= 1")
    alpha = math.log(conv_curve.nstates) - math.log(m) / n
    g = conv_curve.grid
    if alpha < g[0] - 1e-12 or alpha > g[-1] + 1e-12:
        raise GraphError(f"alpha {alpha:.6f} outside curve range")
    val = float(np.interp(alpha, g, conv_curve.values))
    return n * (d - (q - 1.0) * val)


def hamming_shell_subgraph(n: int, radii) -> SubgraphView:
    """Vertices of the n-cube whose Hamming weight lies in the radius set."""
    radii = set(int(r) for r in radii)
    if not radii or not radii.issubset(range(n + 1)):
        raise GraphError("radii must be a nonempty subset of 0..n")
    cube = hypercube_graph(n)
    weights = np.array([bin(x).count("1") for x in range(2 ** n)])
    verts = [int(x) for x in np.flatnonzero(np.isin(weights, sorted(radii)))]
    return SubgraphView(cube, tuple(verts))
