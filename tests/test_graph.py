import math
from itertools import combinations

import numpy as np
import pytest

from rslab.graph_spectral import (
    INF,
    RADIUS_RTOL,
    SUBSET_CHUNK,
    ConvergenceError,
    FaberKrahnResult,
    Graph,
    GraphError,
    SubgraphView,
    _canonical_subsets,
    _fixed_point_radius,
    cartesian_power,
    complete_graph,
    cycle_graph,
    faber_krahn_bound,
    faber_krahn_exact,
    graph_generator,
    hamming_shell_subgraph,
    hypercube_graph,
    load_graph,
    q_radius,
    rayleigh_q,
    subgraph_q_radius,
)
from rslab.semigroup import as_function, automorphisms, dirichlet_form_raw
from rslab.sobolev import (
    SampledCurve,
    conv_envelope,
    hinv,
    sample_binary_curve,
    xi_pq_n,
)
from util import random_regular_graph

P3 = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
STAR4 = np.array([[0.0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])


def unit_rate_conv_curve(q, size=512):
    return conv_envelope(sample_binary_curve(q, size, scale=2.0))


class TestGraphContainers:
    def test_validation(self):
        with pytest.raises(GraphError):
            Graph(np.zeros((2, 3)))
        with pytest.raises(GraphError):
            Graph(np.array([[0.0, 1], [0, 0]]))
        with pytest.raises(GraphError):
            Graph(np.array([[1.0, 1], [1, 1]]))
        with pytest.raises(GraphError):
            Graph(np.array([[0.0, 0.5], [0.5, 0]]))
        with pytest.raises(GraphError):
            Graph(P3)  # degrees 1, 2, 1

    def test_properties(self):
        G = complete_graph(4)
        assert G.nvertices == 4 and G.degree == 3

    def test_subgraph_view(self):
        G = hypercube_graph(2)
        view = SubgraphView(G, (3, 1, 1, 0))
        assert view.vertices == (0, 1, 3)
        expect = G.adjacency[np.ix_([0, 1, 3], [0, 1, 3])]
        assert np.array_equal(view.submatrix, expect)
        with pytest.raises(GraphError):
            SubgraphView(G, ())
        with pytest.raises(GraphError):
            SubgraphView(G, (0, 4))
        with pytest.raises(GraphError):
            SubgraphView(G, (-1,))


class TestBuildersAndIO:
    def test_builders(self):
        assert complete_graph(5).degree == 4
        assert cycle_graph(6).degree == 2
        assert np.array_equal(cycle_graph(3).adjacency,
                              complete_graph(3).adjacency)
        Q3 = hypercube_graph(3)
        assert Q3.nvertices == 8 and Q3.degree == 3
        with pytest.raises(GraphError):
            complete_graph(1)
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_cartesian_power_structure(self):
        G = cycle_graph(3)
        assert np.array_equal(cartesian_power(G, 1).adjacency, G.adjacency)
        H = cartesian_power(G, 2)
        assert H.nvertices == 9 and H.degree == 4
        assert H.adjacency.sum() == 2 * 18
        # adjacency iff the digit strings differ in exactly one coordinate
        for x in range(9):
            for y in range(9):
                dx, dy = divmod(x, 3), divmod(y, 3)
                if dx[0] == dy[0]:
                    near = G.adjacency[dx[1], dy[1]] == 1.0
                elif dx[1] == dy[1]:
                    near = G.adjacency[dx[0], dy[0]] == 1.0
                else:
                    near = False
                assert H.adjacency[x, y] == (1.0 if near else 0.0)
        # cartesian_power skips Graph's dense checks, so the four invariants
        # must hold by construction
        for base in (complete_graph(2), complete_graph(3), cycle_graph(4),
                     Graph(np.zeros((2, 2)))):
            d = base.degree
            for n in range(1, 5):
                A = cartesian_power(base, n).adjacency
                assert A.shape == (base.nvertices ** n,) * 2
                assert np.array_equal(A, A.T)
                assert not np.diag(A).any()
                assert np.all((A == 0) | (A == 1))
                assert np.all(A.sum(axis=1) == n * d)

    def test_cartesian_power_matches_cube(self):
        A = cartesian_power(complete_graph(2), 3).adjacency
        B = hypercube_graph(3).adjacency
        assert np.array_equal(A, B)

    def test_budget_and_bad_power(self):
        with pytest.raises(GraphError):
            cartesian_power(complete_graph(2), 13)
        with pytest.raises(GraphError):
            cartesian_power(complete_graph(2), 0)

    def test_load_graph_roundtrip(self, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        G = load_graph(path)
        assert np.array_equal(G.adjacency, cycle_graph(4).adjacency)

    def test_load_graph_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\n")
        with pytest.raises(GraphError):
            load_graph(bad)
        bad.write_text("2 1\n0 0\n")
        with pytest.raises(GraphError):
            load_graph(bad)
        bad.write_text("2 1\n0 5\n")
        with pytest.raises(GraphError):
            load_graph(bad)
        bad.write_text("3 2\n0 1\n1 2\n")
        with pytest.raises(GraphError):
            load_graph(bad)  # path graph is not regular
        bad.write_text("4\n")
        with pytest.raises(GraphError):
            load_graph(bad)


class TestGeneratorBridge:
    def test_single_edge(self):
        S = graph_generator(complete_graph(2))
        assert np.allclose(S.generator, [[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(S.stationary, [0.5, 0.5])

    def test_cycle_rows(self):
        S = graph_generator(cycle_graph(4))
        L = S.generator
        assert np.allclose(L.sum(axis=1), 0.0)
        assert np.allclose(np.diag(L), -2.0)
        assert L[0, 1] == 1.0 and L[0, 2] == 0.0

    def test_cube(self):
        S = graph_generator(hypercube_graph(3))
        assert S.nstates == 8
        assert np.allclose(np.diag(S.generator), -3.0)


class TestRayleighQuotient:
    def test_interior_orders(self):
        A = complete_graph(2).adjacency
        f = np.array([1.0, 2.0])
        assert rayleigh_q(A, f, 2) == pytest.approx(4.0 / 5.0, abs=1e-12)
        # q = 3: (1*4 + 2*1) / (1 + 8)
        assert rayleigh_q(A, f, 3) == pytest.approx(6.0 / 9.0, abs=1e-12)
        # q = 1 weighs in-support degrees: (1*1 + 2*1) / 3
        assert rayleigh_q(A, f, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_order(self):
        A = complete_graph(2).adjacency
        # full support: sum f(x) A f^{-1}(x) / |supp|
        assert rayleigh_q(A, [1.0, 2.0], 0) == pytest.approx(1.25, abs=1e-12)
        # support boundary carries weight: +inf
        Q2 = hypercube_graph(2).adjacency
        assert rayleigh_q(Q2, [1.0, 0, 0, 0], 0) == INF

    def test_max_order(self):
        A = complete_graph(2).adjacency
        assert rayleigh_q(A, [1.0, 0.5], INF) == pytest.approx(0.5, abs=1e-12)
        # flat function averages column sums over the argmax set
        assert rayleigh_q(STAR4, np.ones(4), INF) == pytest.approx(6.0 / 4.0)

    def test_fractional_orders(self):
        assert rayleigh_q(P3, np.ones(3), 0.5) == pytest.approx(4.0 / 3.0)
        Q2 = hypercube_graph(2).adjacency
        assert rayleigh_q(Q2, [1.0, 0, 0, 0], 0.5) == INF

    def test_function_wrapper_accepted(self):
        A = complete_graph(2).adjacency
        f = as_function(np.array([1.0, 2.0]), 2)
        assert rayleigh_q(A, f, 2) == pytest.approx(0.8)

    def test_errors(self):
        A = complete_graph(2).adjacency
        with pytest.raises(GraphError):
            rayleigh_q(A, [1.0, 2.0, 3.0], 2)
        with pytest.raises(GraphError):
            rayleigh_q(A, [-1.0, 2.0], 2)
        with pytest.raises(GraphError):
            rayleigh_q(A, [0.0, 0.0], 2)
        with pytest.raises(GraphError):
            rayleigh_q(A, [1.0, 1.0], -1)


class TestQRadius:
    def test_conventions(self):
        assert q_radius(P3, 0) == INF
        with pytest.raises(GraphError):
            q_radius(P3, 0.5)
        with pytest.raises(GraphError):
            q_radius(np.array([[0.0, 1], [0, 0]]), 2)
        with pytest.raises(GraphError):
            q_radius(np.array([[0.0, -1], [-1, 0]]), 2)

    def test_rejects_near_symmetric(self):
        # the certified bracket's upper side needs A exactly symmetric; a
        # relative asymmetry of 5e-6 passes np.allclose's default rtol
        with pytest.raises(GraphError):
            q_radius([[0, 1, 0], [1 + 5e-6, 0, 1], [0, 1, 0]], 2)

    def test_path_closed_values(self):
        assert q_radius(P3, 1) == 2.0
        assert q_radius(P3, INF) == 2.0
        assert q_radius(P3, 2) == pytest.approx(math.sqrt(2), abs=1e-8)
        # interior orders sit between the spectral radius and the degree cap
        v15 = q_radius(P3, 1.5)
        assert v15 == pytest.approx(1.4248368548, abs=1e-8)

    def test_regular_graphs_are_flat_in_q(self):
        rng = np.random.default_rng(11)
        for nv, d in [(6, 2), (6, 3), (8, 3), (10, 4), (12, 5)]:
            G = random_regular_graph(nv, d, rng)
            for q in (1, 1.4, 2, 3.5, INF):
                assert q_radius(G.adjacency, q) == pytest.approx(d, abs=1e-6)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        G = random_regular_graph(10, 4, rng)
        sub = G.adjacency[np.ix_(range(6), range(6))]
        for A in (P3, STAR4, sub):
            for q in (3.0, 5.0, 2.5):
                qc = q / (q - 1.0)
                assert q_radius(A, q) == pytest.approx(q_radius(A, qc),
                                                       abs=1e-6)

    def test_monotone_in_q(self):
        for A in (P3, STAR4):
            down = [q_radius(A, q) for q in (1, 1.2, 1.5, 2)]
            assert all(a >= b - 1e-6 for a, b in zip(down, down[1:]))
            up = [q_radius(A, q) for q in (2, 3, 6, INF)]
            assert all(a <= b + 1e-6 for a, b in zip(up, up[1:]))

    def test_witness_certifies_value(self):
        for A in (P3, STAR4, hypercube_graph(2).adjacency):
            for q in (1, 1.5, 2, 3):
                val, wit = q_radius(A, q, return_witness=True)
                assert rayleigh_q(A, wit, q) == pytest.approx(val, abs=1e-7)
            val, wit = q_radius(A, INF, return_witness=True)
            assert rayleigh_q(A, wit, INF) == pytest.approx(val, rel=1e-8)

    def test_repeated_calls_are_bit_identical(self):
        for A in (P3, STAR4):
            for q in (1.7, 2.0, 4.0):
                a, wa = q_radius(A, q, return_witness=True)
                b, wb = q_radius(A, q, return_witness=True)
                assert a == b
                assert np.array_equal(wa, wb)


def random_graph(nv, p, rng):
    A = np.triu((rng.random((nv, nv)) < p).astype(float), 1)
    return A + A.T


class TestRadiusCertificate:
    """sum T(Q) <= rho_q <= max T(Q)/Q for Q = wit^q, rebuilt here."""

    def test_bracket_closes_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        graphs = [random_graph(int(rng.integers(3, 12)),
                               rng.uniform(0.2, 0.8), rng) for _ in range(24)]
        # two components, a graph with isolated vertices, an edgeless one
        graphs.append(np.kron(np.eye(2), complete_graph(3).adjacency))
        graphs.append(np.pad(STAR4, (0, 3)))
        graphs.append(np.zeros((3, 3)))
        for A in graphs:
            for q in (1.01, 1.25, 1.5, 2.0, 3.0, 10.0, 50.0):
                val, wit = q_radius(A, q, return_witness=True)
                if not A.any():
                    assert val == 0.0
                    continue
                Q = wit ** q
                u, w = Q ** (1.0 / q), Q ** (1.0 - 1.0 / q)
                T = u * (A @ w) / q + w * (A @ u) * (1.0 - 1.0 / q)
                low, sup = T.sum(), Q > 0
                high = (T[sup] / Q[sup]).max()
                assert val == pytest.approx(low, rel=1e-13)
                assert high - low <= RADIUS_RTOL * low
                if q == 2.0:
                    top = np.linalg.eigvalsh(A)[-1]
                    assert val == pytest.approx(top, rel=1e-10)

    def test_cap_fails_loudly(self):
        # spectral radii 1 and 1 - 1e-7: the mass on the second block decays
        # by 1 - 1e-7 per step, so the bracket cannot close within the cap
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1.0 - 1e-7
        for q in (1.5, 2.0, 3.0):
            with pytest.raises(ConvergenceError):
                q_radius(A, q)


class TestStackedRadius:
    def test_stack_matches_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        N = 7
        mats = [random_graph(N, p, rng) for p in (0.3, 0.5, 0.7, 0.9) * 3]
        mats.append(np.pad(STAR4, (0, N - 4)))         # isolated vertices
        mats.append(np.zeros((N, N)))                   # edgeless
        weights = np.triu(rng.uniform(0.1, 2.0, (N, N)), 1)
        mats.append(weights + weights.T)
        stack = np.array(mats)
        for q in (1.01, 1.25, 1.5, 1.999999, 2.0, 3.0, 10.0):
            vals, wits = _fixed_point_radius(stack, q)
            assert vals.shape == (len(mats),)
            assert wits.shape == (len(mats), N)
            for A, val, wit in zip(mats, vals, wits):
                one, one_wit = _fixed_point_radius(A, q)
                assert type(one) is float
                assert one == val
                assert one_wit.tobytes() == wit.tobytes()
            assert vals[-2] == 0.0
            # leading axes are kept
            v4, w4 = _fixed_point_radius(stack[:12].reshape(3, 4, N, N), q)
            assert v4.tobytes() == vals[:12].reshape(3, 4).tobytes()
            assert w4.tobytes() == wits[:12].reshape(3, 4, N).tobytes()

    def test_stack_fails_loudly_if_one_matrix_cannot_close(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1.0 - 1e-7
        with pytest.raises(ConvergenceError):
            _fixed_point_radius(np.array([complete_graph(4).adjacency, A]),
                                2.0)


class TestSubgraphRadius:
    def test_full_view_matches_parent(self):
        G = hypercube_graph(2)
        view = SubgraphView(G, tuple(range(4)))
        assert subgraph_q_radius(view, 2) == pytest.approx(2.0, abs=1e-9)

    def test_small_views(self):
        G = hypercube_graph(2)
        assert subgraph_q_radius(SubgraphView(G, (2,)), 2) == 0.0
        # an edge of the square
        assert subgraph_q_radius(SubgraphView(G, (0, 1)), 2) == \
            pytest.approx(1.0, abs=1e-10)


class TestFaberKrahnExact:
    def test_single_vertex(self):
        res = faber_krahn_exact(complete_graph(2), 2, 2, 1)
        assert res == FaberKrahnResult(0.0, (0,))

    def test_square_and_cube_values(self):
        res = faber_krahn_exact(complete_graph(2), 2, 2, 2)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.witness == (0, 1)
        res = faber_krahn_exact(complete_graph(2), 3, 2, 4)
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.witness == (0, 1, 2, 3)  # a 2-dimensional subcube

    def test_max_row_order_prefers_stars(self):
        res = faber_krahn_exact(complete_graph(2), 3, 1, 4)
        assert res.value == 3.0
        assert res.witness == (0, 1, 2, 4)  # vertex 0 with its 3 neighbors

    def test_monotone_in_size(self):
        vals = [faber_krahn_exact(complete_graph(2), 3, 2, m).value
                for m in (2, 3, 4, 8)]
        assert vals == sorted(vals)
        assert vals[1] == pytest.approx(math.sqrt(2), abs=1e-10)
        assert vals[3] == pytest.approx(3.0, abs=1e-10)

    def test_interior_order_matches_spectral_limit(self):
        near = faber_krahn_exact(complete_graph(2), 2, 1.999999, 3).value
        spectral = faber_krahn_exact(complete_graph(2), 2, 2, 3).value
        assert near == pytest.approx(spectral, abs=1e-4)

    def test_errors(self):
        with pytest.raises(GraphError, match="enumeration budget"):
            faber_krahn_exact(complete_graph(2), 13, 2, 4)    # refused unbuilt
        with pytest.raises(GraphError):
            faber_krahn_exact(complete_graph(2), 5, 1.5, 4)   # 32 > 16
        with pytest.raises(GraphError):
            faber_krahn_exact(complete_graph(2), 5, 2, 4)     # 32 > 20
        with pytest.raises(GraphError):
            faber_krahn_exact(complete_graph(2), 2, 2, 0)
        with pytest.raises(GraphError):
            faber_krahn_exact(complete_graph(2), 2, 2, 5)
        with pytest.raises(GraphError):
            faber_krahn_exact(complete_graph(2), 2, 0.8, 2)


def per_subset_faber_krahn(G, n, q, m):
    """The one-subset-at-a-time search that the stacked one replays."""
    An = cartesian_power(G, n).adjacency
    if m == 1:
        return FaberKrahnResult(0.0, (0,))
    best, wit = 0.0, tuple(range(m))
    for subset in combinations(range(An.shape[0]), m):
        idx = np.array(subset)
        sub = An[np.ix_(idx, idx)]
        if sub.sum(axis=1).max() <= best + 1e-12:
            continue
        val = (float(np.linalg.eigvalsh(sub)[-1]) if q == 2
               else q_radius(sub, q))
        if val > best + 1e-12:
            best, wit = val, subset
    return FaberKrahnResult(best, wit)


def brute_force_faber_krahn(G, n, q, m):
    """Every m-subset scored on its own, with no pruning, chunks or orbits,
    then "first to beat the incumbent by 1e-12" replayed in lexicographic
    order. At q = 2 one `eigvalsh` call takes the whole stack, which LAPACK
    solves matrix by matrix; otherwise `q_radius` runs once per subset."""
    An = cartesian_power(G, n).adjacency
    if m == 1:
        return FaberKrahnResult(0.0, (0,))
    idx = np.array(list(combinations(range(An.shape[0]), m)))
    subs = An[idx[:, :, None], idx[:, None, :]]
    scores = (np.linalg.eigvalsh(subs)[:, -1] if q == 2
              else [q_radius(sub, q) for sub in subs])
    best, wit = 0.0, tuple(range(m))
    for row, val in zip(idx, scores):
        if val > best + 1e-12:
            best, wit = float(val), tuple(row.tolist())
    return FaberKrahnResult(best, wit)


SIXTEEN_VERTEX_POWERS = pytest.mark.parametrize(
    "G, n", [(complete_graph(2), 4), (complete_graph(4), 2),
             (cycle_graph(4), 2)], ids=["K2^4", "K4^2", "C4^2"])


@SIXTEEN_VERTEX_POWERS
def test_canonical_subsets_are_the_orbit_firsts(G, n):
    # every subset of the 16 vertices as a bitmask, vertex 0 the top bit, so
    # the larger mask of two equal-size subsets is the lexicographically
    # first; a subset is first in its orbit when no image has a larger mask
    group = automorphisms(graph_generator(G), n)
    N = group.shape[1]
    masks = np.arange(1 << N)
    member = (masks[:, None] >> np.arange(N - 1, -1, -1)) & 1
    top = np.zeros(1 << N)
    for g in np.array_split(group, -(-len(group) // 64)):
        # float products: every mask is below 2^16, exact in a double
        top = np.maximum(top, (member @ 2.0 ** (N - 1 - g.T)).max(axis=1))
    first, size = top == masks, member.sum(axis=1)
    for m in range(1, N + 1):
        want = sorted(tuple(np.flatnonzero(member[x]).tolist())
                      for x in np.flatnonzero(first & (size == m)))
        assert [tuple(r) for r in _canonical_subsets(group, m).tolist()] \
            == want, m


@SIXTEEN_VERTEX_POWERS
def test_faber_krahn_matches_brute_force(G, n):
    # 16 vertices: the sizes 3 <= m <= 13 fill more than one chunk and take
    # the orbit search; m > 8 and the cycle base are covered too
    for q, ms in ((2, range(1, 17)), (1.5, (4, 12))):
        for m in ms:
            got = faber_krahn_exact(G, n, q, m)
            want = brute_force_faber_krahn(G, n, q, m)
            assert repr(got.value) == repr(want.value), (q, m)
            assert got.witness == want.witness, (q, m)


def prism_plus_k4():
    """3-regular on 16 vertices: the hexagonal prism on 0..11, which has no
    triangle, and a K4 on 12..15, so the one best 4-subset at q = 2 is the
    last in lexicographic order."""
    A = np.zeros((16, 16))
    for i in range(6):
        for a, b in ((i, (i + 1) % 6), (6 + i, 6 + (i + 1) % 6), (i, 6 + i)):
            A[a, b] = A[b, a] = 1.0
    A[12:, 12:] = complete_graph(4).adjacency
    return Graph(A)


class TestStackedSearch:
    """The chunked search against the per-subset loop, value and witness."""

    @staticmethod
    def check(G, n, q, m):
        got = faber_krahn_exact(G, n, q, m)
        want = per_subset_faber_krahn(G, n, q, m)
        assert repr(got.value) == repr(want.value)
        assert got.witness == want.witness
        assert all(type(v) is int for v in got.witness)
        return got

    @pytest.mark.parametrize("q", [1, 1.25, 1.5, 1.999999, 2, 3])
    @pytest.mark.parametrize("b, n", [(2, 2), (2, 3), (3, 2)])
    def test_small_powers(self, b, n, q):
        for m in range(1, b ** n + 1):
            self.check(complete_graph(b), n, q, m)

    @pytest.mark.parametrize("b, n", [(4, 2), (2, 4)])
    def test_sixteen_vertices_at_q2(self, b, n):
        for m in (2, 3, 5, 6, 7, 8, 15, 16):
            self.check(complete_graph(b), n, 2, m)

    @pytest.mark.parametrize("q", [1, 1.5, 2, 3])
    def test_cycle_base(self, q):
        for m in (2, 3, 4, 5, 14, 16):
            self.check(cycle_graph(4), 2, q, m)

    @pytest.mark.parametrize("q", [1, 1.5, 2])
    def test_witness_beyond_the_first_chunk(self, q):
        G = prism_plus_k4()
        res = self.check(G, 1, q, 4)
        ranks = {s: i for i, s in enumerate(combinations(range(16), 4))}
        if q == 1:
            assert ranks[res.witness] < SUBSET_CHUNK    # a star comes first
        else:
            assert res.witness == (12, 13, 14, 15)
            assert ranks[res.witness] == math.comb(16, 4) - 1 >= SUBSET_CHUNK


class TestDualRoutes:
    """The size-constrained maximum against the entropy-curve machinery."""

    def test_pointwise_shift_identity(self):
        # R_q(A', f') = nd - E_n(f, f^{q-1}) / <f^q>  for supp(f) in V'
        G = complete_graph(3)
        S = graph_generator(G)
        n, d = 2, G.degree
        An = cartesian_power(G, n).adjacency
        N = An.shape[0]
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(2, N + 1))
            idx = np.sort(rng.choice(N, size=k, replace=False))
            f = np.zeros(N)
            f[idx] = rng.uniform(0.2, 2.0, size=k)
            for q in (1.0, 1.5, 2.0, 3.0):
                g = np.where(f > 0, f, 1.0) ** (q - 1.0) * (f > 0)
                lhs = rayleigh_q(An[np.ix_(idx, idx)], f[idx], q)
                ebar = dirichlet_form_raw(S, f, g, n) \
                    / float((f[idx] ** q).sum() / N)
                assert lhs == pytest.approx(n * d - ebar, abs=1e-10)

    def test_support_curve_identity(self):
        # max rho_q over m-subsets of the n-cube equals
        # n(d - (q-1) Xi^(n)_{0,q}(alpha)) at alpha = ln|V| - ln(m)/n
        K2 = complete_graph(2)
        S = graph_generator(K2)
        for (n, q, m) in [(2, 2.0, 2), (2, 2.0, 3), (2, 3.0, 2)]:
            alpha = math.log(2) - math.log(m) / n
            exact = faber_krahn_exact(K2, n, q, m).value
            xi = xi_pq_n(S, 0.0, q, n, alpha)
            assert exact == pytest.approx(n * (1.0 - (q - 1.0) * xi),
                                          abs=1e-8)


class TestFaberKrahnBound:
    def test_full_cube_is_tight(self):
        conv = unit_rate_conv_curve(2.0)
        for n in (2, 3, 4):
            bound = faber_krahn_bound(1, 2.0, conv, n, 2 ** n)
            assert bound == pytest.approx(float(n), abs=1e-9)

    def test_matches_binary_closed_form(self):
        conv = unit_rate_conv_curve(2.0)
        for (n, m) in [(2, 2), (3, 2), (3, 4), (4, 6)]:
            y = hinv(math.log(m) / n)
            expect = n * 2.0 * math.sqrt(y * (1.0 - y))
            got = faber_krahn_bound(1, 2.0, conv, n, m)
            assert got == pytest.approx(expect, abs=1e-5)

    def test_dominates_exact_maximum(self):
        for q, sizes in [(2.0, [(2, 2), (2, 3), (2, 4), (3, 2), (3, 4),
                                (3, 8)]),
                         (1.5, [(2, 3), (3, 4)]),
                         (3.0, [(2, 3), (3, 4)])]:
            conv = unit_rate_conv_curve(q)
            for n, m in sizes:
                exact = faber_krahn_exact(complete_graph(2), n, q, m).value
                bound = faber_krahn_bound(1, q, conv, n, m)
                assert exact <= bound + 1e-9

    def test_errors(self):
        conv = unit_rate_conv_curve(2.0)
        raw = sample_binary_curve(2.0, 64, scale=2.0)
        with pytest.raises(GraphError):
            faber_krahn_bound(1, 1.0, conv, 2, 2)
        with pytest.raises(GraphError):
            faber_krahn_bound(1, 2.0, raw, 2, 2)
        with pytest.raises(GraphError):
            faber_krahn_bound(1, 2.0, conv, 0, 2)
        with pytest.raises(GraphError):
            faber_krahn_bound(1, 2.0, conv, 1, 1)  # alpha = ln 2 off-grid
        anon = SampledCurve(np.array([0.0, 0.1, 0.2]),
                            np.array([0.0, 0.1, 0.2]), "conv_xi_q", 2.0)
        with pytest.raises(GraphError):
            faber_krahn_bound(1, 2.0, anon, 2, 2)


class TestHammingShells:
    def test_single_shell_is_edgeless(self):
        view = hamming_shell_subgraph(3, {1})
        assert view.vertices == (1, 2, 4)
        assert np.all(view.submatrix == 0.0)

    def test_full_ball_recovers_cube(self):
        view = hamming_shell_subgraph(3, range(4))
        assert len(view.vertices) == 8
        assert subgraph_q_radius(view, 2) == pytest.approx(3.0, abs=1e-9)

    def test_duplicates_collapse(self):
        view = hamming_shell_subgraph(3, (2, 2, 0))
        assert view.vertices == (0, 3, 5, 6)

    def test_ball_stays_below_curve_bound(self):
        n = 6
        view = hamming_shell_subgraph(n, range(3))
        m = len(view.vertices)
        assert m == 22
        rho = subgraph_q_radius(view, 2)
        bound = faber_krahn_bound(1, 2.0, unit_rate_conv_curve(2.0), n, m)
        assert 0.0 < rho <= bound + 1e-9

    def test_errors(self):
        with pytest.raises(GraphError):
            hamming_shell_subgraph(3, set())
        with pytest.raises(GraphError):
            hamming_shell_subgraph(3, {4})
        with pytest.raises(GraphError):
            hamming_shell_subgraph(3, {-1})
