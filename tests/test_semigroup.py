from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rslab.semigroup import (
    ENUMERATION_BUDGET,
    NonnegFunction,
    Semigroup,
    SemigroupError,
    _axis_apply,
    apply_generator,
    as_function,
    automorphisms,
    binary_semigroup,
    carre_du_champ,
    derivative_check,
    dirichlet_form,
    dirichlet_rows,
    generator_rows,
    heat_operator,
    kronecker_sum,
    load_generator,
    normalized_dirichlet_form,
    pi_product,
    product_heat_apply,
    sequence_digits,
    validate_semigroup,
)
from util import KERNEL_SETTINGS


def cycle_generator(m):
    L = np.zeros((m, m))
    for i in range(m):
        L[i, (i + 1) % m] = 1.0
        L[i, (i - 1) % m] = 1.0
        L[i, i] = -2.0
    return L


def rand_positive(rng, size):
    return rng.uniform(0.2, 3.0, size=size)


class TestValidation:
    def test_binary_default_pi(self):
        S = binary_semigroup()
        assert np.allclose(S.stationary, [0.5, 0.5])
        assert np.allclose(S.generator, [[-0.5, 0.5], [0.5, -0.5]])

    def test_bad_row_sum(self):
        with pytest.raises(SemigroupError):
            validate_semigroup([[-1.0, 2.0], [2.0, -1.0]])

    def test_asymmetric(self):
        with pytest.raises(SemigroupError):
            validate_semigroup([[-1.0, 1.0], [0.5, -0.5]])

    def test_negative_offdiag(self):
        with pytest.raises(SemigroupError):
            validate_semigroup([[1.0, -1.0], [-1.0, 1.0]])

    def test_budget(self):
        with pytest.raises(SemigroupError):
            NonnegFunction(np.ones(2 ** 21), 2, 21)

    def test_load_generator_roundtrip(self, tmp_path):
        p = tmp_path / "gen.txt"
        p.write_text("-0.5 0.5\n0.5 -0.5\n")
        L = load_generator(p)
        S = validate_semigroup(L)
        assert S.nstates == 2


class TestHeatOperator:
    def test_binary_closed_form(self):
        S = binary_semigroup()
        for t in (0.0, 0.3, 1.7):
            T = heat_operator(S, t)
            want = np.array([
                [(1 + np.exp(-t)) / 2, (1 - np.exp(-t)) / 2],
                [(1 - np.exp(-t)) / 2, (1 + np.exp(-t)) / 2],
            ])
            assert np.allclose(T, want, atol=1e-12)

    def test_identity_at_zero(self):
        S = validate_semigroup(cycle_generator(5))
        assert np.allclose(heat_operator(S, 0.0), np.eye(5), atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(SemigroupError):
            heat_operator(binary_semigroup(), -0.1)

    def test_taylor_oracle_cycle(self):
        # independent oracle: scaling and squaring of a truncated Taylor series
        S = validate_semigroup(cycle_generator(3))
        t = 1.0
        k = 10
        A = S.generator * (t / 2 ** k)
        T = np.eye(3)
        term = np.eye(3)
        for j in range(1, 20):
            term = term @ A / j
            T = T + term
        for _ in range(k):
            T = T @ T
        assert np.max(np.abs(heat_operator(S, t) - T)) < 1e-10

    def test_row_stochastic(self):
        S = validate_semigroup(cycle_generator(4))
        T = heat_operator(S, 0.9)
        assert np.max(np.abs(T.sum(axis=1) - 1.0)) < 1e-10
        assert T.min() > -1e-12

    def test_semigroup_property(self):
        S = validate_semigroup(cycle_generator(4))
        for s, t in [(0.1, 0.2), (1.0, 0.5), (2.0, 3.0)]:
            lhs = heat_operator(S, s + t)
            rhs = heat_operator(S, s) @ heat_operator(S, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestCarreDuChamp:
    def test_binary_hand_value(self):
        S = binary_semigroup()
        f = NonnegFunction(np.array([0.0, 1.0]), 2, 1)
        gam = carre_du_champ(S, f, f)
        assert np.allclose(gam, [0.25, 0.25], atol=1e-14)

    def test_constant_function(self):
        S = binary_semigroup()
        f = NonnegFunction(np.full(4, 3.0), 2, 2)
        assert np.allclose(carre_du_champ(S, f, f), 0.0, atol=1e-14)

    def test_nonnegative_diagonal(self):
        rng = np.random.default_rng(0)
        S = validate_semigroup(cycle_generator(3))
        for _ in range(50):
            f = NonnegFunction(rand_positive(rng, 9), 3, 2)
            assert carre_du_champ(S, f, f).min() > -1e-14

    def test_product_brute_force(self):
        # direct double-sum over both coordinates for n = 2
        S = binary_semigroup()
        rng = np.random.default_rng(1)
        L = S.generator
        for _ in range(10):
            fv = rng.uniform(0, 2, size=4)
            gv = rng.uniform(0, 2, size=4)
            f = NonnegFunction(fv, 2, 2)
            g = NonnegFunction(gv, 2, 2)
            got = carre_du_champ(S, f, g)
            want = np.zeros(4)
            for x1 in range(2):
                for x2 in range(2):
                    i = 2 * x1 + x2
                    acc = 0.0
                    for y in range(2):
                        j = 2 * y + x2
                        acc += 0.5 * L[x1, y] * (fv[j] - fv[i]) * (gv[j] - gv[i])
                        j = 2 * x1 + y
                        acc += 0.5 * L[x2, y] * (fv[j] - fv[i]) * (gv[j] - gv[i])
                    want[i] = acc
            assert np.allclose(got, want, atol=1e-12)

    def test_indicator_example(self):
        S = binary_semigroup()
        f = NonnegFunction(np.array([0.0, 0.0, 0.0, 1.0]), 2, 2)
        gam = carre_du_champ(S, f, f)
        # corner (1,1) has two neighbors, each coordinate contributes 1/4
        assert np.allclose(gam, [0.0, 0.25, 0.25, 0.5], atol=1e-14)


class TestDirichletForm:
    def test_binary_hand_value(self):
        S = binary_semigroup()
        f = NonnegFunction(np.array([0.0, 1.0]), 2, 1)
        assert abs(dirichlet_form(S, f, f) - 0.25) < 1e-14

    def test_constant_zero(self):
        S = binary_semigroup()
        f = NonnegFunction(np.full(8, 2.0), 2, 3)
        g = NonnegFunction(np.arange(8, dtype=float), 2, 3)
        assert abs(dirichlet_form(S, f, g)) < 1e-14

    def test_edge_sum_formula_n2(self):
        # E(f,f) = (2^-n / 4) sum over adjacent ordered pairs of squared increments
        S = binary_semigroup()
        rng = np.random.default_rng(2)
        fv = rng.uniform(0, 1, size=4)
        f = NonnegFunction(fv, 2, 2)
        total = 0.0
        for i in range(4):
            for j in range(4):
                if bin(i ^ j).count("1") == 1:
                    total += (fv[i] - fv[j]) ** 2
        assert abs(dirichlet_form(S, f, f) - total / 4 / 4) < 1e-12

    def test_symmetry_and_generator_identity(self):
        rng = np.random.default_rng(3)
        S = validate_semigroup(cycle_generator(3))
        pin = pi_product(S, 2)
        for _ in range(200):
            fv = rng.uniform(0, 2, size=9)
            gv = rng.uniform(0, 2, size=9)
            f = NonnegFunction(fv, 3, 2)
            g = NonnegFunction(gv, 3, 2)
            e_fg = dirichlet_form(S, f, g)
            e_gf = dirichlet_form(S, g, f)
            assert abs(e_fg - e_gf) < 1e-12
            via_L = -float(pin @ (apply_generator(S, f) * gv))
            assert abs(e_fg - via_L) < 1e-10


class TestNormalizedForm:
    def test_hand_value(self):
        S = binary_semigroup()
        f = NonnegFunction(np.array([1.0, 2.0]), 2, 1)
        got = normalized_dirichlet_form(S, f, 2.0)
        assert abs(got - 0.1) < 1e-14

    def test_constant_zero(self):
        S = binary_semigroup()
        f = NonnegFunction(np.full(4, 5.0), 2, 2)
        assert abs(normalized_dirichlet_form(S, f, 3.0)) < 1e-14

    def test_zero_entries_rejected_below_one(self):
        S = binary_semigroup()
        f = NonnegFunction(np.array([0.0, 1.0]), 2, 1)
        with pytest.raises(SemigroupError):
            normalized_dirichlet_form(S, f, 0.5)


class TestDerivativeCheck:
    def test_constant(self):
        S = binary_semigroup()
        f = NonnegFunction(np.full(2, 2.0), 2, 1)
        fd, an = derivative_check(S, f, 2.0)
        assert abs(fd) < 1e-10 and abs(an) < 1e-14

    def test_hand_case(self):
        S = binary_semigroup()
        f = NonnegFunction(np.array([1.0, 2.0]), 2, 1)
        fd, an = derivative_check(S, f, 2.0)
        assert abs(fd - an) < 1e-6

    def test_random_cases(self):
        rng = np.random.default_rng(4)
        S = binary_semigroup()
        S3 = validate_semigroup(cycle_generator(3))
        for _ in range(100):
            if rng.uniform() < 0.5:
                f = NonnegFunction(rand_positive(rng, 4), 2, 2)
                q = rng.uniform(1.2, 4.0)
                fd, an = derivative_check(S, f, q)
            else:
                f = NonnegFunction(rand_positive(rng, 3), 3, 1)
                q = rng.uniform(1.2, 4.0)
                fd, an = derivative_check(S3, f, q)
            assert abs(fd - an) < 1e-6


class TestHelpers:
    def test_sequence_digits_lexicographic(self):
        d = sequence_digits(2, 3)
        # x_1 most significant: index 4 = (1,0,0)
        assert list(d[4]) == [1, 0, 0]
        assert list(d[1]) == [0, 0, 1]

    def test_pi_product(self):
        S = validate_semigroup(cycle_generator(3))
        pin = pi_product(S, 2)
        assert np.allclose(pin, np.full(9, 1.0 / 9))

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_pi_product_is_kron_reduce(self, n):
        # a non-uniform pi shows a product taken in another order
        for pi in (np.full(3, 1.0 / 3), np.array([0.1, 0.25, 0.65]),
                   np.array([0.3, 0.7])):
            S = Semigroup(np.zeros((pi.size, pi.size)), pi)
            want = reduce(np.kron, [pi] * n)
            assert pi_product(S, n).tobytes() == want.tobytes()

    def test_pi_product_refuses_empty_product(self):
        with pytest.raises(SemigroupError, match="n must be >= 1"):
            pi_product(binary_semigroup(), 0)

    def test_as_function_infers_n(self):
        f = as_function(np.ones(8), 2)
        assert f.n == 3

    def test_product_heat_preserves_mean(self):
        S = validate_semigroup(cycle_generator(3))
        rng = np.random.default_rng(5)
        v = rng.uniform(0, 1, size=9)
        pin = pi_product(S, 2)
        out = product_heat_apply(S, 0.7, v, 2)
        assert abs(pin @ out - pin @ v) < 1e-12


def kron_generator(S, n):
    m = S.nstates
    return sum(np.kron(np.kron(np.eye(m ** k), S.generator),
                       np.eye(m ** (n - 1 - k))) for k in range(n))


def complete_generator(m):
    return np.ones((m, m)) - m * np.eye(m)


class TestAutomorphisms:
    @pytest.mark.parametrize("L,n,order", [
        (complete_generator(2), 2, 8),
        (complete_generator(2), 3, 48),
        (complete_generator(3), 2, 72),
        (complete_generator(4), 2, 1152),
        (cycle_generator(4), 1, 8),
        ([[-0.7, 0.2, 0.5], [0.2, -1.1, 0.9], [0.5, 0.9, -1.4]], 1, 1),
    ], ids=["K2^2", "K2^3", "K3^2", "K4^2", "C4", "weighted3"])
    def test_group_order_and_invariance(self, L, n, order):
        S = validate_semigroup(L)
        G = automorphisms(S, n)
        N = S.nstates ** n
        assert G.shape == (order, N)
        assert np.array_equal(G[0], np.arange(N))
        assert np.array_equal(np.sort(G, axis=1), np.tile(np.arange(N),
                                                          (order, 1)))
        assert len({tuple(g) for g in G}) == order
        # exact equality: every row is a symmetry of L_n and of pi^n
        Ln, pin = kron_generator(S, n), pi_product(S, n)
        assert np.array_equal(Ln[G[:, :, None], G[:, None, :]],
                              np.broadcast_to(Ln, (order, N, N)))
        assert np.array_equal(pin[G], np.broadcast_to(pin, (order, N)))

    def test_stationary_law_breaks_symmetry(self):
        # the flip of K2 keeps L but not a biased pi; the coordinate swap
        # of K2^2 keeps both
        S = Semigroup(complete_generator(2), np.array([0.25, 0.75]))
        assert automorphisms(S, 1).shape == (1, 2)
        assert automorphisms(S, 2).tolist() == [[0, 1, 2, 3], [0, 2, 1, 3]]

    def test_tables_beyond_the_budget_give_the_trivial_group(self):
        # K2^6: 2^6 * 6! rows of 64 entries; K9: 9! letter permutations
        for L, n in ((complete_generator(2), 6), (complete_generator(9), 1)):
            S = validate_semigroup(L)
            N = S.nstates ** n
            assert automorphisms(S, n).tolist() == [list(range(N))]

    def test_cached_and_read_only(self):
        S = validate_semigroup(complete_generator(3))
        G = automorphisms(S, 2)
        assert automorphisms(validate_semigroup(complete_generator(3)),
                             2) is G
        assert not G.flags.writeable


@st.composite
def chain_batches(draw):
    """A random symmetric chain on k in {2, 3, 4} letters, a dimension n in
    {1, 2, 3} and two batches of R in {1..5} nonnegative rows over X^n."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    R = draw(st.integers(1, 5))
    rates = draw(hnp.arrays(np.float64, (k, k), elements=st.floats(0, 2)))
    A = np.triu(rates, 1)
    A = A + A.T
    S = validate_semigroup(A - np.diag(A.sum(axis=1)))
    rows = hnp.arrays(np.float64, (R, k ** n),
                      elements=st.floats(0, 3, allow_subnormal=False))
    U = draw(rows)
    V = draw(rows)
    U[:, 0] += 1.0                  # rows must not vanish for NonnegFunction
    V[:, 0] += 1.0
    return S, n, U, V


class TestKernelProperties:
    """The batched product-chain kernel against the pairwise reference."""

    @KERNEL_SETTINGS
    @given(chain_batches())
    def test_dirichlet_rows_match_carre_du_champ(self, case):
        S, n, U, V = case
        m = S.nstates
        pin = pi_product(S, n)
        rows = dirichlet_rows(S, U, V, n, pin)
        for i in range(U.shape[0]):
            f, g = NonnegFunction(U[i], m, n), NonnegFunction(V[i], m, n)
            ref = pin @ carre_du_champ(S, f, g)
            scale = n * max(1.0, np.abs(S.generator).max()) \
                * U[i].max() * V[i].max()
            assert abs(rows[i] - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_generator_rows_match_kronecker_sum(self, m, n):
        # sum_k I (x) L (x) I, built as sparse Kronecker products (dense, it
        # would not fit at m^n = 4^8). The rates are not symmetric, so a
        # contraction against L^T instead of L would show. At n = 8 and 3
        # rows the last coordinate is one (3 m^7, m) @ L^T product.
        rng = np.random.default_rng(10 * m + n)
        L = rng.uniform(0.0, 2.0, (m, m))
        np.fill_diagonal(L, 0.0)
        L -= np.diag(L.sum(axis=1))
        S = Semigroup(L, np.full(m, 1.0 / m))
        K = sum(sp.kron(sp.kron(sp.identity(m ** k), L),
                        sp.identity(m ** (n - 1 - k)))
                for k in range(n)).tocsr()
        for R in (1, 3):
            U = rng.uniform(-1.0, 3.0, (R, m ** n))
            scale = n * np.abs(L).max() * np.abs(U).max()
            err = np.abs(generator_rows(S, U, n) - (K @ U.T).T).max()
            assert err <= 1e-14 * scale

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in (2, 3, 4) for n in (1, 2, 3)]
        + [(2, 4), (2, 6), (3, 4)])
    def test_dense_kronecker_sum(self, m, n):
        # a non-symmetric M shows a transposed factor; each entry is one
        # product with 1, or a diagonal sum taken in coordinate order, so
        # the arrays agree exactly with the np.kron sum and with the product
        # kernel applied to every basis vector
        M = np.random.default_rng(10 * m + n).normal(size=(m, m))
        eye = np.eye(m ** n)
        for ref in (
                sum(np.kron(np.kron(np.eye(m ** k), M),
                            np.eye(m ** (n - 1 - k))) for k in range(n)),
                sum(_axis_apply(M.T, eye, m, n, k) for k in range(n))):
            assert np.array_equal(kronecker_sum(M, n), ref)

    @KERNEL_SETTINGS
    @given(chain_batches())
    def test_batch_rows_equal_one_row_calls(self, case):
        S, n, U, V = case
        pin = pi_product(S, n)
        rows = dirichlet_rows(S, U, V, n, pin)
        for i in range(U.shape[0]):
            one = dirichlet_rows(S, U[i:i + 1], V[i:i + 1], n, pin)[0]
            if n >= 2:
                assert rows[i] == one
            else:
                # at n = 1 one row is a BLAS matrix-vector product and a
                # batch a matrix-matrix product, which round differently
                scale = max(1.0, np.abs(S.generator).max()) \
                    * U[i].max() * V[i].max()
                assert abs(rows[i] - one) <= 1e-14 * scale

    @KERNEL_SETTINGS
    @given(chain_batches(), st.floats(0, 2))
    def test_product_heat_matches_kronecker(self, case, t):
        S, n, U, _ = case
        T = reduce(np.kron, [heat_operator(S, t)] * n)
        for u in U:
            got = product_heat_apply(S, t, u, n)
            assert np.max(np.abs(got - T @ u)) <= 1e-12 * u.max()
