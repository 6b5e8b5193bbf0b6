import numpy as np
import pytest
from scipy.special import logsumexp

from rslab.entropy import (
    Distribution,
    EntropyError,
    _logsumexp,
    density_from_function,
    ent,
    ent_pq,
    renyi_divergence,
)

INF = float("inf")


def rand_f(rng, size, zeros=False):
    v = rng.uniform(0.1, 3.0, size=size)
    if zeros:
        v[rng.integers(0, size)] = 0.0
    return v


class TestEnt:
    def test_constant(self):
        assert abs(ent(np.full(3, 2.5), np.full(3, 1 / 3))) < 1e-14

    def test_hand_value(self):
        # E[f ln f] = ln 2, E[f] = 1
        got = ent(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        assert abs(got - np.log(2)) < 1e-14

    def test_nonnegative_random(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            m = rng.integers(2, 6)
            pi = rng.dirichlet(np.ones(m))
            f = rand_f(rng, m, zeros=rng.uniform() < 0.3)
            assert ent(f, pi) >= -1e-12

    def test_zero_function_rejected(self):
        with pytest.raises(EntropyError):
            ent(np.zeros(3), np.full(3, 1 / 3))


class TestEntPq:
    def test_constant_all_orders(self):
        pi = np.array([0.25, 0.75])
        f = np.full(2, 1.3)
        for p in (0.0, 0.5, 1.0, 2.0, INF):
            for q in (0.0, 0.5, 1.0, 2.0, INF):
                assert abs(ent_pq(f, pi, p, q)) < 1e-12

    def test_support_order_zero(self):
        pi = np.array([0.5, 0.5])
        f = np.array([1.0, 0.0])
        assert abs(ent_pq(f, pi, 0.0, 2.0) - np.log(2)) < 1e-14
        assert abs(ent_pq(f, pi, 2.0, 0.0) - np.log(2)) < 1e-14

    def test_divergence_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = rng.integers(2, 6)
            pi = rng.dirichlet(np.ones(m))
            f = rand_f(rng, m, zeros=rng.uniform() < 0.2)
            p = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
            q = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
            Q = density_from_function(f, pi, q)
            lhs = ent_pq(f, pi, p, q)
            rhs = renyi_divergence(Q, pi, p / q)
            assert abs(lhs - rhs) < 1e-10

    def test_p_equal_q_matches_normalized_ent(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pi = rng.dirichlet(np.ones(3))
            f = rand_f(rng, 3)
            q = rng.uniform(0.4, 3.0)
            fq = f ** q
            want = ent(fq, pi) / float(pi @ fq)
            assert abs(ent_pq(f, pi, q, q) - want) < 1e-10

    def test_p_to_q_limit(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pi = rng.dirichlet(np.ones(4))
            f = rand_f(rng, 4)
            q = rng.uniform(0.5, 3.0)
            at_q = ent_pq(f, pi, q, q)
            for eps in (1e-6, -1e-6):
                near = ent_pq(f, pi, q + eps, q)
                assert abs(near - at_q) < 1e-4

    def test_infinite_orders(self):
        pi = np.array([0.5, 0.5])
        f = np.array([1.0, 3.0])
        q = 2.0
        norm_q = np.sqrt(0.5 * (1 + 9))
        want = q * np.log(3.0 / norm_q)
        assert abs(ent_pq(f, pi, INF, q) - want) < 1e-12
        assert abs(ent_pq(f, pi, q, INF) - want) < 1e-12
        # both infinite: -ln pi(f = max)
        assert abs(ent_pq(f, pi, INF, INF) - np.log(2)) < 1e-12

    def test_monotone_in_each_order(self):
        rng = np.random.default_rng(14)
        grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, INF]
        for _ in range(100):
            m = rng.integers(2, 5)
            pi = rng.dirichlet(np.ones(m))
            f = rand_f(rng, m, zeros=rng.uniform() < 0.2)
            for q in (0.5, 1.0, 2.0):
                vals = [ent_pq(f, pi, p, q) for p in grid]
                assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
            for p in (0.5, 1.0, 2.0):
                vals = [ent_pq(f, pi, p, q) for q in grid]
                assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            pi = rng.dirichlet(np.ones(3))
            f = rand_f(rng, 3, zeros=rng.uniform() < 0.2)
            p, q = rng.uniform(0, 4, size=2)
            assert ent_pq(f, pi, p, q) >= -1e-12


class TestRenyiDivergence:
    def test_equal_laws(self):
        pi = np.array([0.2, 0.3, 0.5])
        Q = Distribution(pi.copy(), pi)
        for g in (0.0, 0.5, 1.0, 2.0, INF):
            assert abs(renyi_divergence(Q, pi, g)) < 1e-12

    def test_point_mass(self):
        pi = np.array([0.5, 0.5])
        Q = Distribution(np.array([1.0, 0.0]), pi)
        assert abs(renyi_divergence(Q, pi, 1.0) - np.log(2)) < 1e-14
        assert abs(renyi_divergence(Q, pi, INF) - np.log(2)) < 1e-14

    def test_monotone_in_order(self):
        rng = np.random.default_rng(16)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, INF]
        for _ in range(100):
            m = rng.integers(2, 6)
            pi = rng.dirichlet(np.ones(m))
            w = rng.dirichlet(np.ones(m))
            if rng.uniform() < 0.3:
                w[rng.integers(0, m)] = 0.0
                w = w / w.sum()
            Q = Distribution(w, pi)
            vals = [renyi_divergence(Q, pi, g) for g in grid]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_absolute_continuity_failure(self):
        pi = np.array([1.0, 0.0])
        Q = Distribution(np.array([0.5, 0.5]), pi)
        assert renyi_divergence(Q, pi, 2.0) == INF
        assert renyi_divergence(Q, pi, 1.0) == INF
        assert np.isfinite(renyi_divergence(Q, pi, 0.5))

    def test_distribution_validation(self):
        pi = np.array([0.5, 0.5])
        with pytest.raises(EntropyError):
            Distribution(np.array([0.5, 0.6]), pi)
        with pytest.raises(EntropyError):
            Distribution(np.array([-0.1, 1.1]), pi)


def logsumexp_rows(rng, R, N):
    """Random real rows with the cases that take the helper's side paths:
    -inf entries, tied maxima, integer-valued (so often tied) rows, whole
    rows of -inf, and entries spread from 1e-3 to 400."""
    a = rng.normal(0.0, rng.choice([1e-3, 1.0, 30.0, 400.0]), (R, N))
    if rng.random() < 0.3:
        a = np.round(a)
    if rng.random() < 0.3:
        a[:, :N // 2 + 1] = a[:, :1]           # the first half ties
    if rng.random() < 0.5:
        a[rng.random((R, N)) < 0.3] = -INF
    if rng.random() < 0.15:
        a[rng.integers(R)] = -INF
    return a


class TestLogSumExp:
    """The local logsumexp against scipy.special.logsumexp at the installed
    scipy, bit for bit: it repeats scipy's steps so that every divergence
    keeps its last bits."""

    def test_rows_match_scipy_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(800):
            a = logsumexp_rows(rng, int(rng.integers(1, 5)),
                               int(rng.integers(1, 30)))
            got, want = _logsumexp(a), logsumexp(a, axis=1)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            for row in a:
                one, ref = _logsumexp(row), logsumexp(row)
                assert type(one) is type(ref)
                assert np.array_equal(one, ref, equal_nan=True)

    @pytest.mark.parametrize("row", [
        [0.3], [-INF], [-INF, -INF, -INF], [2.0, 2.0, 2.0], [5.0, -INF, 5.0],
        [-745.0, -745.0], [700.0, 700.0, 1.0], [1e-300, -1e-300, 0.0]])
    def test_edge_rows(self, row):
        a = np.array(row)
        assert np.array_equal(_logsumexp(a), logsumexp(a), equal_nan=True)
        assert np.array_equal(_logsumexp(np.stack([a, a[::-1]])),
                              logsumexp(np.stack([a, a[::-1]]), axis=1),
                              equal_nan=True)

    def test_empty_rows_give_minus_infinity(self):
        assert _logsumexp(np.zeros(0)) == -INF == logsumexp(np.zeros(0))
        assert np.array_equal(_logsumexp(np.zeros((2, 0))),
                              logsumexp(np.zeros((2, 0)), axis=1))
