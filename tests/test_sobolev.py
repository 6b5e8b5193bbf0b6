import importlib.util
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import minimize_scalar

from rslab import semigroup, sobolev
from rslab.entropy import renyi_divergence, renyi_rows
from rslab.graph_spectral import ConvergenceError, _fixed_point_radius
from rslab.semigroup import (
    Semigroup,
    binary_semigroup,
    dirichlet_form_raw,
    dirichlet_rows,
    pi_product,
    sequence_digits,
    validate_semigroup,
)
from rslab.sobolev import (
    _logvar_rows,
    _objective,
    ExtremalSpec,
    SampledCurve,
    SobolevError,
    alpha_grid,
    binary_xi_q,
    build_extremal,
    conv_envelope,
    extremal_report,
    hfun,
    hinv,
    lsi_constant,
    phi_pq,
    sample_binary_curve,
    sequence_type_counts,
    typical_mask,
    xi_pq_n,
    xi_q,
)
from util import KERNEL_SETTINGS, simplex_grid

LN2 = math.log(2.0)


def three_state_chain():
    # complete-graph rates, scaled to unit off-diagonals
    L = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    return validate_semigroup(L)


# symmetric rates of unequal weight
WEIGHTED3 = [[-0.7, 0.2, 0.5], [0.2, -1.1, 0.9], [0.5, 0.9, -1.4]]


def laplacian_chain(A):
    A = np.asarray(A, dtype=float)
    return validate_semigroup(A - np.diag(A.sum(axis=1)))


# 4-state chains: complete graph, cycle, and unequal symmetric rates
FOUR_STATE = {
    "K4": np.ones((4, 4)) - np.eye(4),
    "C4": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
    "weighted4": [[0, 0.3, 1.2, 0.1], [0.3, 0, 0.6, 0.9],
                  [1.2, 0.6, 0, 0.4], [0.1, 0.9, 0.4, 0]],
}


def pairwise_objective(S, q, Qs):
    """The objective per row of Qs from the pairwise Dirichlet form
    (1/2) sum_xy pi_x L_xy (f_y - f_x)(g_y - g_x); inf for q <= 1 where a
    row has a zero."""
    pi = S.stationary
    D = Qs / pi
    with np.errstate(divide="ignore", invalid="ignore"):
        if q == 1:
            f, g, c = D, np.log(D), 1.0
        elif q == 0:
            f, g, c = D, 1.0 / D, -1.0
        else:
            f, g, c = D ** (1.0 / q), D ** (1.0 - 1.0 / q), 1.0 / (q - 1.0)
        df = f[..., None, :] - f[..., :, None]
        dg = g[..., None, :] - g[..., :, None]
        vals = c * 0.5 * np.einsum("...xy,xy,x->...", df * dg, S.generator, pi)
    if q <= 1:
        vals = np.where(np.all(Qs > 0, axis=-1), vals, math.inf)
    return vals


def level_of(S, q, Qs):
    """KL(Q || pi) for q > 0, Var_pi(ln Q/pi)/2 for q = 0, per row of Qs."""
    pi = S.stationary
    with np.errstate(divide="ignore", invalid="ignore"):
        if q > 0:
            return np.where(Qs > 0, Qs * np.log(Qs / pi), 0.0).sum(axis=-1)
        logd = np.log(Qs / pi)
        mean = (logd * pi).sum(axis=-1, keepdims=True)
        return 0.5 * (((logd - mean) ** 2) * pi).sum(axis=-1)


def snapped_grid_oracle(S, q, alpha, step=1.0 / 60, snapped=50):
    """Feasible minimum of the objective on a simplex grid, after the lowest
    finite grid values are each snapped radially (toward pi) onto the level,
    which makes the grid's discretization error second order."""
    pi = S.stationary
    Qs = simplex_grid(pi.size, step)
    vals = np.where(level_of(S, q, Qs) >= alpha,
                    pairwise_objective(S, q, Qs), math.inf)
    # only grid points with a finite value are feasible and may be snapped
    finite = np.flatnonzero(np.isfinite(vals))
    assert finite.size
    best = math.inf
    for k in finite[np.argsort(vals[finite])[:snapped]]:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if level_of(S, q, (1 - mid) * pi + mid * Qs[k]) >= alpha:
                hi = mid
            else:
                lo = mid
        R = (1 - hi) * pi + hi * Qs[k]
        assert level_of(S, q, R) >= alpha
        best = min(best, vals[k], pairwise_objective(S, q, R))
    return best


class TestBinaryClosedForm:
    def test_zero_level(self):
        for q in (0, 0.5, 0.8, 1, 1.5, 2, 3, 10):
            assert binary_xi_q(q, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_q2(self):
        # y = 0 forces the bracket to 1, prefactor 1/2
        assert binary_xi_q(2, LN2) == pytest.approx(0.5, abs=1e-12)

    def test_q1_hand_value(self):
        # y = 1/4 plugged into (1/2 - y) ln((1-y)/y)
        alpha = LN2 - hfun(0.25)
        assert binary_xi_q(1, alpha) == pytest.approx(math.log(3) / 4, abs=1e-12)

    def test_q0_hand_value(self):
        u = 2.0 * math.sqrt(2.0 * 0.32)
        want = 0.25 * (math.exp(u) + math.exp(-u)) - 0.5
        assert binary_xi_q(0, 0.32) == pytest.approx(want, rel=1e-14)

    def test_monotone_convex_nonneg(self):
        grid = np.linspace(0.0, LN2 - 1e-6, 200)
        for q in (0, 0.8, 1, 1.5, 2, 3):
            v = np.array([binary_xi_q(q, a) for a in grid])
            assert np.all(v >= -1e-14)
            assert np.all(np.diff(v) >= -1e-12)
            assert np.all(np.diff(v, 2) >= -1e-9)

    def test_hinv_roundtrip(self):
        for v in np.linspace(0.0, LN2, 37):
            y = hinv(v)
            assert 0.0 <= y <= 0.5
            assert hfun(y) == pytest.approx(v, abs=1e-12)

    def test_range_errors(self):
        with pytest.raises(SobolevError):
            binary_xi_q(2, -0.1)
        with pytest.raises(SobolevError):
            binary_xi_q(2, LN2 + 0.1)
        with pytest.raises(SobolevError):
            binary_xi_q(-1, 0.2)


class TestXiQ:
    def test_zero_level(self):
        S = binary_semigroup()
        assert xi_q(S, 2, 0.0) == 0.0

    def test_binary_oracle_spot(self):
        # fuller sweep lives in the acceptance suite
        S = binary_semigroup()
        for q in (0, 0.8, 1, 1.5, 2, 3):
            for a in (0.1, 0.35, 0.6):
                assert xi_q(S, q, a) == pytest.approx(
                    binary_xi_q(q, a), abs=1e-6)

    def test_three_state_brute_scan(self):
        # exhaustive 1e-3 simplex scan, the leading candidates snapped
        # radially onto the constraint boundary
        S = three_state_chain()
        best = snapped_grid_oracle(S, 2.0, 0.2, step=1e-3, snapped=100)
        assert xi_q(S, 2.0, 0.2) == pytest.approx(best, abs=1e-4)

    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("chain", sorted(FOUR_STATE))
    def test_four_states_beat_snapped_grid(self, chain, q):
        # the face rays are the only global layer; with corner rays alone K4
        # at q = 0 rises by 0.40 and 2.52 at these levels, because its
        # optimum splits the mass 2-2
        S = laplacian_chain(FOUR_STATE[chain])
        for alpha in (0.3 * math.log(4), 0.75 * math.log(4)):
            assert xi_q(S, q, alpha) <= snapped_grid_oracle(S, q, alpha) + 1e-9

    def test_upper_bounds_explicit_feasible_point(self):
        S = three_state_chain()
        alpha = 0.4
        pi = S.stationary
        # walk toward a corner until feasible, then compare objectives
        for t in np.linspace(0, 1, 2001):
            Q = (1 - t) * pi + t * np.array([1.0, 0.0, 0.0])
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = np.where(Q > 0, Q * np.log(Q / pi), 0.0).sum()
            if kl >= alpha:
                break
        u = np.sqrt(Q / pi)
        assert xi_q(S, 2, alpha) <= dirichlet_form_raw(S, u, u, 1) + 1e-9

    def test_witness_is_feasible_and_consistent(self):
        S = three_state_chain()
        val, Q = xi_q(S, 2, 0.3, return_witness=True)
        pi = S.stationary
        assert Q.min() >= -1e-15 and Q.sum() == pytest.approx(1.0, abs=1e-9)
        kl = np.where(Q > 0, Q * np.log(Q / pi), 0.0).sum()
        assert kl >= 0.3 - 1e-9
        u = np.sqrt(Q / pi)
        assert dirichlet_form_raw(S, u, u, 1) == pytest.approx(val, abs=1e-10)

    def test_errors(self):
        S = binary_semigroup()
        with pytest.raises(SobolevError):
            xi_q(S, 2, 0.8)          # beyond -ln min pi
        with pytest.raises(SobolevError):
            xi_q(S, -0.5, 0.1)
        with pytest.raises(SobolevError):
            # past 4 states the face rays no longer fit in MULTISTART
            S5 = validate_semigroup(np.ones((5, 5)) - 5.0 * np.eye(5))
            xi_q(S5, 2, 0.1)


class TestCurves:
    def test_alpha_grid(self):
        g = alpha_grid(np.array([0.5, 0.5]), 64)
        assert g.size == 64 and g[0] == 0.0
        assert g[-1] < LN2 - 1e-7

    @pytest.mark.parametrize("size", [8, 64, 512])
    def test_binary_curve_grid_is_alpha_grid(self, size):
        # -ln(1/2) and ln 2 are the same float, so the two-point curve's
        # grid keeps the bits of linspace(0, ln 2 - 1e-6) that the curve
        # tables print
        g = alpha_grid((0.5, 0.5), size)
        assert np.array_equal(
            g, np.linspace(0.0, LN2 - 1e-6, size, endpoint=False))
        assert np.array_equal(sample_binary_curve(2.0, size).grid, g)

    def test_curve_validation(self):
        with pytest.raises(SobolevError):
            SampledCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3), "xi_q", 2)
        with pytest.raises(SobolevError):
            SampledCurve(np.arange(3.0), np.zeros(4), "xi_q", 2)
        with pytest.raises(SobolevError):
            SampledCurve(np.arange(3.0), np.zeros(3), "mystery", 2)
        with pytest.raises(SobolevError):
            # concave values cannot be labeled as an envelope
            SampledCurve(np.arange(3.0), np.array([0.0, 1.0, 0.0]),
                         "conv_xi_q", 2)

    def test_envelope_fixes_nothing_on_convex_input(self):
        c = sample_binary_curve(2, 64)
        e = conv_envelope(c)
        assert np.allclose(e.values, c.values, atol=1e-12)
        assert e.kind == "conv_xi_q"

    def test_envelope_chord_oracle_on_bump(self):
        g = np.linspace(0.0, 1.0, 41)
        v = g ** 2
        v[15:25] += 0.3 * np.sin(np.linspace(0, math.pi, 10))  # concave bump
        e = conv_envelope(SampledCurve(g, v, "xi_q", 2))
        # O(k^2) oracle: envelope at x is the least value over all chords
        want = v.copy()
        for i in range(g.size):
            for j in range(i + 1, g.size):
                lam = (g[i:j + 1] - g[i]) / (g[j] - g[i])
                chord = (1 - lam) * v[i] + lam * v[j]
                want[i:j + 1] = np.minimum(want[i:j + 1], chord)
        assert np.allclose(e.values, want, atol=1e-12)

    def test_envelope_below_input_and_idempotent(self):
        g = np.linspace(0, 1, 30)
        rng = np.random.default_rng(7)
        v = np.cumsum(rng.uniform(0, 1, 30))
        e = conv_envelope(SampledCurve(g, v, "xi_q", 2))
        assert np.all(e.values <= v + 1e-12)
        e2 = conv_envelope(e)
        assert np.allclose(e2.values, e.values, atol=1e-12)

    def test_envelope_rejects_non_finite(self):
        g = np.linspace(0, 1, 5)
        v = np.array([0.0, 1.0, math.inf, 2.0, 3.0])
        with pytest.raises(SobolevError):
            conv_envelope(SampledCurve(g, v, "xi_q", 2))


class TestPhiAndConstant:
    def test_phi_cases(self):
        c = conv_envelope(sample_binary_curve(2, 64))
        assert phi_pq(3, 2, c, 0.2) == 0.0
        assert phi_pq(2, 2, c, 0.2) == pytest.approx(binary_xi_q(2, 0.2),
                                                     abs=1e-4)
        assert phi_pq(0, 2, c, 0.2) == pytest.approx(binary_xi_q(2, 0.2),
                                                     abs=1e-4)
        with pytest.raises(SobolevError):
            phi_pq(0, 2, c, LN2 + 1.0)

    def test_lsi_binary(self):
        for q in (1, 2):
            c = sample_binary_curve(q, 256)
            assert lsi_constant(c, q) == pytest.approx(2.0, rel=0.02)
        c0 = sample_binary_curve(0, 256)
        assert lsi_constant(c0, 0) == pytest.approx(2.0, rel=0.02)

    def test_lsi_homogeneity(self):
        c = sample_binary_curve(2, 64)
        scaled = SampledCurve(c.grid, 3.0 * c.values, "xi_q", 2)
        assert lsi_constant(scaled, 2) == pytest.approx(
            lsi_constant(c, 2) / 3.0, rel=1e-12)

    def test_lsi_zero_curve(self):
        c = SampledCurve(np.array([0.0, 0.1, 0.2]), np.zeros(3), "xi_q", 2)
        assert lsi_constant(c, 2) == math.inf


class TestXiPqN:
    def test_zero_level(self):
        S = binary_semigroup()
        assert xi_pq_n(S, 2, 2, 2, 0.0) == 0.0

    def test_sandwich_spot(self):
        # full grid in the acceptance suite; three levels per order here
        S = binary_semigroup()
        for q in (1.5, 2, 3):
            for a in (0.1, 0.35, 0.6):
                v = xi_pq_n(S, q, q, 2, a)
                ref = binary_xi_q(q, a)
                assert v >= ref - 1e-4     # binary curve is already convex
                assert v <= ref + 1e-4

    def test_nonincreasing_in_p(self):
        # the entropy functional grows with p, so the constrained infimum
        # can only shrink: largest value at p = 0
        S = binary_semigroup()
        v0 = xi_pq_n(S, 0, 2, 2, 0.2)
        v1 = xi_pq_n(S, 1, 2, 2, 0.2)
        v2 = xi_pq_n(S, 2, 2, 2, 0.2)
        assert v0 >= v1 - 1e-6
        assert v1 >= v2 - 1e-6

    def test_lower_bound_phi(self):
        S = binary_semigroup()
        c = conv_envelope(sample_binary_curve(2, 64))
        for p in (1.0, 1.5, 2.0):
            for a in (0.15, 0.4):
                assert xi_pq_n(S, p, 2, 2, a) >= phi_pq(p, 2, c, a) - 1e-4

    @pytest.mark.parametrize("chain,n", [
        ("binary", 2), ("binary", 3), ("K3", 2), ("weighted3", 2)])
    def test_tensorized_single_letter_value_bounds(self, chain, n):
        # the n-fold product of a single-letter witness is feasible at the
        # same rates, so the n-letter value can only be lower
        S = {"binary": binary_semigroup(), "K3": three_state_chain(),
             "weighted3": validate_semigroup(WEIGHTED3)}[chain]
        hi = -math.log(S.stationary.min())
        for q in (0.8, 1, 1.5, 2, 3):
            for alpha in (0.2 * hi, 0.5 * hi, 0.8 * hi):
                assert (xi_pq_n(S, q, q, n, alpha)
                        <= xi_q(S, q, alpha) * (1 + 1e-12))

    def test_infinite_order_not_above_order_three(self):
        # D_inf >= D_3, so the order-infinity level set holds the order-3
        # one and its infimum can only be lower
        for S, n in ((binary_semigroup(), 2), (three_state_chain(), 2)):
            hi = -math.log(S.stationary.min())
            for alpha in (0.25 * hi, 0.5 * hi, 0.75 * hi):
                assert (xi_pq_n(S, math.inf, 2, n, alpha)
                        <= xi_pq_n(S, 3, 2, n, alpha) * (1 + 1e-12))

    def test_support_route_single_letter(self):
        # alpha = 0.2 admits only singleton supports; hand value 1/2
        S = binary_semigroup()
        assert xi_pq_n(S, 0, 2, 1, 0.2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("L1,n,alpha", [
        ([[-0.5, 0.5], [0.5, -0.5]], 2, 0.2),
        # weighted 3-letter chain, not a graph Laplacian: 2-state faces at
        # n = 1, and 8-state faces at n = 2, beyond the dense face grids
        (WEIGHTED3, 1, 0.3),
        (WEIGHTED3, 2, 0.05),
    ], ids=["binary-n2", "weighted3-n1", "weighted3-n2-8state"])
    def test_support_route_eigen_oracle(self, L1, n, alpha):
        # q = 2 face minimum is a restricted eigenproblem
        S = validate_semigroup(L1)
        val = xi_pq_n(S, 0, 2, n, alpha)
        m = S.nstates
        N = m ** n
        Ln = sum(np.kron(np.kron(np.eye(m ** k), S.generator),
                         np.eye(m ** (n - 1 - k))) for k in range(n))
        pin = np.full(N, 1.0 / N)
        best = math.inf
        for bits in range(1, 1 << N):
            idx = [i for i in range(N) if bits >> i & 1]
            if pin[idx].sum() > math.exp(-n * alpha) + 1e-12:
                continue
            # min of E(g,g)/<g,g>_pi over g supported on idx
            M = -(Ln[np.ix_(idx, idx)])
            W = np.diag(pin[idx])
            evals = np.linalg.eigvalsh(
                np.diag(pin[idx] ** -0.5) @ (W @ M)
                @ np.diag(pin[idx] ** -0.5))
            best = min(best, evals.min())
        assert val == pytest.approx(best / n, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_support_faces_beat_dense_face_grid(self, n):
        # the faces are polished once from their own law, with no grid; the
        # dense grid on every maximal face is the oracle, at q != 2 on a
        # weighted chain that is not a graph
        S = laplacian_chain([[0, 0.7, 0.3], [0.7, 0, 0.5], [0.3, 0.5, 0]])
        N = 3 ** n
        pin = pi_product(S, n)
        # reversing the letters of x maps faces to faces of equal grid
        # minimum, so one face per pair is scored
        rev = np.arange(N).reshape((3,) * n).T.ravel()
        for m in range(2, min(3, N - 1) + 1):
            alpha = -math.log(m / N) / n
            faces = {min(f, tuple(sorted(rev[list(f)].tolist())))
                     for f in combinations(range(N), m)}
            oracle = {q: math.inf for q in (1.25, 1.5, 3.0, 5.0)}
            for face in faces:
                grid = simplex_grid(len(face), 1.0 / 400)
                D = np.zeros((grid.shape[0], N))
                D[:, list(face)] = grid
                D /= pin
                for q in oracle:
                    qp = q / (q - 1.0)
                    vals = dirichlet_rows(S, D ** (1.0 / q), D ** (1.0 / qp),
                                          n, pin) / (q - 1.0)
                    oracle[q] = min(oracle[q], vals.min())
            for q, best in oracle.items():
                assert xi_pq_n(S, 0, q, n, alpha) * n <= best + 1e-12

    @pytest.mark.parametrize("q", [1.25, 1.5, 3, 5])
    def test_support_route_two_state_face_oracle(self, q):
        # At q != 2 the support route and the Faber-Krahn search share the
        # q-radius loop; this oracle shares nothing with it. At n = 1 and
        # alpha = 0.3 the maximal faces of WEIGHTED3 are its three pairs,
        # and on each the objective of Q = (t, 1 - t) is convex in t
        S = validate_semigroup(WEIGHTED3)
        pin = S.stationary
        qp = q / (q - 1.0)

        def face_value(face, t):
            Q = np.zeros(3)
            Q[list(face)] = t, 1.0 - t
            D = (Q / pin)[None, :]
            return dirichlet_rows(S, D ** (1.0 / q), D ** (1.0 / qp), 1,
                                  pin)[0] / (q - 1.0)

        best = min(
            minimize_scalar(lambda t: face_value(face, t), bounds=(0, 1),
                            method="bounded", options={"xatol": 1e-12}).fun
            for face in combinations(range(3), 2))
        assert xi_pq_n(S, 0, q, 1, 0.3) == pytest.approx(best, rel=1e-10)

    def test_support_route_makes_no_slsqp_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the p = 0 route must not call minimize")

        monkeypatch.setattr(sobolev, "minimize", refuse)
        for S, n, alpha in ((binary_semigroup(), 2, 0.2),
                            (validate_semigroup(WEIGHTED3), 2, 0.05),
                            (three_state_chain(), 2, 0.5)):
            for q in (1.5, 2, 3):
                assert np.isfinite(xi_pq_n(S, 0, q, n, alpha))

    def test_support_faces_split_into_connected_blocks(self):
        # At alpha = ln 2 the supports hold 4 of the 16 states. On the face
        # {1, 4, 6, 11}, shifted by its largest degree c = 7.74, state 1
        # alone has q-radius 3.18 and the pair {4, 6} 3.1845: the q-radius
        # loop on the whole face has to move mass between those blocks and
        # runs out of steps, while each block alone closes its bracket. The
        # values are the earlier SLSQP polish's
        A = np.array([[0, .13, .08, 1.64], [.13, 0, 1.47, 1.11],
                      [.08, 1.47, 0, 1.72], [1.64, 1.11, 1.72, 0]])
        S = laplacian_chain(A)
        for q, want in ((2, 0.925), (1.5, 1.85), (3, 0.4625)):
            assert xi_pq_n(S, 0, q, 2, LN2) == pytest.approx(want, abs=1e-12)

        face = np.array([1, 4, 6, 11])
        L = semigroup.generator_rows(S, np.eye(16), 2)[np.ix_(face, face)]
        with pytest.raises(ConvergenceError):
            _fixed_point_radius(L - np.diag(L).min() * np.eye(4), 2)

    def test_support_route_requires_uniform_pi(self):
        # built directly, not by validate_semigroup: a reversible chain
        # whose stationary law is not uniform
        S = Semigroup(np.array([[-0.8, 0.8], [0.2, -0.2]]),
                      np.array([0.2, 0.8]))
        with pytest.raises(SobolevError, match="uniform"):
            xi_pq_n(S, 0, 2, 1, 0.5)

    def test_rays_reduced_only_by_the_reference_state_stabilizer(self):
        # The polish runs in y = ln(Q/Q_last), so it is equivariant only
        # under the symmetries that fix the last state. At this level only
        # the corner rays are feasible. All four corners of K2^2 are one
        # orbit of the whole group, yet the earlier SLSQP polish reached
        # 0.3191262 from corners 1 and 2 (swapped by the stabilizer of
        # corner 3) and stopped at 0.3337987 from corners 0 and 3: keeping
        # one ray per orbit of the whole group kept corner 0 alone and
        # reported the latter
        S = binary_semigroup()
        assert xi_pq_n(S, 1, 2, 2, 0.420970) <= 0.31912626966 * (1 + 1e-12)

    def test_support_enumeration_cap(self):
        # the route's one budget is on |X|^n, whatever alpha: K2^5 has 32
        # states, refused even where a support holds only two of them
        S = validate_semigroup([[-1.0, 1.0], [1.0, -1.0]])
        for m in (2, 16):
            with pytest.raises(SobolevError,
                               match=r"capped at \|X\|\^n <= 16"):
                xi_pq_n(S, 0, 2, 5, math.log(32 / m) / 5)

    def test_errors(self):
        S = binary_semigroup()
        with pytest.raises(SobolevError):
            xi_pq_n(S, 2, 0, 2, 0.2)     # n-letter route undefined at q=0
        with pytest.raises(SobolevError):
            xi_pq_n(S, -1, 2, 2, 0.2)
        with pytest.raises(SobolevError):
            xi_pq_n(S, 0, 1, 2, 0.2)     # support route needs q > 1
        with pytest.raises(SobolevError):
            xi_pq_n(S, 2, 2, 25, 0.2)    # budget
        for p in (2, 0):
            with pytest.raises(SobolevError, match="n must be >= 1"):
                xi_pq_n(S, p, 2, 0, 0.3)


def trivial_group(S, n):
    return np.arange(S.nstates ** n)[None, :]


def symmetric_chain(name):
    if name == "binary":
        return binary_semigroup()
    if name == "K3":
        return three_state_chain()
    return laplacian_chain(FOUR_STATE[name])


class TestOrbitReduction:
    """Values with the symmetry reduction against the same calls with the
    trivial group, which searches every seed and every support face."""

    @pytest.mark.parametrize("chain,n", [
        ("binary", 2), ("binary", 3), ("K3", 1), ("K3", 2), ("K4", 1),
        ("C4", 1)])
    def test_face_rays(self, monkeypatch, chain, n):
        S = symmetric_chain(chain)
        hi = -math.log(S.stationary.min())
        calls = [(p, q, f * hi) for p, q in ((1, 2), (0.5, 1.5), (2, 2))
                 for f in (0.3, 0.7)]
        if n == 1:
            calls += [("xi_q", 0, f * hi) for f in (0.3, 0.7)]

        def values():
            return [xi_q(S, q, a) if p == "xi_q" else xi_pq_n(S, p, q, n, a)
                    for p, q, a in calls]

        reduced = values()
        monkeypatch.setattr(sobolev, "automorphisms", trivial_group)
        for r, full in zip(reduced, values()):
            assert r <= full * (1 + 1e-12)

    @pytest.mark.parametrize("chain,n,m", [
        ("binary", 2, 2), ("binary", 3, 3), ("K3", 2, 2), ("K4", 1, 2),
        ("C4", 1, 2), ("K4", 2, 2)])
    def test_support_faces(self, monkeypatch, chain, n, m):
        S = symmetric_chain(chain)
        N = S.nstates ** n
        alpha = math.log(N / m) / n
        reduced = [xi_pq_n(S, 0, q, n, alpha) for q in (1.5, 2, 3)]
        monkeypatch.setattr(sobolev, "automorphisms", trivial_group)
        for r, q in zip(reduced, (1.5, 2, 3)):
            assert r <= xi_pq_n(S, 0, q, n, alpha) * (1 + 1e-12)


class TestXiPqNWitness:
    """Every xi_pq_n witness is a distribution on X^n that meets the level
    and re-scores, through the Gamma reference `semigroup.dirichlet_form`,
    to the reported value."""

    @staticmethod
    def check(S, p, q, n, alpha):
        val, Q = xi_pq_n(S, p, q, n, alpha, return_witness=True)
        pin = pi_product(S, n)
        assert Q.shape == pin.shape and np.all(Q >= 0)
        assert Q.sum() == pytest.approx(1.0, abs=1e-12)
        if p == 0:
            # the support mass is at most e^{-n alpha}
            assert pin[Q > 0].sum() <= math.exp(-n * alpha) + 1e-12
        else:
            assert renyi_divergence(Q, pin, p / q) / n >= alpha - 1e-12
        D = Q / pin
        u, v = (semigroup.NonnegFunction(D ** e, S.nstates, n)
                for e in (1.0 / q, 1.0 - 1.0 / q))
        score = semigroup.dirichlet_form(S, u, v) / ((q - 1.0) * n)
        assert score == pytest.approx(val, rel=1e-9)
        return val, Q

    @pytest.mark.parametrize("chain,n", [
        ("binary", 2), ("K3", 2), ("K4", 1), ("weighted3", 1),
        ("weighted3", 2)])
    def test_support_witness(self, monkeypatch, chain, n):
        S = (validate_semigroup(WEIGHTED3) if chain == "weighted3"
             else symmetric_chain(chain))
        N = S.nstates ** n
        group = semigroup.automorphisms(S, n)
        calls = [(m, q) for m in range(2, N) for q in (1.5, 2, 3)]
        reduced = []
        for m, q in calls:
            val, Q = self.check(S, 0, q, n, math.log(N / m) / n)
            assert np.count_nonzero(Q) <= m
            reduced.append((val, Q))
        # the search over every face ends on an image of the reduced
        # witness: an orbit's face problems agree up to the order of their
        # arithmetic, so the image agrees to rounding
        monkeypatch.setattr(sobolev, "automorphisms", trivial_group)
        for (m, q), (val, Q) in zip(calls, reduced):
            full, Qf = xi_pq_n(S, 0, q, n, math.log(N / m) / n,
                               return_witness=True)
            assert full == pytest.approx(val, rel=1e-12)
            assert min(np.abs(Qf[g] - Q).max() for g in group) <= 1e-12

    @pytest.mark.parametrize("q", [1.5, 2, 3])
    def test_support_witness_on_sixteen_states(self, q):
        # K2^4 with supports of 8 of its 16 states: 74 orbit faces of the
        # 12,870 8-subsets. Each state flips 4 coordinates at rate 1/2, so
        # c = 2; on the best face, a 3-subcube, each keeps 3 flips and
        # rho_q = 3/2, so the value is (c - rho_q)/((q - 1) n)
        val, Q = self.check(binary_semigroup(), 0, q, 4, LN2 / 4)
        bits = (np.flatnonzero(Q)[:, None] >> np.arange(4)) & 1
        assert len(bits) == 8
        assert np.count_nonzero(bits.min(axis=0) == bits.max(axis=0)) == 1
        assert val == pytest.approx(1.0 / (8.0 * (q - 1.0)), rel=1e-9)

    @pytest.mark.parametrize("p", [0.5, 1, 2, math.inf])
    @pytest.mark.parametrize("chain", ["binary", "K3"])
    def test_polish_witness(self, chain, p):
        S = symmetric_chain(chain)
        hi = -math.log(S.stationary.min())
        for q in (0.8, 1.5, 2, 3):
            for f in (0.3, 0.7):
                self.check(S, p, q, 2, f * hi)


@st.composite
def positive_chain_points(draw):
    """A random symmetric chain on k in {2, 3, 4} letters, a dimension n in
    {1, 2, 3} and a strictly positive distribution Q on X^n."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    rates = draw(hnp.arrays(np.float64, (k, k), elements=st.floats(0, 2)))
    A = np.triu(rates, 1)
    S = laplacian_chain(A + A.T)
    w = draw(hnp.arrays(np.float64, k ** n, elements=st.floats(0.05, 3)))
    return S, n, w / w.sum()


def central_differences(F, y, eps=1e-6):
    out = np.empty_like(y)
    for i in range(y.size):
        e = np.zeros_like(y)
        e[i] = eps
        out[i] = (F(y + e) - F(y - e)) / (2 * eps)
    return out


def assert_close_relative(got, want, rel=1e-6):
    # the absolute 1e-9 covers the differences' rounding where the exact
    # gradient vanishes (Q = pi): there they read ~1e-11, not 0
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)) + 1e-9


def polish_problem(S, n, q, constraint, level=0.0, support=None):
    """The dense problem `_optimize_density` polishes, on a support of X^n
    (all of it by default)."""
    pin = pi_product(S, n)
    M = pin[:, None] * semigroup.kronecker_sum(S.generator, n)
    if support is None:
        support = np.arange(pin.size)
    return sobolev._Polish(M, pin, q, n, constraint, level, support)


def softmax_point(y):
    """The point softmax(y, 0) of the simplex, for log-mass ratios y: the
    y -> Q map written apart from `_Polish.point`, as its reference."""
    y = np.append(y, 0.0)
    w = np.exp(y - y.max())
    return w / w.sum()


def log_ratios(Q):
    """y = ln(Q_i / Q_last) of a strictly positive distribution."""
    lq = np.log(Q)
    return lq[:-1] - lq[-1]


def derivatives_in_y(problem, y):
    """(g, a, H, C): the problem's gradients of objective and constraint and
    their Hessians, C from the Lagrangian Hessians at multipliers 0 and 1."""
    g, a, H, _ = problem.derivatives(problem.point(y), 0.0)
    C = H - problem.derivatives(problem.point(y), 1.0)[2]
    return g, a, H, C


def assert_exact_derivatives(problem, y, parts="gaHC"):
    """Gradients against central differences of the values, and Hessians,
    applied to two fixed directions, against central differences of the
    gradients along them."""
    g, a, H, C = derivatives_in_y(problem, y)
    if "g" in parts:
        assert_close_relative(
            g, central_differences(lambda v: problem.point(v).f, y, 1e-5))
    if "a" in parts:
        assert_close_relative(
            a, central_differences(lambda v: problem.point(v).c, y, 1e-5))
    k = np.arange(1, y.size + 1)
    for v in (np.sin(k), np.cos(k)):
        def along(t, which):
            return derivatives_in_y(problem, y + t * v)[which]
        for which, Hessian in ((0, H), (1, C)):
            if "gaHC"[which + 2] in parts:
                eps = 1e-6
                assert_close_relative(
                    Hessian @ v,
                    (along(eps, which) - along(-eps, which)) / (2 * eps))


class TestExactGradients:
    """The polish's closed-form gradients and Hessians in y against central
    differences, on random chains; the values behind them are checked
    against `_objective` and `renyi_rows` in `TestPolishGradients`."""

    @pytest.mark.parametrize("q", [0, 0.8, 1, 1.5, 2, 3])
    @KERNEL_SETTINGS
    @given(positive_chain_points())
    def test_objective(self, q, case):
        S, n, Q = case
        problem = polish_problem(S, n, q, ("renyi", 1.0))
        assert_exact_derivatives(problem, log_ratios(Q), parts="gH")

    @pytest.mark.parametrize("gamma", [0.5, 1, 1.5, 2])
    @KERNEL_SETTINGS
    @given(positive_chain_points())
    def test_renyi_constraint(self, gamma, case):
        S, n, Q = case
        problem = polish_problem(S, n, 2.0, ("renyi", gamma))
        assert_exact_derivatives(problem, log_ratios(Q), parts="aC")

    def test_renyi_constraint_infinite_order(self):
        # the smooth piece ln(Q_x/pi_x)/n of ln max Q/pi that a polish at
        # p = inf works with, at the argmax state x
        S = laplacian_chain(FOUR_STATE["weighted4"])
        Q = np.array([0.1, 0.45, 0.2, 0.25])
        problem = polish_problem(S, 1, 2.0, ("state", 1))
        assert problem.point(log_ratios(Q)).c == pytest.approx(
            renyi_rows(Q, S.stationary, np.log(S.stationary), math.inf)[0],
            rel=1e-14)
        assert_exact_derivatives(problem, log_ratios(Q))

    @KERNEL_SETTINGS
    @given(positive_chain_points())
    def test_log_variance_constraint(self, case):
        S, n, Q = case
        problem = polish_problem(S, n, 0.0, ("logvar", None))
        assert_exact_derivatives(problem, log_ratios(Q), parts="aC")

    @pytest.mark.parametrize("q", [1.5, 2, 3])
    @KERNEL_SETTINGS
    @given(positive_chain_points())
    def test_on_a_proper_face(self, q, case):
        # for q > 1 the polish continues on a face: the states of the
        # support, the last the reference, with every other mass zero
        S, n, Q = case
        support = np.arange(1, Q.size) if Q.size > 2 else np.arange(Q.size)
        problem = polish_problem(S, n, q, ("renyi", 0.5), support=support)
        face = Q[support] / Q[support].sum()
        assert_exact_derivatives(problem, log_ratios(face))
        if support.size < Q.size:
            full = np.zeros(Q.size)
            full[support] = face
            pin = pi_product(S, n)
            assert problem.point(log_ratios(face)).f == pytest.approx(
                _objective(S, n, q, full, pin), rel=1e-12, abs=1e-15)

    def test_y_gradient_finite_where_softmax_underflows(self):
        S = three_state_chain()
        y = np.array([700.0, -700.0])
        assert softmax_point(y)[1] == 0.0
        for q, constraint in ((2, ("renyi", 1.0)), (2, ("renyi", 1.5)),
                              (1.5, ("state", 0))):
            pt_problem = polish_problem(S, 1, q, constraint)
            for part in derivatives_in_y(pt_problem, y):
                assert np.all(np.isfinite(part))


def recorded_batches(monkeypatch, run):
    """(problem arguments, seed ys, prior, score, results) of every
    `minimize` call that run makes: one lockstep batch per
    `_optimize_density` call, its polishes in seed order."""
    calls = []
    real = sobolev.minimize

    def recording(polishes, ys, prior, score):
        args = [(p.full_M, p.full_pin, p.q, p.n, (p.kind, p.order), p.level,
                 p.support.copy()) for p in polishes]
        results = real(polishes, ys, prior, score)
        calls.append((args, [np.array(y) for y in ys], list(prior), score,
                      results))
        return results

    monkeypatch.setattr(sobolev, "minimize", recording)
    run()
    return calls


def recorded_polishes(monkeypatch, run):
    """(problem arguments, seed y, result) of every polish that run makes."""
    return [polish for args, ys, _, _, results in
            recorded_batches(monkeypatch, run)
            for polish in zip(args, ys, results)]


class TestPolishGradients:
    @pytest.mark.parametrize("route", ["xi_q-q0", "xi_q-q2", "xi_pq_n"])
    def test_every_polish_gets_exact_jacobians(self, monkeypatch, route):
        # each polish's problem, at its seed, has the value and constraint
        # of the reference routines and derivatives that match central
        # differences
        S = {"xi_q-q0": three_state_chain(), "xi_q-q2": three_state_chain(),
             "xi_pq_n": binary_semigroup()}[route]
        q, n, p = {"xi_q-q0": (0, 1, None), "xi_q-q2": (2, 1, 2),
                   "xi_pq_n": (2, 2, 1.5)}[route]
        calls = recorded_polishes(monkeypatch, lambda: (
            xi_q(S, q, 0.3) if n == 1 else xi_pq_n(S, p, q, n, 0.3)))
        assert calls
        pin = pi_product(S, n)
        for args, y, _ in calls:
            problem = sobolev._Polish(*args)
            assert problem.support.size == pin.size
            Q = softmax_point(y)
            pt = problem.point(y)
            assert pt.f == pytest.approx(_objective(S, n, q, Q, pin),
                                         rel=1e-12)
            want = (_logvar_rows(Q, pin, np.log(pin))[0] if q == 0 else
                    renyi_rows(Q, pin, np.log(pin), p / q)[0] / n)
            assert pt.c == pytest.approx(want, rel=1e-12)
            assert_exact_derivatives(problem, y, parts="ga")


class TestPolishCost:
    @pytest.mark.parametrize("chain,p,q,alpha,most,total", [
        ("binary", 1, 2, 0.3, 40, 160),
        ("K3", 2, 2, 0.3 * math.log(3), 28, 160)], ids=["binary", "K3"])
    def test_dense_evaluations_per_polish(self, monkeypatch, chain, p, q,
                                          alpha, most, total):
        # each dense evaluation is one pass over y; the counts are
        # deterministic (at most 30 and 128 in all on binary, 21 and 128 on
        # K3), and the bounds sit 1.25-1.35x above them
        S = symmetric_chain(chain)
        calls = recorded_polishes(monkeypatch,
                                  lambda: xi_pq_n(S, p, q, 2, alpha))
        evals = [res.evals for _, _, res in calls]
        assert max(evals) <= most and sum(evals) <= total


def curves_style_inputs():
    """The curves workload's xi_q and xi_pq_n slots at the centers of its
    level strata, and the criterion-3 grid."""
    chains = {"binary": binary_semigroup(), "K3": three_state_chain(),
              "K4": laplacian_chain(FOUR_STATE["K4"]),
              "C4": laplacian_chain(FOUR_STATE["C4"])}
    calls = [(chains["binary"], None, q, 1, f * LN2)
             for q in (0.0, 0.8, 1.0, 1.5, 2.0, 3.0) for f in (0.2, 0.5, 0.8)]
    calls += [(chains[g], None, q, 1, f * math.log(chains[g].nstates))
              for g in ("K3", "K4", "C4") for q in (0.0, 1.0, 2.0)
              for f in (0.2, 0.5, 0.8)]
    calls += [(chains[g], p, q, n, f * math.log(chains[g].nstates))
              for g, p, q, n in (("binary", 1.5, 1.5, 2), ("binary", 2, 2, 2),
                                 ("binary", 3, 3, 2), ("binary", 1, 2, 2),
                                 ("binary", 3, 2, 2), ("binary", 0.5, 0.8, 2),
                                 ("binary", 2, 2, 3), ("K3", 2, 2, 2))
              for f in (0.2, 0.4, 0.6)]
    grid = np.linspace(0.0, LN2 - 1e-6, 64, endpoint=False)[1:]
    calls += [(chains["binary"], q, q, 2, a) for q in (1.5, 2.0, 3.0)
              for a in grid]
    return calls


class TestPolishConvergence:
    def test_every_polish_meets_its_stationarity_test(self, monkeypatch):
        # on the curves-style inputs and the criterion-3 grid no polish
        # stops at its iteration cap or in a failed line search
        def run():
            for S, p, q, n, alpha in curves_style_inputs():
                if p is None:
                    xi_q(S, q, alpha)
                else:
                    xi_pq_n(S, p, q, n, alpha)

        calls = recorded_polishes(monkeypatch, run)
        assert len(calls) > 1000
        stuck = [(args[2:6], res.nit) for args, _, res in calls
                 if not res.converged]
        assert not stuck
        assert max(res.nit for _, _, res in calls) < sobolev.POLISH_MAXITER


class TestLockstep:
    def test_each_polish_alone_matches_its_batch(self, monkeypatch):
        # `minimize` polishes the seeds of a call in lockstep, stacked; each
        # polish run alone, with the incumbent its batch gave it, must end
        # with the same bits, iterations and evaluations. The battery is the
        # curves-style inputs (q = 0, 1 and above, faces dropped at q > 1)
        # and p = inf (the "state" constraint); on it later seeds reach
        # their saddle gates while earlier ones still run, and wait
        minimize = sobolev.minimize
        gates, running = [], []
        steps = sobolev._polish_steps

        def watched(polish, y):
            # which polishes before this one still ran when it asked to
            # leave a saddle point, and the answer
            j = len(running)
            running.append(True)
            run, answer = steps(polish, y), None
            while True:
                try:
                    ask = run.send(answer)
                except StopIteration as stop:
                    running[j] = False
                    return stop.value
                before = any(running[:j])
                answer = yield ask
                if ask[0] == sobolev._GATE:
                    gates.append((before, answer))

        def battery():
            for S, p, q, n, alpha in curves_style_inputs():
                running.clear()
                if p is None:
                    xi_q(S, q, alpha)
                else:
                    xi_pq_n(S, p, q, n, alpha)
            for chain, n in (("binary", 2), ("K3", 2), ("K3", 1)):
                S = symmetric_chain(chain)
                for f in (0.2, 0.5, 0.8):
                    running.clear()
                    xi_pq_n(S, math.inf, 2.0, n,
                            f * -math.log(S.stationary.min()))

        monkeypatch.setattr(sobolev, "_polish_steps", watched)
        batches = recorded_batches(monkeypatch, battery)
        monkeypatch.setattr(sobolev, "_polish_steps", steps)
        kinds = {args[4][0] for batch in batches for args in batch[0]}
        assert kinds == {"logvar", "renyi", "state"}
        assert any(args[2] > 1 and res.point[args[6]].min() == 0
                   for batch in batches for args, res in zip(batch[0],
                                                             batch[4]))
        # a gate answered yes while a polish before it ran has waited
        assert (True, True) in gates
        for args, ys, prior, score, results in batches:
            assert len(results) > 1
            for j, (arg, y, res) in enumerate(zip(args, ys, results)):
                incumbent = min([prior[j]] + [r.value for r in results[:j]])
                alone, = minimize([sobolev._Polish(*arg)], [y], [incumbent],
                                  score)
                assert alone.point.tobytes() == res.point.tobytes()
                assert repr(alone.value) == repr(res.value)
                assert alone[2:] == res[2:]


@pytest.fixture(scope="module")
def curves_style_runs():
    """((p, q, n, alpha), value, seed records) of every curves-style call,
    from one pass; p is None for xi_q."""
    runs, records = [], []
    real = sobolev._optimize_density

    def recording(*args):
        out = real(*args)
        records.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sobolev, "_optimize_density", recording)
        for S, p, q, n, alpha in curves_style_inputs():
            value = (xi_q(S, q, alpha) if p is None
                     else xi_pq_n(S, p, q, n, alpha))
            runs.append(((p, q, n, alpha), value, records.pop()))
    return runs


class TestSeedRecords:
    def test_every_polish_converges(self, curves_style_runs):
        # one record per seed; a seed with a zero mass at q <= 1, where the
        # objective is infinite, is not polished (K4 and C4 at q = 1 and
        # half their largest level, where faces' barycenters sit on it)
        records = [r for _, _, recs in curves_style_runs for r in recs]
        assert len(records) > 1000
        assert {r.family for r in records} == {"ray", "product"}
        for r in records:
            if r.converged is None:
                assert r.seed_value == math.inf and r.nit == r.evals == 0
            else:
                assert r.converged and 0 < r.nit < sobolev.POLISH_MAXITER
        # the value is the least over the records
        for (_, _, n, _), value, recs in curves_style_runs:
            assert value == min(min(r.seed_value, r.value)
                                for r in recs) / n


BATTERY = Path(__file__).parent / "data" / "xi_pq_n_battery.json"


class TestPinnedValues:
    """No optimizer value rises above the one `xi_pq_n_battery.json` pins,
    from commit 6f59b6f, by more than 1e-12 relative: the curves-style
    inputs, and the SLSQP oracle's chains at p < q and p = inf."""

    def test_curves_style(self, curves_style_runs):
        pinned = json.loads(BATTERY.read_text())["curves_style"]
        assert len(pinned) == len(curves_style_runs)
        for (p, q, n, alpha, want), (args, value, _) in zip(
                pinned, curves_style_runs):
            assert (p, q, n, alpha) == args
            assert value <= want * (1 + 1e-12)

    def test_slsqp_oracle_chains(self):
        pinned = json.loads(BATTERY.read_text())["slsqp_oracle"]
        assert len(pinned) == 24
        for chain, n, p, q, f, want in pinned:
            S = (validate_semigroup(WEIGHTED3) if chain == "weighted3"
                 else symmetric_chain(chain))
            alpha = f * -math.log(S.stationary.min())
            assert xi_pq_n(S, float(p), q, n, alpha) <= want * (1 + 1e-12)


def slsqp_value(S, p, q, n, alpha):
    """The earlier polish, as an oracle: SciPy's SLSQP from the same ray
    seeds over y in [-700, 700]^{N-1}, with exact gradients, each result
    bisected back onto the level when it misses it and scored, with its
    seed, by the barrier objective."""
    pin = pi_product(S, n)
    logpin = np.log(pin)
    N = pin.size

    def rows(Qs):
        return renyi_rows(Qs, pin, logpin, p / q) / n

    def barrier(Q):
        if rows(Q[None, :])[0] >= alpha - 1e-13:
            return _objective(S, n, q, Q, pin)
        return math.inf

    perms = semigroup.automorphisms(S, n)
    seeds = sobolev._ray_seeds(pin, rows, alpha,
                               perms[perms[:, -1] == N - 1])
    problem = polish_problem(S, n, q, ("renyi", p / q), level=alpha)

    def grads(y):
        return problem.derivatives(problem.point(y), 0.0)

    best = math.inf
    for s in seeds[:sobolev.MULTISTART]:
        ls = np.log(np.maximum(s, 1e-300))
        res = scipy_minimize(
            lambda y: problem.point(y).f, ls[:-1] - ls[-1], method="SLSQP",
            jac=lambda y: grads(y)[0], bounds=[(-700.0, 700.0)] * (N - 1),
            constraints=[{"type": "ineq",
                          "fun": lambda y: problem.point(y).c - alpha,
                          "jac": lambda y: grads(y)[1]}],
            options={"ftol": 1e-15, "maxiter": 200})
        Q = softmax_point(res.x)
        if not math.isfinite(barrier(Q)):
            corner = np.eye(N)[np.argmax(Q / pin)]
            if rows(corner[None, :])[0] >= alpha:
                Q = sobolev._level_crossing(Q, corner, rows, alpha)[0]
        best = min(best, barrier(s), barrier(Q))
    return best


class TestSlsqpOracle:
    @pytest.mark.parametrize("chain,n", [
        ("binary", 2), ("binary", 3), ("K3", 2), ("weighted3", 2)])
    def test_not_above_the_slsqp_polish(self, chain, n):
        S = (validate_semigroup(WEIGHTED3) if chain == "weighted3"
             else symmetric_chain(chain))
        hi = -math.log(S.stationary.min())
        for p, q in ((1, 2), (0.5, 1.5), (3, 2)):
            for alpha in (0.3 * hi, 0.6 * hi):
                assert (xi_pq_n(S, p, q, n, alpha)
                        <= slsqp_value(S, p, q, n, alpha) * (1 + 1e-12))


def crossing_constraints(pi):
    """The row functions of every constraint the crossing serves, at law
    pi: Renyi orders 0.5, 1, 1.5, 10 and inf, and the log-variance."""
    logpi = np.log(pi)
    return [lambda Qs, g=g: renyi_rows(Qs, pi, logpi, g)
            for g in (0.5, 1, 1.5, 10, math.inf)] + [
        lambda Qs: _logvar_rows(Qs, pi, logpi)]


def crossing_cases(seed=7, count=20):
    """(out, inside rows, rows, level): random laws pi on X^n (|X| <= 4,
    n <= 2) with the rays `_ray_seeds` takes from pi, and fix-up rays from
    a point below the level toward the corners that meet it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = rng.integers(2, 5), rng.integers(1, 3)
        pi = rng.uniform(0.05, 1.0, k)
        pi = pi / pi.sum()
        if n == 2:
            pi = np.multiply.outer(pi, pi).ravel()
        N = pi.size
        if N <= 4:
            targets = [np.isin(np.arange(N), f) / r for r in range(1, N)
                       for f in combinations(range(N), r)]
        else:
            targets = list(np.eye(N))
        targets = np.array(targets)
        for rows in crossing_constraints(pi):
            # a level every target meets: below the value 9/10 of the way
            # to the nearest of them (the log-variance is inf on a face)
            top = rows(0.1 * pi + 0.9 * targets)
            level = rng.uniform(0.1, 0.9) * np.min(top)
            yield pi, targets, rows, level
            # from a point below the level, as after a polish
            w = rng.uniform(0.5, 1.5, N) * pi
            out = w / w.sum()
            corners = np.eye(N)[rows(np.eye(N)) >= level]
            if rows(out[None, :])[0] < level and corners.size:
                yield out, corners, rows, level


def bisected_crossing(out, inside, rows, level):
    """The oracle's t for each row inside_i: up to 200 halvings of [0, 1]
    toward the level, until no float lies between the ends."""
    lo, hi = np.zeros(inside.shape[0]), np.ones(inside.shape[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        meets = rows((1 - mid[:, None]) * out + mid[:, None] * inside) >= level
        lo, hi = np.where(meets, lo, mid), np.where(meets, mid, hi)
    return hi


class TestLevelCrossing:
    WINDOW = 256    # ulps of t scanned on each side of the oracle's t

    def test_against_bisection(self):
        # every returned row meets the level, and is the row (1-t) out +
        # t inside of a t whose float below misses it. Rounding makes the
        # constraint non-monotone over a few ulps of t, so a noisy band can
        # hold several such t; where the constraint changes sign once
        # within the window, t is within 4 ulp of the bisection oracle's.
        # The secant takes at most 20 evaluations per crossing on average.
        evaluated = crossings = clean = 0
        for out, inside, rows, level in crossing_cases():
            def counted(Qs):
                nonlocal evaluated
                evaluated += Qs.shape[0]
                return rows(Qs)

            got = sobolev._level_crossing(out, inside, counted, level)
            crossings += inside.shape[0]
            for row, target, t in zip(got, inside, bisected_crossing(
                    out, inside, rows, level)):
                assert rows(row[None, :])[0] >= level
                steps = np.arange(-self.WINDOW, self.WINDOW + 1)
                ts = t + steps * np.spacing(t)
                near = (1 - ts[:, None]) * out + ts[:, None] * target
                meets = rows(near) >= level
                # the least t of the window that gives the returned row
                j = np.flatnonzero(np.all(near == row, axis=1))[0]
                assert j > 0 and meets[j] and not meets[j - 1]
                if np.count_nonzero(meets[1:] != meets[:-1]) == 1:
                    clean += 1
                    assert abs(j - self.WINDOW) <= 4
        assert crossings > 300 and clean > crossings / 2
        assert evaluated / crossings <= 20

    def test_rows_give_the_same_bits_alone_and_in_a_batch(self):
        # the crossing evaluates only the rows it has not finished
        rng = np.random.default_rng(3)
        for N in (2, 3, 4, 8, 9, 16):
            pi = rng.uniform(0.05, 1.0, N)
            pi = pi / pi.sum()
            Qs = rng.dirichlet(np.ones(N), 20)
            for rows in crossing_constraints(pi):
                batch = rows(Qs)
                for i, Q in enumerate(Qs):
                    assert rows(Q[None, :])[0] == batch[i]
                    assert rows(Qs[i:i + 5])[0] == batch[i]


def bern(y):
    return np.array([1.0 - y, y])


class TestExtremalBuild:
    def test_spec_validation(self):
        with pytest.raises(SobolevError):
            ExtremalSpec("nope", n=4)
        with pytest.raises(SobolevError):
            ExtremalSpec("product", n=4, lam=1.5)
        with pytest.raises(SobolevError):
            ExtremalSpec("product", n=4, eps=0.0)
        with pytest.raises(SobolevError):
            ExtremalSpec("dirac-mixture", n=4)      # beta required
        with pytest.raises(SobolevError):
            ExtremalSpec("product", n=0)

    def test_typical_window_example(self):
        # Bern(1/4), eps = 0.5, n = 8: relative window keeps 1..3 ones
        S = binary_semigroup()
        spec = ExtremalSpec("conditional-typical", n=8, eps=0.5,
                            Q=bern(0.25), lam=1.0)
        f = build_extremal(spec, S)
        ones = sequence_digits(2, 8).sum(axis=1)
        assert set(np.unique(ones[f.values > 0])) == {1, 2, 3}

    def test_typical_mask_counts(self):
        mask = typical_mask(bern(0.25), 8, 0.5)
        want = sum(math.comb(8, k) for k in (1, 2, 3))
        assert int(mask.sum()) == want

    def test_huge_eps_gives_flat_density(self):
        S = binary_semigroup()
        spec = ExtremalSpec("conditional-typical", n=4, eps=50.0)
        f = build_extremal(spec, S)
        assert np.allclose(f.values, 1.0, atol=1e-12)

    def test_dirac_support(self):
        S = binary_semigroup()
        spec = ExtremalSpec("dirac-mixture", n=6, eps=0.3, beta=0.1)
        f = build_extremal(spec, S)
        mask = typical_mask(np.array([0.5, 0.5]), 6, 0.3)
        zn = 0                                  # all-(argmin) string
        want = mask.copy()
        want[zn] = True
        assert np.array_equal(f.values > 0, want)

    def test_empty_typical_set(self):
        S = binary_semigroup()
        spec = ExtremalSpec("conditional-typical", n=3, eps=1e-6,
                            Q=bern(0.25), lam=1.0)
        with pytest.raises(SobolevError):
            build_extremal(spec, S)

    def test_type_counts(self):
        # the broadcast table against its definition, column a counting the
        # digits equal to a, at every k with m^k <= 2^12
        for m in (2, 3, 4):
            k = 0
            while m ** k <= 1 << 12:
                digits = sequence_digits(m, k)
                want = np.stack([(digits == a).sum(axis=1)
                                 for a in range(m)], axis=1)
                c = sequence_type_counts(m, k)
                assert c.dtype == np.int32 and np.array_equal(c, want)
                k += 1


def _reference_module():
    """perfbench/reference.py: the benchmark's independent formulas, loaded
    by path so the benchmark folder does not join sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _reference_module()


def _assert_rates_match(report, want):
    for got, ref in zip((report.ent_rate, report.dirichlet_rate), want):
        assert abs(got - ref) <= 1e-11 * max(abs(ref), 1e-3)


class TestExtremalTypeClasses:
    # the binary extremal densities depend on a string only through its
    # type, so the dense 2^n route must agree with the benchmark's sums over
    # the n + 1 type classes with binomial weights

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_dirac_mixture(self, n):
        S = binary_semigroup()
        for eps in (0.2, 0.6, 1.0):
            for beta in (0.05, 0.3, 1.0):
                rep = extremal_report(ExtremalSpec(
                    "dirac-mixture", n, eps=eps, beta=beta), S, 3.0, 2.0)
                _assert_rates_match(
                    rep, REF.dirac_mixture_rates(n, 3.0, 2.0, eps, beta))

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_conditional_typical(self, n):
        S = binary_semigroup()
        Q = (0.62, 0.38)
        for eps in (0.2, 0.5):
            for p in (0.0, 1.0, 3.0):
                rep = extremal_report(ExtremalSpec(
                    "conditional-typical", n, eps=eps, Q=np.array(Q)),
                    S, p, 2.0)
                _assert_rates_match(
                    rep, REF.conditional_typical_rates(n, p, 2.0, eps, Q))


class TestExtremalReport:
    def test_flat_density_rates(self):
        S = binary_semigroup()
        spec = ExtremalSpec("conditional-typical", n=4, eps=50.0)
        r = extremal_report(spec, S, 0, 2)
        assert r.ent_rate == pytest.approx(0.0, abs=1e-12)
        assert r.dirichlet_rate == pytest.approx(0.0, abs=1e-12)

    def test_conditional_typical_trend(self):
        # free-parameter family whose relative windows straddle >= 2 type
        # classes from n = 12 on; the rate then drops toward the curve value
        S = binary_semigroup()
        tgt = binary_xi_q(2, 0.3)
        gaps = []
        for n in (8, 12, 16):
            spec = ExtremalSpec("conditional-typical", n=n, eps=0.2,
                                Q=bern(0.38), lam=1.0)
            r = extremal_report(spec, S, 0, 2)
            gaps.append(abs(r.dirichlet_rate - tgt))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01

    def test_single_type_window_pins_rate_at_half(self):
        # when the relative window captures exactly one type class the
        # support is an independent set of the cube: every edge leaves it,
        # so the normalized Dirichlet rate is exactly one half at any n
        S = binary_semigroup()
        for n in (8, 12):
            spec = ExtremalSpec("conditional-typical", n=n, eps=0.2,
                                Q=bern(0.25), lam=1.0)
            r = extremal_report(spec, S, 0, 2)
            assert r.dirichlet_rate == pytest.approx(0.5, abs=1e-12)

    def test_dirac_trend_p_above_q(self):
        # dirichlet rate decays with n while ent rate holds near its
        # beta-limit ln 2 - 4*beta (here gamma = p/q = 4/3)
        S = binary_semigroup()
        beta = 0.05
        dirs, ents = [], []
        for n in (6, 10, 14):
            spec = ExtremalSpec("dirac-mixture", n=n, eps=0.3, beta=beta)
            r = extremal_report(spec, S, 2, 1.5)
            dirs.append(r.dirichlet_rate)
            ents.append(r.ent_rate)
        assert dirs[0] > dirs[1] > dirs[2]
        floor = LN2 - 4 * beta - 0.03
        assert all(e >= floor for e in ents)
        assert all(e <= LN2 + 1e-12 for e in ents)

    def test_report_orders(self):
        S = binary_semigroup()
        spec = ExtremalSpec("product", n=3, eps=0.2)
        with pytest.raises(SobolevError):
            extremal_report(spec, S, 2, 0)
        with pytest.raises(SobolevError):
            extremal_report(spec, S, -1, 2)
