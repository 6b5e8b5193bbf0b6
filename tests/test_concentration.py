import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rslab import concentration
from rslab.concentration import (
    BINARY_FAMILY,
    GAUSSIAN_FAMILY,
    SATURATION_ORDER,
    BoundReport,
    ConcentrationError,
    InversionError,
    adaptive_simpson,
    beta_binary,
    concentration_bound,
    gaussian_bound,
    gaussian_q_star,
    hypercube_bound,
    standard_cube_baseline,
    upsilon_bound,
    xi_inverse,
)
from rslab.sobolev import LN2, alpha_of_u, binary_xi_q, binary_xi_y, hfun

E1 = math.e - 1.0


def xi_inverse_oracle(s, t):
    """Invert the two-point curve through y-space root finding: brentq on
    the curve's y form, which needs no h^{-1} inside each step."""
    if t >= binary_xi_y(s, 0.0):
        return LN2
    g = lambda y: binary_xi_y(s, y) - t
    y = brentq(g, 1e-18, 0.5, xtol=1e-15)
    return LN2 - hfun(y)


def mp_xi_inverse(mp, s, t):
    """Invert the y-form of the two-point curve at the working precision,
    by Ridder's bracketed method in ln u with u = 1/2 - y."""
    s, t = mp.mpf(s), mp.mpf(t)

    def excess(z):
        u = mp.exp(z)
        y = mp.mpf(1) / 2 - u
        if s == 1:
            return u * mp.log((1 - y) / y) - t
        c = (s - 1) / s
        return (1 - y ** (1 / s) * (1 - y) ** c
                - y ** c * (1 - y) ** (1 / s)) / (2 * (s - 1)) - t

    u = mp.exp(mp.findroot(excess, (mp.log(mp.mpf(10) ** -30),
                                    mp.log(mp.mpf(1) / 2)), solver="ridder"))
    # ln 2 - h(1/2 - u), without its cancellation against ln 2
    return 2 * u * mp.atanh(2 * u) + mp.log1p(-4 * u * u) / 2


_NODE_CACHE = {}


def cube_integrand_nodes(panels=10000):
    """Integrand of the cube family tabulated on a uniform grid over [0, 2],
    plus composite-Simpson prefix integrals at even node indices."""
    if panels not in _NODE_CACHE:
        s = np.linspace(0.0, 2.0, panels + 1)
        vals = np.empty(panels + 1)
        vals[0] = math.acosh(1.0 + 2.0 * beta_binary(0.0)) ** 2 / 8.0
        for i in range(1, panels + 1):
            vals[i] = xi_inverse_oracle(s[i], beta_binary(s[i])) / s[i] ** 2
        h = 2.0 / panels
        prefix = np.zeros(panels // 2 + 1)
        chunks = h / 3.0 * (vals[0:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2])
        prefix[1:] = np.cumsum(chunks)
        _NODE_CACHE[panels] = (s, vals, prefix)
    return _NODE_CACHE[panels]


class TestBetaBinary:
    def test_anchor_values(self):
        assert beta_binary(1.0) == pytest.approx(E1 / 2.0, abs=1e-15)
        assert beta_binary(2.0) == pytest.approx(E1 ** 2 / 2.0, abs=1e-15)
        assert beta_binary(0.0) == pytest.approx(E1 ** 2 / (2.0 * math.e),
                                                 abs=1e-15)

    def test_continuity_at_one(self):
        d = 1e-5
        stencil = beta_binary(1 + d) + beta_binary(1 - d) - 2 * beta_binary(1)
        assert abs(stencil) <= 1e-10

    def test_bounded_by_two(self):
        grid = np.linspace(0.0, 2.0, 2001)
        assert max(beta_binary(s) for s in grid) <= 2.0

    def test_range_errors(self):
        with pytest.raises(ConcentrationError):
            beta_binary(-0.1)
        with pytest.raises(ConcentrationError):
            beta_binary(2.1)


class TestXiInverse:
    def test_endpoints(self):
        assert xi_inverse(2.0, 0.0) == 0.0
        assert xi_inverse(2.0, 0.5) == LN2

    def test_round_trip(self):
        for q in (0.0, 0.3, 0.8, 1.0, 1.5, 2.0, 3.0):
            top = binary_xi_q(q, LN2)
            for t in (1e-5, 0.01, 0.2, 0.45, 1.2):
                if t >= top:
                    continue
                assert binary_xi_q(q, xi_inverse(q, t)) == \
                    pytest.approx(t, abs=1e-10)

    def test_matches_independent_root_finder(self):
        for s in (0.4, 1.0, 1.3, 1.8):
            t = beta_binary(s)
            assert xi_inverse(s, t) == \
                pytest.approx(xi_inverse_oracle(s, t), abs=1e-12)

    def test_small_order_limit(self):
        # xi_inverse(s, t) / s^2 -> the order-0 inverse as s -> 0, whose
        # O(s) correction the 0.2 s slack covers
        for s in (1e-9, 1e-7, 1e-5):
            for t in (0.01, 0.3, beta_binary(0.0)):
                lim = math.acosh(1.0 + 2.0 * t) ** 2 / 8.0
                assert abs(xi_inverse(s, t) / s ** 2 - lim) <= \
                    (1e-6 + 0.2 * s) * lim

    def test_level_of_u(self):
        for u in np.linspace(0.1, 0.5, 41):
            assert abs(alpha_of_u(u) - (LN2 - hfun(0.5 - u))) <= 1e-15
        for u in (1e-12, 1e-9, 1e-6, 1e-4):
            series = 2.0 * u * u + 4.0 * u ** 4 / 3.0
            assert abs(alpha_of_u(u) - series) <= 1e-15 * series

    def test_saturation(self):
        # above the curve's range the inversion pins at the right endpoint
        assert xi_inverse(2.0, 0.7) == LN2
        assert xi_inverse(1.6, beta_binary(1.6)) == LN2
        s = SATURATION_ORDER
        assert beta_binary(s) == pytest.approx(1.0 / (2.0 * (s - 1.0)),
                                               abs=1e-12)

    def test_errors(self):
        with pytest.raises(ConcentrationError):
            xi_inverse(2.0, -0.1)
        with pytest.raises(ConcentrationError):
            xi_inverse(-1.0, 0.1)

    def test_matches_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        orders = np.concatenate((np.geomspace(1e-9, 1e-2, 15),
                                 np.linspace(0.01, 2.0, 40),
                                 [1 - 5e-7, 1 + 5e-7, 1 - 1e-8, 1 + 1e-8]))
        checked = 0
        with mp.workdps(40):
            for s in orders:
                s = float(s)
                for t in (beta_binary(s), 0.3 * beta_binary(s),
                          1e-3 * beta_binary(s)):
                    if s > 1.0 and t >= 0.5 / (s - 1.0):
                        continue
                    ref = mp_xi_inverse(mp, s, t)
                    assert abs(xi_inverse(s, t) - ref) <= 1e-13 * ref, (s, t)
                    checked += 1
        assert checked > 150

    def test_continuous_across_order_one(self):
        for t in (0.01, 0.3, beta_binary(1.0)):
            at_one = xi_inverse(1.0, t)
            for d in (1e-9, 1e-7, 1e-5):
                for q in (1.0 - d, 1.0 + d):
                    assert abs(xi_inverse(q, t) - at_one) <= d

    def test_round_trip_below_saturation(self):
        # at 0.99 F_sat the level sits within 3e-4 of ln 2, where one ulp of
        # alpha moves the curve by up to about 2e-10 relative (q = 1.25, 5)
        for q in (1.25, 1.5, 2.0, 3.0, 5.0):
            f_sat = 0.5 / (q - 1.0)
            t = f_sat * (1.0 - 1e-2)
            alpha = xi_inverse(q, t)
            assert alpha < LN2
            assert binary_xi_q(q, alpha) == pytest.approx(t, rel=1e-9)
            # the solve switches to the gap F_sat - F at t = F_sat / 2
            half = 0.5 * f_sat
            assert abs(xi_inverse(q, half * (1.0 - 1e-12)) -
                       xi_inverse(q, half)) <= 1e-12

    def test_iteration_cap_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(concentration, "INVERSE_MAXITER", 1)
        with pytest.raises(InversionError):
            xi_inverse(1.0, 0.5)
        with pytest.raises(InversionError):
            xi_inverse(1.3, beta_binary(1.3))

    def test_curve_evaluations_per_tail_row_inversion(self, monkeypatch):
        # deterministic cost guard: a slower solve shows as more curve
        # evaluations per inversion at the quadrature's own nodes
        evals, per_call = [0], []
        for name in ("_curve_ln_w", "_curve_gap_w"):
            def counted(q, x, f=getattr(concentration, name)):
                evals[0] += 1
                return f(q, x)
            monkeypatch.setattr(concentration, name, counted)
        inverse = concentration.xi_inverse

        def recorded(q, t):
            evals[0] = 0
            alpha = inverse(q, t)
            if evals[0]:
                per_call.append(evals[0])
            return alpha
        monkeypatch.setattr(concentration, "xi_inverse", recorded)
        hypercube_bound(10, 0.0, 2.0)
        assert len(per_call) > 100
        assert np.mean(per_call) <= 8.0


class TestQuadrature:
    def test_cubic_exact(self):
        val, err = adaptive_simpson(lambda x: x ** 3, 0.0, 1.0)
        assert val == pytest.approx(0.25, abs=1e-14)
        assert err <= 1e-15

    def test_smooth(self):
        val, err = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(math.e - 1.0, abs=1e-10)
        assert err <= 1e-10

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == (0.0, 0.0)

    def test_jump_fails_loudly(self):
        step = lambda x: 0.0 if x < 1.0 / math.sqrt(2.0) else 1.0
        with pytest.raises(ConcentrationError):
            adaptive_simpson(step, 0.0, 1.0, tol=1e-8)


class TestUpsilonBound:
    def test_zero_beta(self):
        assert upsilon_bound(0.5, 2.0, lambda s: 0.0, GAUSSIAN_FAMILY) == 0.0
        assert upsilon_bound(0.5, 2.0, lambda s: 0.0, BINARY_FAMILY) == 0.0

    def test_gaussian_constant_closed_form(self):
        for (p, q, c) in [(0.5, 2.0, 0.3), (1.0, 3.0, 1.0), (0.1, 0.2, 2.0)]:
            got = upsilon_bound(p, q, lambda s: c, GAUSSIAN_FAMILY)
            assert got == pytest.approx(q * p * c / 2.0, abs=1e-12)

    def test_binary_matches_simpson_oracle(self):
        s, vals, prefix = cube_integrand_nodes()
        oracle = (prefix[-1] - prefix[1250]) * 2.0 * 0.5 / 1.5
        got = upsilon_bound(0.5, 2.0, beta_binary, BINARY_FAMILY)
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_requires_positive_orders(self):
        with pytest.raises(ConcentrationError):
            upsilon_bound(0.0, 2.0, beta_binary, BINARY_FAMILY)
        with pytest.raises(ConcentrationError):
            upsilon_bound(1.0, 1.0, beta_binary, BINARY_FAMILY)


class TestGaussianBound:
    def test_piecewise_values(self):
        assert gaussian_bound(0.0, 1.5) == pytest.approx(math.exp(-1.125),
                                                         abs=1e-15)
        assert gaussian_bound(1.0, 0.3) == pytest.approx(math.exp(-0.3),
                                                         abs=1e-15)
        for r in (0.0, 0.4, 2.0):
            assert gaussian_bound(0.0, r) == \
                pytest.approx(math.exp(-r * r / 2.0), abs=1e-15)

    def test_breakpoint_continuity(self):
        for p in (0.5, 1.0, 3.0):
            r = p / 2.0
            left = math.exp(-p * r)
            right = math.exp(-0.5 * (r + p / 2.0) ** 2)
            assert abs(left - right) <= 1e-12
            assert gaussian_bound(p, r) == pytest.approx(left, abs=1e-12)

    def test_q_star(self):
        assert gaussian_q_star(1.0, 2.0) == 2.5
        assert gaussian_q_star(1.0, 0.2) == 1.0

    def test_matches_quadrature_route(self):
        for p in (0.0, 0.5, 1.0, 2.0):
            for r in (0.0, 0.2, 0.75, 1.5, 3.0):
                qs = gaussian_q_star(p, r)
                got = concentration_bound(7, p, qs, r, GAUSSIAN_FAMILY,
                                          lambda s: 1.0 / 7)
                assert got == pytest.approx(gaussian_bound(p, r), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ConcentrationError):
            gaussian_bound(-1.0, 0.5)


class TestConcentrationBound:
    def test_underflow_safe(self):
        val = concentration_bound(5, 0.0, 2.0, 1000.0, BINARY_FAMILY,
                                  beta_binary)
        assert 0.0 <= val < 1e-300

    def test_log_space_extremes(self):
        lv = concentration_bound(5, 0.0, 2.0, 1e5, BINARY_FAMILY,
                                 beta_binary, log=True)
        assert -2.1e5 < lv < -1.9e5 and math.isfinite(lv)
        lv = concentration_bound(5, 0.0, 2.0, -1e5, BINARY_FAMILY,
                                 beta_binary, log=True)
        assert math.isfinite(lv) and lv > 1.9e5

    def test_degenerate_interval(self):
        got = concentration_bound(3, 1.0, 1.0, 0.7, BINARY_FAMILY,
                                  beta_binary)
        assert got == pytest.approx(math.exp(-0.7), abs=1e-14)

    def test_binary_fixed_order_against_oracle(self):
        s, vals, prefix = cube_integrand_nodes()
        n, q, r = 10, 1.0, 0.5
        oracle = math.exp(n * q * prefix[2500] - r * q)
        got = concentration_bound(n, 0.0, q, r, BINARY_FAMILY, beta_binary)
        assert got == pytest.approx(oracle, rel=1e-7)

    def test_errors(self):
        with pytest.raises(ConcentrationError):
            concentration_bound(0, 0.0, 2.0, 1.0, BINARY_FAMILY, beta_binary)
        with pytest.raises(ConcentrationError):
            concentration_bound(3, 1.0, 0.5, 1.0, BINARY_FAMILY, beta_binary)


class TestHypercubeBound:
    def test_report_invariants(self):
        rep = hypercube_bound(10, 0.0, 2.0)
        assert isinstance(rep, BoundReport)
        assert rep.bound >= 0.0 and rep.quad_error <= 1e-8
        assert rep.log_bound == pytest.approx(math.log(rep.bound), rel=1e-12)
        assert 0.0 <= rep.q_star <= 2.0

    def test_improves_on_standard_baseline(self):
        rep = hypercube_bound(10, 0.0, 2.0)
        assert rep.baseline == pytest.approx(math.exp(-0.1), abs=1e-15)
        assert rep.bound <= rep.baseline - 1e-6
        for n, r in [(5, 1.0), (20, 10.0)]:
            rep = hypercube_bound(n, 0.0, r)
            assert rep.bound <= rep.baseline - 1e-6

    def test_matches_dense_oracle(self):
        s, vals, prefix = cube_integrand_nodes()
        n, r = 10, 2.0
        qs = s[0::2]
        expo = n * qs * prefix - r * qs
        k = int(np.argmin(expo))
        # quadratic refinement through the three lowest grid points
        a, b, c = expo[k - 1], expo[k], expo[k + 1]
        h = qs[1] - qs[0]
        shift = 0.5 * h * (a - c) / (a - 2 * b + c)
        emin = b - 0.125 * (a - c) ** 2 / (a - 2 * b + c)
        rep = hypercube_bound(n, 0.0, r)
        assert rep.bound == pytest.approx(math.exp(emin), rel=1e-6)
        assert rep.q_star == pytest.approx(qs[k] + shift, abs=1e-3)

    # reference rows, computed with a 100-step bisection inverse in
    # u = 1/2 - y
    @pytest.mark.parametrize("n, p, r, log_bound, q_star", [
        (5, 0.0, 1.0, -0.19514550497647343, 0.37366793749786986),
        (5, 0.5, 1.0, -0.5099444395697451, 0.5763183697739065),
        (10, 0.0, 1.0, -0.10205045796844432, 0.19927508056488868),
        (10, 0.5, 1.0, -0.5, 0.5),
        (20, 0.0, 1.0, -0.052280888457472426, 0.10325472142845792),
        (20, 0.5, 1.0, -0.5, 0.5),
        (20, 0.0, 6.0, -1.686515150980467, 0.5296159755408709),
        (10, 0.0, 0.0, 0.0, 0.0),
    ])
    def test_pinned_rows(self, n, p, r, log_bound, q_star):
        rep = hypercube_bound(n, p, r)
        assert rep.log_bound == pytest.approx(log_bound, abs=1e-12)
        assert rep.q_star == pytest.approx(q_star, abs=1e-7)

    def test_zero_deviation(self):
        rep = hypercube_bound(10, 0.0, 0.0)
        assert rep.log_bound == 0.0 and rep.q_star == 0.0

    def test_nonpositive_r_reports_above_one(self):
        rep = hypercube_bound(6, 0.5, -1.0)
        assert rep.bound >= 1.0
        assert rep.q_star == pytest.approx(0.5, abs=1e-6)

    def test_degenerate_p(self):
        rep = hypercube_bound(4, 2.0, 1.0)
        assert rep.bound == pytest.approx(math.exp(-2.0), abs=1e-14)
        assert rep.q_star == 2.0 and rep.saturated

    def test_saturation_flag(self):
        assert hypercube_bound(3, 1.8, 0.1).saturated
        assert not hypercube_bound(10, 0.0, 2.0).saturated

    def test_errors(self):
        with pytest.raises(ConcentrationError):
            hypercube_bound(5, 2.5, 1.0)
        with pytest.raises(ConcentrationError):
            hypercube_bound(0, 0.5, 1.0)


class TestStandardDomination:
    def test_curve_inverse_below_tangent(self):
        for s in np.linspace(0.1, 2.0, 20):
            for t in np.linspace(0.0, 0.5, 11):
                assert xi_inverse(s, t) <= s * s * t / 2.0 + 1e-12

    def test_baseline_formula(self):
        assert standard_cube_baseline(10, 0.0, 2.0) == \
            pytest.approx(math.exp(-0.1), abs=1e-15)
        assert standard_cube_baseline(4, 1.0, 2.0) == \
            pytest.approx(math.exp(-2.0), abs=1e-15)  # r < np branch
