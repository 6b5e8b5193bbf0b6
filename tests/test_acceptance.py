"""Acceptance suite: one criterion per test, one [PASS]/[FAIL] line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines for passing
criteria too. Each criterion carries a wall-clock budget that is part of the
pass condition. Criterion 4a checks the sharp side of the p > q transition
through its finite-n rate: at a fixed entropy rate the Dirac mixture's
energy floor falls with n at the exponent the construction predicts (the
claim that it reaches zero is asymptotic; at n = 12 the floor is still about
0.089).
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, "tests")
from util import random_regular_graph

from rslab.concentration import (beta_binary, gaussian_bound, gaussian_q_star,
                                 hypercube_bound, xi_inverse)
from rslab.graph_spectral import (complete_graph, faber_krahn_bound,
                                  faber_krahn_exact, graph_generator,
                                  hamming_shell_subgraph, q_radius,
                                  subgraph_q_radius)
from rslab.semigroup import (apply_generator, as_function, binary_semigroup,
                             derivative_check, dirichlet_form, heat_operator,
                             pi_product, validate_semigroup)
from rslab.sobolev import (ExtremalSpec, binary_xi_q, conv_envelope,
                           extremal_report, lsi_constant, sample_binary_curve,
                           sample_xi_curve, xi_pq_n, xi_q)

LN2 = math.log(2.0)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    return ok


def test_criterion_01_binary_oracle_agreement():
    # simplex optimizer against the exact two-point closed form
    t0 = time.time()
    S = binary_semigroup()
    grid = np.linspace(0.0, LN2 - 1e-6, 64, endpoint=False)
    worst = 0.0
    for q in (0.0, 0.8, 1.0, 1.5, 2.0, 3.0):
        for a in grid:
            worst = max(worst, abs(xi_q(S, q, a) - binary_xi_q(q, a)))
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt < 10.0
    assert report("criterion 1: optimizer matches two-point closed form",
                  ok, f"max err {worst:.2e}, {dt:.1f} s")


def test_criterion_02_optimal_lsi_constant():
    t0 = time.time()
    c = lsi_constant(sample_binary_curve(2.0, 64), 2.0)
    dt = time.time() - t0
    ok = abs(c - 2.0) <= 0.04 and dt < 1.0
    assert report("criterion 2: two-point order-2 optimal constant is 2",
                  ok, f"constant {c:.6f}, {dt:.2f} s")


def test_criterion_03_two_letter_sandwich():
    # conv Xi_q - 1e-4 <= Xi_q^(2) <= Xi_q + 1e-4 pointwise on the grid
    t0 = time.time()
    S = binary_semigroup()
    worst_lo = worst_hi = 0.0
    for q in (1.5, 2.0, 3.0):
        curve = sample_binary_curve(q, 64)
        env = conv_envelope(curve)
        for a, up, dn in zip(curve.grid, curve.values, env.values):
            v2 = xi_pq_n(S, q, q, 2, a)
            worst_lo = max(worst_lo, dn - 1e-4 - v2)
            worst_hi = max(worst_hi, v2 - up - 1e-4)
    dt = time.time() - t0
    ok = worst_lo <= 0.0 and worst_hi <= 0.0 and dt < 300.0
    assert report("criterion 3: two-letter curve sits in the envelope "
                  "sandwich", ok,
                  f"violations {worst_lo:.2e}/{worst_hi:.2e}, {dt:.0f} s")


def _dirac_boundary_report(S, n, eps):
    """Lowest-energy Dirac-mixture report with ent_rate >= 0.3.

    ent_rate decreases in beta while dirichlet_rate does too, so the
    constrained minimum sits on the ent_rate = 0.3 boundary; bisect to it.
    """
    def rep(beta):
        return extremal_report(ExtremalSpec("dirac-mixture", n, eps=eps,
                                            beta=beta), S, 3.0, 2.0)
    lo, hi = 0.01, 3.0
    if rep(lo).ent_rate < 0.3:
        return None
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if rep(mid).ent_rate >= 0.3:
            lo = mid
        else:
            hi = mid
    return rep(lo)


def test_criterion_04a_dirac_mixture_transition():
    # sharp side of the transition (p > q, where the n-letter curve drops to
    # zero): at a fixed entropy rate 0.3 the Dirac mixture's energy floor
    # must go to zero with n, at the rate the construction predicts. With
    # gamma = p/q = 3/2 the spike alone gives ent_rate >= ln 2 - 3 beta, so
    # the binding weight is at least beta* = (ln 2 - 0.3)/3, and the spike's
    # Dirichlet rate under the rate-1/2 flip chain is at most
    # e^{-n beta*}/2. The floor falls in n, stays under that bound, and its
    # scaled value floor * e^{n beta*} rises, which pins the decay exponent
    # to beta* from both sides.
    t0 = time.time()
    S = binary_semigroup()
    beta_star = (LN2 - 0.3) / 3.0
    ns = (8, 12, 16)
    floors, ents = [], []
    for n in ns:
        best = None
        for eps in (0.2, 0.6, 1.0):
            r = _dirac_boundary_report(S, n, eps)
            if r is not None and (best is None
                                  or r.dirichlet_rate < best.dirichlet_rate):
                best = r
        floors.append(math.inf if best is None else best.dirichlet_rate)
        ents.append(-math.inf if best is None else best.ent_rate)
    dt = time.time() - t0
    bounds = [0.5 * math.exp(-n * beta_star) for n in ns]
    scaled = [f * math.exp(n * beta_star) for f, n in zip(floors, ns)]
    ok = (min(ents) >= 0.3 and floors[0] > floors[1] > floors[2]
          and all(f <= b for f, b in zip(floors, bounds))
          and scaled[0] < scaled[1] < scaled[2] and dt < 120.0)
    assert report("criterion 4a: Dirac-mixture floor decays at the "
                  "predicted rate (ent_rate 0.3, n = 8/12/16)", ok,
                  "floors " + "/".join(f"{f:.4f}" for f in floors)
                  + ", bounds " + "/".join(f"{b:.4f}" for b in bounds)
                  + f", {dt:.0f} s")


def test_criterion_04b_conditional_typical_convergence():
    # the conditioned-typical construction closes in on the curve value
    t0 = time.time()
    S = binary_semigroup()
    target = binary_xi_q(2.0, 0.3)
    gaps = []
    for n in (8, 12, 16):
        rep = extremal_report(
            ExtremalSpec("conditional-typical", n, eps=0.2,
                         Q=np.array([0.62, 0.38])), S, 0.0, 2.0)
        gaps.append(abs(rep.dirichlet_rate - target))
    dt = time.time() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and dt < 120.0
    assert report("criterion 4b: conditioned-typical gap shrinks with n",
                  ok, "gaps " + "/".join(f"{g:.4f}" for g in gaps)
                  + f", {dt:.1f} s")


def test_criterion_05_qradius_symmetry_and_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_sym = worst_mono = 0.0
    count = 0
    while count < 20:
        nv = int(rng.integers(4, 13))
        d = int(rng.integers(2, min(nv, 6)))
        if nv * d % 2:
            continue
        A = random_regular_graph(nv, d, rng).adjacency
        count += 1
        for q in (1.25, 1.5, 3.0, 5.0):
            qp = q / (q - 1.0)
            worst_sym = max(worst_sym, abs(q_radius(A, q) - q_radius(A, qp)))
        down = [q_radius(A, q) for q in (1.0, 1.25, 1.5, 2.0)]
        up = [q_radius(A, q) for q in (2.0, 3.0, 6.0, math.inf)]
        worst_mono = max(worst_mono,
                         max(b - a for a, b in zip(down, down[1:])),
                         max(a - b for a, b in zip(up, up[1:])))
    dt = time.time() - t0
    ok = worst_sym <= 1e-6 and worst_mono <= 1e-6 and dt < 60.0
    assert report("criterion 5: q-radius conjugate symmetry and "
                  "monotonicity on 20 regular graphs", ok,
                  f"sym {worst_sym:.2e}, mono {worst_mono:.2e}, {dt:.1f} s")


# small-support battery: (base size, power, supports); every instance keeps
# base^power <= 16
IDENTITY_INSTANCES = (
    (2, 1, (2,)),
    (2, 2, (2, 3, 4)),
    (2, 3, (2, 3, 4, 5, 6, 7, 8)),
    (2, 4, range(2, 17)),
    (3, 1, (2, 3)),
    (3, 2, (2, 3, 4, 5, 6, 7, 8, 9)),
    (4, 1, (2, 3, 4)),
    (4, 2, range(2, 17)),
)


def test_criterion_06_small_support_values_bound_and_identity():
    t0 = time.time()
    # exact anchors: one-edge supports and the dimension-2 subcube
    anchor1 = faber_krahn_exact(complete_graph(2), 2, 2.0, 2)
    anchor2 = faber_krahn_exact(complete_graph(2), 3, 2.0, 4)
    anchors_ok = (abs(anchor1.value - 1.0) <= 1e-9
                  and abs(anchor2.value - 2.0) <= 1e-9
                  and anchor2.witness == (0, 1, 2, 3))
    empty_ok = all(faber_krahn_exact(complete_graph(b), n, 2.0, 1).value == 0.0
                   for b, n, _ in IDENTITY_INSTANCES)

    # dual routes: subgraph maxima against the support-constrained curve
    worst_id = 0.0
    for b, n, ms in IDENTITY_INSTANCES:
        G = complete_graph(b)
        S = graph_generator(G)
        for m in ms:
            lam = faber_krahn_exact(G, n, 2.0, m).value
            a = math.log(b) - math.log(m) / n
            via = n * ((b - 1) - 1.0 * xi_pq_n(S, 0.0, 2.0, n, a))
            worst_id = max(worst_id, abs(lam - via))
    for b, n, m, q in ((2, 3, 4, 1.5), (3, 1, 2, 1.5)):
        G = complete_graph(b)
        lam = faber_krahn_exact(G, n, q, m).value
        a = math.log(b) - math.log(m) / n
        via = n * ((b - 1) - (q - 1.0) * xi_pq_n(graph_generator(G), 0.0, q,
                                                 n, a))
        worst_id = max(worst_id, abs(lam - via))

    # curve bound dominates every exact value
    worst_margin = math.inf
    curve2 = conv_envelope(sample_binary_curve(2.0, 512, scale=2.0))
    for b, top_n in ((2, 4), (3, 2), (4, 2)):
        G = complete_graph(b)
        if b == 2:
            env = curve2
        else:
            env = conv_envelope(sample_xi_curve(graph_generator(G), 2.0, 48))
        for n in range(1, top_n + 1):
            for m in range(2, b ** n + 1):
                ex = faber_krahn_exact(G, n, 2.0, m).value
                ub = faber_krahn_bound(b - 1, 2.0, env, n, m)
                worst_margin = min(worst_margin, ub - ex)
    for q in (1.5, 3.0):
        env = conv_envelope(sample_binary_curve(q, 512, scale=2.0))
        for n in (2, 3):
            for m in range(2, 2 ** n + 1):
                ex = faber_krahn_exact(complete_graph(2), n, q, m).value
                ub = faber_krahn_bound(1, q, env, n, m)
                worst_margin = min(worst_margin, ub - ex)

    dt = time.time() - t0
    ok = (anchors_ok and empty_ok and worst_id <= 1e-6
          and worst_margin >= -1e-6 and dt < 300.0)
    assert report("criterion 6: small-support exact values, curve bound, "
                  "dual-route identity", ok,
                  f"identity err {worst_id:.2e}, bound margin "
                  f"{worst_margin:.2e}, {dt:.0f} s")


def test_criterion_07_hamming_ball_gap_trend():
    # radius-0.4n Hamming balls close the gap to the curve bound as n grows
    t0 = time.time()
    curve = conv_envelope(sample_binary_curve(2.0, 512, scale=2.0))
    gaps = {}
    for n in (8, 12):
        r = round(0.4 * n)
        view = hamming_shell_subgraph(n, range(r + 1))
        rho = subgraph_q_radius(view, 2.0)
        ub = faber_krahn_bound(1, 2.0, curve, n, len(view.vertices))
        gaps[n] = (ub - rho) / ub
    closure = (gaps[8] - gaps[12]) / gaps[8]
    dt = time.time() - t0
    ok = closure >= 0.30 and dt < 60.0
    assert report("criterion 7: ball subgraphs close >= 30% of the bound "
                  "gap", ok,
                  f"relgaps {gaps[8]:.4f} -> {gaps[12]:.4f}, closure "
                  f"{closure:.4f}, {dt:.1f} s")


def test_criterion_08_concentration_closed_forms():
    t0 = time.time()
    # gaussian family: closed form, piecewise with a continuous breakpoint
    worst_g = 0.0
    for p in (0.0, 0.5, 1.0, 2.0, 3.0):
        for r in (0.0, 0.2, 0.5 * p, 0.5 * p + 1e-3, 1.5, 4.0):
            want = (math.exp(-(r + 0.5 * p) ** 2 / 2.0) if r >= 0.5 * p
                    else math.exp(-p * r))
            worst_g = max(worst_g, abs(gaussian_bound(p, r) - want))
        flat = math.exp(-p * (0.5 * p))
        quad = math.exp(-(0.5 * p + 0.5 * p) ** 2 / 2.0)
        worst_g = max(worst_g, abs(flat - quad))
    gauss_ok = worst_g <= 1e-12

    # cube bound at p = 0 stays strictly under the product baseline
    worst_margin = math.inf
    for n in (5, 10, 20):
        for r in (0.5, 1.0, 2.0, 0.5 * n):
            rep = hypercube_bound(n, 0.0, r)
            baseline = math.exp(-r * r / (4.0 * n))
            worst_margin = min(worst_margin, baseline - rep.bound)
    dt = time.time() - t0
    ok = gauss_ok and worst_margin >= 1e-6 and dt < 30.0
    assert report("criterion 8: concentration closed forms and cube "
                  "improvement", ok,
                  f"gaussian err {worst_g:.2e}, cube margin "
                  f"{worst_margin:.2e}, {dt:.0f} s")


def test_criterion_09_standard_domination():
    t0 = time.time()
    worst = 0.0
    for s in np.linspace(0.1, 2.0, 20):
        for t in np.linspace(0.0, 0.5, 11):
            worst = max(worst, xi_inverse(s, t) - 0.5 * s * s * t)
    worst_beta = max(beta_binary(s) - 2.0 for s in np.linspace(0.0, 2.0, 81))
    dt = time.time() - t0
    ok = worst <= 1e-12 and worst_beta <= 1e-12 and dt < 5.0
    assert report("criterion 9: inverse curve under the standard envelope, "
                  "energy ratio under 2", ok,
                  f"violations {worst:.2e}/{worst_beta:.2e}, {dt:.1f} s")


def test_criterion_10_core_identities():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def random_chain(k):
        A = rng.uniform(0.2, 1.0, (k, k))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        return validate_semigroup(A - np.diag(A.sum(axis=1)))

    worst_gamma = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        S = random_chain(k)
        f = as_function(rng.uniform(0.0, 2.0, k ** n), k)
        g = as_function(rng.uniform(0.0, 2.0, k ** n), k)
        direct = -float(pi_product(S, n)
                        @ (apply_generator(S, f) * g.values))
        worst_gamma = max(worst_gamma, abs(dirichlet_form(S, f, g) - direct))

    worst_d = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        S = random_chain(k)
        q = float(rng.uniform(1.2, 4.0))
        f = as_function(rng.uniform(0.3, 2.0, k ** n), k)
        fd, an = derivative_check(S, f, q)
        worst_d = max(worst_d, abs(fd - an))

    worst_h = 0.0
    for _ in range(50):
        S = random_chain(int(rng.integers(2, 5)))
        s, t = rng.uniform(0.1, 1.5, 2)
        prod = heat_operator(S, s) @ heat_operator(S, t)
        worst_h = max(worst_h,
                      float(np.abs(prod - heat_operator(S, s + t)).max()),
                      float(np.abs(heat_operator(S, s).sum(axis=1)
                                   - 1.0).max()))
    dt = time.time() - t0
    ok = (worst_gamma <= 1e-10 and worst_d <= 1e-6 and worst_h <= 1e-9
          and dt < 30.0)
    assert report("criterion 10: squared-field, derivative, and semigroup "
                  "identities", ok,
                  f"errs {worst_gamma:.2e}/{worst_d:.2e}/{worst_h:.2e}, "
                  f"{dt:.1f} s")
