"""The benchmark's three workloads: their inputs, operations and checks.

Each workload is a fixed list of operations built from the seed; a run makes
whole passes over it, so every run has the same mix. The seed draws the
alpha levels (curves), the random regular graphs (subgraphs) and the
deviation levels r (tables), each inside a fixed stratum so that the cost
mix stays alike from seed to seed. Every operation is a closure that calls
rslab through module attributes at call time, so the tracer's wrappers see
it.

Every workload also repeats one cheap fixed operation (a probe) of each kind
it does not own, so that every end-to-end metric reads on every workload.
The repeats are sized so that each probe kind runs 0.4-1 s per pass;
spread over the pass, they let the median see the whole run rather than the
moment of one call. The probes are the same on every workload and seed; the
workload's own operations carry the metrics it is named for. One probe of
every kind is also the set-up's warm-up.

Checks compare against `reference` or against properties the method must
have; nothing is compared with a stored copy of earlier output. A check
returns a list of problems, empty when the output passes.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

import reference as R

KINDS = ("xi_q", "xi_pq_n", "support", "faber_krahn", "q_radius",
         "tail_table", "curve_table", "extremal_table")

LN2 = math.log(2.0)


class OpFailed(Exception):
    """An operation the program could not complete (CLI exit code != 0)."""


@dataclass
class Op:
    kind: str
    label: str
    run: object                     # () -> output
    check: object                   # output -> list of problems
    expect_fail: bool = False       # the known fault kept in `tables`
    probe: bool = False


@dataclass
class Workload:
    ops: list
    cross_check: object             # {label: output} -> list of problems
    warmups: list                   # one probe of every kind


def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _strata(rng, hi, centers, width):
    """One level per stratum: hi * (c + width * (U - 1/2))."""
    return [hi * (c + width * (rng.random() - 0.5)) for c in centers]


class Lab:
    """rslab's modules, the file CLI operations write to, and check data
    computed once per process."""

    def __init__(self, modules, out_path):
        for name, mod in modules.items():
            setattr(self, name, mod)
        self.out_path = out_path
        self._cache = {}

    def complete_chain(self, k):
        gs = self.graph_spectral
        return gs.graph_generator(gs.complete_graph(k))

    def cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


# ---------------------------------------------------------------------------
# operation builders, one per kind


def xi_q_op(lab, name, S, q, alpha, probe=False):
    binary = name == "binary"

    def run():
        return lab.sobolev.xi_q(S, q, alpha, return_witness=True)

    def check(out):
        val, Q = out
        probs = []
        if binary and not _close(val, R.two_point_xi(q, alpha), 0.0, 1e-6):
            probs.append(f"value {val!r} vs two-point curve "
                         f"{R.two_point_xi(q, alpha)!r}")
        probs += _witness_problems(lab, S, Q, q, 1, val)
        level = (R.log_variance_level(S, Q) if q == 0
                 else lab.entropy.renyi_divergence(Q, S.stationary, 1.0))
        if level < alpha - 1e-12:
            probs.append(f"witness level {level!r} below {alpha!r}")
        return probs

    return Op("xi_q", f"xi_q {name} q={q} alpha={alpha:.6f}", run, check,
              probe=probe)


def _witness_problems(lab, S, Q, q, n, val):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (S.nstates ** n,) or np.any(Q < 0) \
            or abs(Q.sum() - 1.0) > 1e-12:
        return ["witness is not a distribution on X^n"]
    again = R.witness_objective(lab.semigroup, S, Q, q, n)
    if not _close(again, val, 1e-9, 1e-12):
        return [f"witness re-evaluates to {again!r}, reported {val!r}"]
    return []


def xi_pq_n_op(lab, name, S, p, q, n, alpha, probe=False):
    sandwich = name == "binary" and p == q and n == 2

    def run():
        return lab.sobolev.xi_pq_n(S, p, q, n, alpha, return_witness=True)

    def check(out):
        val, Q = out
        probs = _witness_problems(lab, S, Q, q, n, val)
        pin = R.product_law(S.stationary, n)
        level = lab.entropy.renyi_divergence(Q, pin, p / q) / n
        if level < alpha - 1e-12:
            probs.append(f"witness level {level!r} below {alpha!r}")
        if sandwich:
            grid, hull = R.convex_minorant(q)
            lo = float(np.interp(alpha, grid, hull)) - 1e-4
            hi = R.two_point_xi(q, alpha) + 1e-4
            if not lo <= val <= hi:
                probs.append(f"value {val!r} outside sandwich [{lo}, {hi}]")
        return probs

    return Op("xi_pq_n", f"xi_pq_n {name} p={p} q={q} n={n} alpha={alpha:.6f}",
              run, check, probe=probe)


def support_op(lab, b, n, m, q, probe=False):
    """xi_pq_n at p = 0 on the K_b chain, at the level of supports of size m;
    checked as any xi_pq_n value (the level is then -ln pi(support) / n)."""
    op = xi_pq_n_op(lab, f"K{b}", lab.complete_chain(b), 0.0, q, n,
                    math.log(b) - math.log(m) / n, probe)
    op.kind, op.label = "support", f"support K{b}^{n} m={m} q={q}"
    return op


def fk_op(lab, b, n, m, q, probe=False):
    gs = lab.graph_spectral
    G = gs.complete_graph(b)

    def run():
        return lab.graph_spectral.faber_krahn_exact(G, n, q, m)

    def check(res):
        w = tuple(res.witness)
        N = b ** n
        if len(w) != m or len(set(w)) != m or min(w) < 0 or max(w) >= N:
            return [f"witness {w} is not an m-subset of the {N} vertices"]
        probs = []
        sub = R.power_adjacency(np.ones((b, b)) - np.eye(b), n)[np.ix_(w, w)]
        top = float(np.linalg.eigvalsh(sub)[-1])
        if q == 2:
            if not _close(top, res.value, 1e-12, 1e-9):
                probs.append(f"witness eigenvalue {top!r} vs {res.value!r}")
        elif not top - 1e-9 <= res.value <= sub.sum(axis=1).max() + 1e-9:
            # rho_q of the witness lies between rho_2 and the row-sum max
            probs.append(f"value {res.value!r} outside [rho_2, max degree] "
                         f"of its witness")
        curve = _bound_curve(lab, b, q)
        if curve is not None:
            ub = gs.faber_krahn_bound(b - 1, q, curve, n, m)
            if ub < res.value - 1e-6:
                probs.append(f"bound {ub!r} below exact {res.value!r}")
        return probs

    return Op("faber_krahn", f"faber_krahn K{b}^{n} m={m} q={q}", run, check,
              probe=probe)


def _bound_curve(lab, b, q):
    """Convex envelope behind faber_krahn_bound: the two-point curve (times
    2, the unit-rate edge) for b = 2, rslab's own sampled curve of the K_b
    chain at q = 2 for b = 3, 4, as in the acceptance battery."""
    sob = lab.sobolev
    if b == 2:
        def make():
            grid = np.linspace(0.0, LN2 - 1e-6, 512, endpoint=False)
            vals = 2.0 * np.array([R.two_point_xi(q, a) for a in grid])
            return sob.conv_envelope(sob.SampledCurve(grid, vals, "xi_q", q,
                                                      nstates=2))
    elif q == 2:
        def make():
            return sob.conv_envelope(sob.sample_xi_curve(
                lab.complete_chain(b), 2.0, 48))
    else:
        return None
    return lab.cached(("bound", b, q), make)


def q_radius_op(lab, name, A, q, expect, probe=False):
    """expect: 'regular' (rho_q = degree) or 'ball' (rho_2 = eigvalsh)."""
    d = float(A.sum(axis=1).max())

    def run():
        return lab.graph_spectral.q_radius(A, q)

    def check(val):
        if q == 1:
            if val != d:
                return [f"rho_1 = {val!r}, largest row sum {d!r}"]
        elif math.isinf(q):
            if val != float(A.sum(axis=0).max()):
                return [f"rho_inf = {val!r}, largest column sum"]
        elif expect == "regular":
            if not _close(val, d, 1e-9):
                return [f"rho_{q} = {val!r} on a {d:g}-regular graph"]
        else:
            top = float(np.linalg.eigvalsh(A)[-1])
            if not _close(val, top, 1e-8):
                return [f"rho_2 = {val!r}, eigvalsh {top!r}"]
        return []

    return Op("q_radius", f"q_radius {name} q={q}", run, check, probe=probe)


def cli_op(lab, kind, argv, check_rows, expect_fail=False, probe=False):
    argv = [str(a) for a in argv]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = lab.cli.main(argv + ["--format", "json", "--out",
                                      lab.out_path])
        if rc != 0:
            raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
        with open(lab.out_path) as fh:
            return fh.read()

    def check(text):
        return check_rows(json.loads(text)["rows"])

    return Op(kind, "rslab " + " ".join(argv), run, check,
              expect_fail=expect_fail, probe=probe)


def tail_op(lab, n, p, rs, probe=False):
    def check(rows):
        if len(rows) != len(rs):
            return [f"{len(rows)} rows for {len(rs)} levels"]
        probs = []
        for row, r in zip(rows, rs):
            probs += _tail_row_problems(row, n, p, r)
        return probs

    return cli_op(lab, "tail_table",
                  ["concentration", "--family", "binary", "--n", n,
                   "--p", repr(p), "--r"] + [repr(r) for r in rs],
                  check, probe=probe)


def _tail_row_problems(row, n, p, r):
    if (row["family"], row["n"], row["p"], row["r"]) != ("binary", n, p, r):
        return [f"row {row} is not (binary, {n}, {p}, {r})"]
    qs, logb = row["q_star"], row["log_bound"]
    if not p <= qs <= 2.0:
        return [f"q* = {qs!r} outside [{p}, 2]"]
    probs = []
    tol = 1e-8 * max(1.0, n * qs)
    want = R.tail_exponent(n, p, r, qs)
    if abs(logb - want) > tol:
        probs.append(f"log_bound {logb!r}, n q* I(p, q*) - r q* = {want!r}")
    # q* minimizes the exponent over [p, 2]: it beats both ends
    for q_end in (p, 2.0):
        end = R.tail_exponent(n, p, r, q_end)
        if logb > end + tol:
            probs.append(f"log_bound {logb!r} above the exponent {end!r} "
                         f"at q = {q_end}")
    if not _close(row["bound"], math.exp(logb), 1e-12):
        probs.append(f"bound {row['bound']!r} != exp(log_bound)")
    if not _close(row["baseline"], R.cube_baseline(n, p, r), 1e-12):
        probs.append(f"baseline {row['baseline']!r}")
    if p == 0 and not row["bound"] < row["baseline"]:
        probs.append(f"bound {row['bound']!r} not below baseline "
                     f"{row['baseline']!r} at p = 0")
    return probs


def zero_deviation_op(lab):
    """r = 0 at p = 0: the bound is 1 (log_bound 0). Today this exits 2:
    below order ~1e-7 the integrand reads hinv(ln 2 - alpha) with alpha under
    the spacing of doubles near ln 2, and the quadrature cannot converge."""
    def check(rows):
        if len(rows) != 1 or abs(rows[0]["log_bound"]) > 1e-9:
            return [f"r = 0 rows {rows}, want log_bound 0"]
        return []

    return cli_op(lab, "tail_table",
                  ["concentration", "--family", "binary", "--n", 10,
                   "--p", "0", "--r", "0"], check, expect_fail=True)


XI_GRID = np.linspace(0.0, LN2 - 1e-6, 64, endpoint=False)


def curve_table_op(lab, q, conv, probe=False):
    def check(rows):
        if len(rows) != XI_GRID.size:
            return [f"{len(rows)} rows, want {XI_GRID.size}"]
        alpha = np.array([r["alpha"] for r in rows])
        vals = np.array([r["value"] for r in rows])
        kind = "conv_xi_q" if conv else "xi_q"
        if any(r["kind"] != kind or r["q"] != q for r in rows):
            return [f"rows are not kind {kind} at q = {q}"]
        if np.max(np.abs(alpha - XI_GRID)) > 1e-15:
            return ["alpha column is not the 64-point grid"]
        ref = np.array([R.two_point_xi(q, a) for a in XI_GRID])
        probs = []
        if conv:
            if np.any(vals > ref * (1 + 1e-10) + 1e-15):
                probs.append("envelope rises above the curve")
            if np.min(np.diff(vals, 2)) < -1e-12 * max(1.0, vals.max()):
                probs.append("envelope is not convex")
            hull = R.lower_hull(XI_GRID, ref)
            if np.any(np.abs(vals - hull) > 1e-10 * np.abs(hull) + 1e-15):
                probs.append("envelope is not the greatest convex minorant")
        elif np.any(np.abs(vals - ref) > 1e-10 * np.abs(ref) + 1e-15):
            k = int(np.argmax(np.abs(vals - ref)))
            probs.append(f"value {vals[k]!r} at alpha {alpha[k]!r}, "
                         f"two-point curve {ref[k]!r}")
        return probs

    return cli_op(lab, "curve_table",
                  ["xi", "--binary", "--q", repr(q)] + (["--conv"] if conv
                                                        else []),
                  check, probe=probe)


def extremal_op(lab, variant, n, probe=False):
    if variant == "dirac-mixture":
        p, q, eps, beta = 3.0, 2.0, 0.2, 0.3
        extra = ["--beta", repr(beta)]
        want = R.dirac_mixture_rates(n, p, q, eps, beta)
    else:
        p, q, eps, Q = 1.0, 2.0, 0.2, (0.62, 0.38)
        extra = ["--Q", repr(Q[0]), repr(Q[1])]
        want = R.conditional_typical_rates(n, p, q, eps, Q)

    def check(rows):
        if len(rows) != 1:
            return [f"{len(rows)} rows"]
        got = (rows[0]["ent_rate"], rows[0]["dirichlet_rate"])
        if not all(_close(g, w, 1e-9, 1e-12) for g, w in zip(got, want)):
            return [f"(ent_rate, dirichlet_rate) = {got}, types give {want}"]
        return []

    return cli_op(lab, "extremal_table",
                  ["extremal", "--variant", variant, "--binary", "--n", n,
                   "--p", repr(p), "--q", repr(q), "--eps", repr(eps)] + extra,
                  check, probe=probe)


# ---------------------------------------------------------------------------
# graphs


def random_regular(nv, d, rng):
    """Adjacency of a simple d-regular graph, pairing model with rejection."""
    while True:
        stubs = np.repeat(np.arange(nv), d)
        rng.shuffle(stubs)
        u, v = stubs.reshape(-1, 2).T
        if np.any(u == v):
            continue
        A = np.zeros((nv, nv))
        A[u, v] = 1.0
        A[v, u] = 1.0
        if A.sum() == nv * d:            # no repeated pair
            return A


def petersen():
    A = np.zeros((10, 10))
    for i in range(5):
        for a, b in ((i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5)):
            A[a, b] = A[b, a] = 1.0
    return A


def hamming_ball(n, radius):
    w = np.array([bin(x).count("1") for x in range(2 ** n)])
    idx = np.flatnonzero(w <= radius)
    cube = R.power_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]), n)
    return cube[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# probes and workloads


# repeats per pass of each probe, 0.4-1 s of work each on a 2-core VM
PROBE_REPEATS = {"xi_q": 15, "xi_pq_n": 6, "support": 12, "faber_krahn": 8,
                 "q_radius": 40, "tail_table": 15, "curve_table": 40,
                 "extremal_table": 40}


def probes(lab):
    """One cheap fixed operation per kind."""
    S3 = lab.complete_chain(3)
    return [
        xi_q_op(lab, "K3", S3, 1.0, 0.3 * math.log(3.0), probe=True),
        xi_pq_n_op(lab, "binary", lab.semigroup.binary_semigroup(), 2.0, 2.0,
                   2, 0.3, probe=True),
        support_op(lab, 3, 1, 2, 2.0, probe=True),
        fk_op(lab, 2, 3, 4, 1.5, probe=True),
        q_radius_op(lab, "petersen", petersen(), 1.5, "regular", probe=True),
        tail_op(lab, 10, 1.5, [1.0], probe=True),
        curve_table_op(lab, 2.0, False, probe=True),
        extremal_op(lab, "dirac-mixture", 12, probe=True),
    ]


XI_Q_SLOTS = ([("binary", q) for q in (0.0, 0.8, 1.0, 1.5, 2.0, 3.0)]
              + [(g, q) for g in ("K3", "K4", "C4") for q in (0.0, 1.0, 2.0)])
XI_Q_LEVELS = (0.2, 0.5, 0.8)            # stratum centers, share of ln |X|
# (alphabet, p, q, n, shared-level key): p = 1, 2, 3 at q = 2 share levels
XI_PQ_N_SLOTS = (
    ("binary", 1.5, 1.5, 2, None),
    ("binary", 2.0, 2.0, 2, "q2"),
    ("binary", 3.0, 3.0, 2, None),
    ("binary", 1.0, 2.0, 2, "q2"),
    ("binary", 3.0, 2.0, 2, "q2"),
    ("binary", 0.5, 0.8, 2, None),
    ("binary", 2.0, 2.0, 3, None),
    ("K3", 2.0, 2.0, 2, None),
)
XI_PQ_N_LEVELS = (0.2, 0.4, 0.6)
LEVEL_WIDTH = 0.04


def curves(lab, rng):
    gs = lab.graph_spectral
    chains = {"binary": lab.semigroup.binary_semigroup(),
              "K3": lab.complete_chain(3),
              "K4": lab.complete_chain(4),
              "C4": gs.graph_generator(gs.cycle_graph(4))}
    ops, slots = [], []
    for name, q in XI_Q_SLOTS:
        S = chains[name]
        levels = _strata(rng, math.log(S.nstates), XI_Q_LEVELS, LEVEL_WIDTH)
        slot = [xi_q_op(lab, name, S, q, a) for a in levels]
        ops += slot
        slots.append(slot)
    shared = {}
    by_p = {}
    for name, p, q, n, key in XI_PQ_N_SLOTS:
        S = chains[name]
        if key is None or key not in shared:
            levels = _strata(rng, math.log(S.nstates), XI_PQ_N_LEVELS,
                             LEVEL_WIDTH)
            if key is not None:
                shared[key] = levels
        levels = shared.get(key, levels)
        slot = [xi_pq_n_op(lab, name, S, p, q, n, a) for a in levels]
        ops += slot
        slots.append(slot)
        if key is not None:
            by_p[p] = slot

    def cross(out):
        probs = []
        for slot in slots:               # nondecreasing in alpha
            vals = [out[op.label][0] for op in slot if op.label in out]
            for a, b in zip(vals, vals[1:]):
                if b < a - 1e-9 * max(1.0, abs(a)):
                    probs.append(f"{slot[0].label}: decreases in alpha")
        ps = sorted(by_p)                # nonincreasing in p
        for j in range(len(XI_PQ_N_LEVELS)):
            vals = [out.get(by_p[p][j].label) for p in ps]
            if None in vals:
                continue
            vals = [v[0] for v in vals]
            for a, b in zip(vals, vals[1:]):
                if b > a + 1e-9 * max(1.0, abs(a)):
                    probs.append(f"level {j}: xi_pq_n increases in p {vals}")
        return probs

    return ops, cross


# criterion-6 support battery, trimmed to about 9 s: (b, n, m, q). K4^2 at
# m = 2 is the 16-vertex search, where enumerating the 2^16 supports
# dominates. Left out: K2^3 and K2^4 (1.3-16 s each) and K3^2 beyond m = 2
# (1.5-22 s each).
SUPPORT = (
    [(2, 2, 2, 2.0), (2, 2, 3, 2.0), (3, 1, 2, 2.0), (3, 2, 2, 2.0),
     (4, 1, 2, 2.0), (4, 1, 3, 2.0), (4, 2, 2, 2.0)]
    + [(2, 2, 2, 1.5), (2, 2, 3, 1.5), (3, 1, 2, 1.5), (3, 2, 2, 1.5),
       (4, 1, 2, 1.5), (4, 1, 3, 1.5)])
# criterion-6 instances (base, power, supports) at q = 2
BATTERY = ((2, 1, (2,)), (2, 2, (2, 3, 4)), (2, 3, (2, 3, 4, 5, 6, 7, 8)),
           (2, 4, (2, 4, 6, 8, 16)), (3, 1, (2, 3)),
           (3, 2, (2, 3, 4, 5, 6, 7, 8, 9)), (4, 1, (2, 3, 4)),
           (4, 2, (2, 4, 8, 16)))
FK_Q15 = ((2, 2, (2, 3, 4)), (2, 3, (2, 3, 4, 5, 6, 7, 8)), (3, 1, (2, 3)),
          (3, 2, (2,)), (4, 1, (2, 3, 4)))
# (vertices, degree), each shape drawn four times: the fixed-point solves
# cost 10-70 ms depending on the graph drawn, and 32 graphs keep q_radius_ms
# from following the one or two slowest of a seed
REGULAR = ((8, 3), (10, 3), (10, 4), (12, 3), (12, 4), (14, 3), (16, 3),
           (16, 4)) * 4
RADIUS_QS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, math.inf)
BALL_RADII = (2, 3, 4, 5)


def subgraphs(lab, rng):
    ops = [support_op(lab, *key) for key in SUPPORT]
    fk = {}
    for q, battery in ((2.0, BATTERY), (1.5, FK_Q15)):
        for b, n, ms in battery:
            for m in ms:
                fk[(b, n, m, q)] = fk_op(lab, b, n, m, q)
    ops += fk.values()
    graphs = []
    for j, (nv, d) in enumerate(REGULAR):
        A = random_regular(nv, d, rng)
        row = [q_radius_op(lab, f"regular{j} ({nv}, {d})", A, q, "regular")
               for q in RADIUS_QS]
        graphs.append(row)
        ops += row
    ops += [q_radius_op(lab, f"ball Q10 r={r}", hamming_ball(10, r), 2.0,
                        "ball") for r in BALL_RADII]

    def cross(out):
        probs = []
        for op, key in zip(ops, SUPPORT):       # dual-route identity
            b, n, m, q = key
            if op.label in out and fk[key].label in out:
                lam = out[fk[key].label].value
                via = n * ((b - 1) - (q - 1.0) * out[op.label][0])
                if abs(lam - via) > 1e-6:
                    probs.append(f"{op.label}: identity {lam!r} vs {via!r}")
        for row in graphs:
            vals = [out.get(op.label) for op in row]
            if None in vals:
                continue
            r = dict(zip(RADIUS_QS, vals))
            for a, b in ((1.25, 5.0), (1.5, 3.0)):    # conjugates
                if abs(r[a] - r[b]) > 1e-6:
                    probs.append(f"{row[0].label}: rho_{a} != rho_{b}")
            down = [r[q] for q in (1.0, 1.25, 1.5, 2.0)]
            up = [r[q] for q in (2.0, 3.0, 5.0, math.inf)]
            if any(y > x + 1e-6 for x, y in zip(down, down[1:])) or \
                    any(y < x - 1e-6 for x, y in zip(up, up[1:])):
                probs.append(f"{row[0].label}: rho_q not monotone")
        return probs

    return ops, cross


TAIL = tuple(itertools.product((5, 10, 20), (0.0, 0.5)))
# the curve and extremal tables take 5-110 ms: repeated, so that each kind
# runs about a second per pass, as the tail tables do many times over
CURVE_TABLE_REPEATS = 10
EXTREMAL_REPEATS = 5


def tables(lab, rng):
    ops = []
    for n, p in TAIL:
        # a moderate level everywhere, and a large one at p = 0; each row
        # costs ~1.5 s, and ~2.5 s more traced (it counts ~2.7 million hfun
        # calls), so more rows would stretch a traced run past a minute
        levels = [0.8 + 0.4 * rng.random()]
        if p == 0:
            levels.append(n * (0.28 + 0.04 * rng.random()))
        ops += [tail_op(lab, n, p, [r]) for r in levels]
    ops.append(zero_deviation_op(lab))
    for q in (0.0, 0.8, 1.0, 2.0, 3.0):
        for conv in (False, True):
            ops += [curve_table_op(lab, q, conv)] * CURVE_TABLE_REPEATS
    for variant in ("dirac-mixture", "conditional-typical"):
        for n in (8, 12, 16):
            ops += [extremal_op(lab, variant, n)] * EXTREMAL_REPEATS
    return ops, lambda out: []


BUILDERS = {"curves": curves, "subgraphs": subgraphs, "tables": tables}


def interleave(ops):
    """Spread each kind evenly over the pass: the j-th of a kind's k
    operations goes to position (j + 1/2) / k, ties kept in list order."""
    total = {}
    for op in ops:
        total[op.kind] = total.get(op.kind, 0) + 1
    seen = {}
    keys = []
    for op in ops:
        j = seen[op.kind] = seen.get(op.kind, -1) + 1
        keys.append((j + 0.5) / total[op.kind])
    order = sorted(range(len(ops)), key=lambda i: keys[i])
    return [ops[i] for i in order]


def build(name, lab, seed):
    """The workload's operation list for one seed."""
    rng = np.random.default_rng(seed)
    ops, cross = BUILDERS[name](lab, rng)
    warmups = probes(lab)
    own = {op.kind for op in ops}
    extra = [op for op in warmups if op.kind not in own
             for _ in range(PROBE_REPEATS[op.kind])]
    return Workload(interleave(ops + extra), cross, warmups)
