"""Command-line front end wiring the library together.

Subcommands: xi (curve sweeps and single values), qradius (matrix q-radius),
faber-krahn (small-support extremal subgraphs and the curve bound),
concentration (tail-bound tables), extremal (near-extremal density reports),
verify (invariant suite with a pass/fail table).

Output is machine readable: CSV with one header row (preceded by a single
'#' metadata comment) or JSON with sorted keys. The same config and seed
produce byte-identical output at a fixed BLAS thread count. Exit codes:
0 success, 1 validation error, 2 numerical failure, 3 verification failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from .concentration import (GAUSSIAN_FAMILY, InversionError,
                            QuadratureError, beta_binary,
                            concentration_bound, gaussian_bound,
                            gaussian_q_star, hypercube_bound, xi_inverse)
from .graph_spectral import (ConvergenceError, Graph, SubgraphView,
                             complete_graph, cycle_graph, faber_krahn_bound,
                             faber_krahn_exact, graph_generator,
                             hypercube_graph, load_graph, q_radius,
                             subgraph_q_radius)
from .semigroup import (apply_generator, as_function, binary_semigroup,
                        derivative_check, dirichlet_form, heat_operator,
                        load_generator, pi_product, validate_semigroup)
from .sobolev import (ExtremalSpec, SampledCurve, alpha_grid, binary_xi_q,
                      conv_envelope, extremal_report, lsi_constant,
                      sample_binary_curve, sample_xi_curve, xi_pq_n, xi_q)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def emit(cfg, columns, rows):
    """Render rows to CSV or JSON, to --out or stdout."""
    meta = {"seed": cfg.seed, "subcommand": cfg.subcommand}
    if cfg.fmt == "json":
        payload = {
            "meta": meta,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# graph and semigroup construction


def graph_from_tokens(tokens, n: int) -> Graph:
    """Build a graph from --graph tokens.

    'complete K' / 'cycle K' take a size token, 'hypercube' takes its
    dimension from --n, and a single other token is read as a file path.
    """
    kind = tokens[0]
    if kind in ("complete", "cycle"):
        if len(tokens) != 2:
            raise ValueError(f"'{kind}' expects one size token")
        k = int(tokens[1])
        return complete_graph(k) if kind == "complete" else cycle_graph(k)
    if kind == "hypercube":
        if len(tokens) != 1:
            raise ValueError("'hypercube' takes its dimension from --n")
        return hypercube_graph(n)
    if len(tokens) == 1:
        return load_graph(tokens[0])
    raise ValueError(f"unrecognized graph spec {' '.join(tokens)!r}")


def semigroup_from_args(cfg):
    # the parser makes exactly one of --binary and --generator present
    if cfg.binary:
        return binary_semigroup()
    return validate_semigroup(load_generator(cfg.generator))


# ---------------------------------------------------------------------------
# subcommands


XI_COLUMNS = ("alpha", "value", "kind", "q", "p", "n")


def cmd_xi(cfg) -> int:
    if cfg.q < 0 or np.isinf(cfg.q):
        raise ValueError("xi requires a finite order --q >= 0")
    if cfg.conv and (cfg.p is not None or cfg.alpha is not None):
        raise ValueError("--conv takes the envelope of a single-letter "
                         "curve; it does not combine with --p or --alpha")
    S = semigroup_from_args(cfg)
    kind, p, n = "xi_q", None, None
    if cfg.p is not None:
        kind, p, n = "xi_pq_n", cfg.p, cfg.n
        value = lambda a: xi_pq_n(S, p, cfg.q, n, a)
    elif cfg.binary:
        value = lambda a: binary_xi_q(cfg.q, a)     # exact closed form
    else:
        value = lambda a: xi_q(S, cfg.q, a)
    grid = ([cfg.alpha] if cfg.alpha is not None
            else alpha_grid(S.stationary, cfg.grid))
    vals = [value(a) for a in grid]
    if cfg.conv:
        env = conv_envelope(SampledCurve(grid, vals, "xi_q", cfg.q))
        vals, kind = env.values, env.kind
    emit(cfg, XI_COLUMNS,
         [(a, v, kind, cfg.q, p, n) for a, v in zip(grid, vals)])
    return EXIT_OK


def cmd_qradius(cfg) -> int:
    G = graph_from_tokens(cfg.graph, cfg.n)
    label = " ".join(str(t) for t in cfg.graph)
    if cfg.subset:
        view = SubgraphView(G, cfg.subset)
        val = subgraph_q_radius(view, cfg.q)
        label += " subset=" + "+".join(str(i) for i in cfg.subset)
    else:
        val = q_radius(G.adjacency, cfg.q)
    emit(cfg, ("graph", "q", "value"), [(label, cfg.q, val)])
    return EXIT_OK


def cmd_faber_krahn(cfg) -> int:
    # 'hypercube' here means the n-fold power of an edge, so the search
    # space is the Hamming cube of dimension --n over the 2-letter base
    if cfg.graph[0] == "hypercube":
        base = complete_graph(2)
    else:
        base = graph_from_tokens(cfg.graph, cfg.n)
    res = faber_krahn_exact(base, cfg.n, cfg.q, cfg.m)
    witness = " ".join(str(i) for i in res.witness)
    columns = ["n", "q", "m", "value", "witness"]
    row = [cfg.n, cfg.q, cfg.m, res.value, witness]
    if cfg.bound:
        S = graph_generator(base)
        curve = conv_envelope(sample_xi_curve(S, cfg.q, cfg.grid))
        ub = faber_krahn_bound(base.degree, cfg.q, curve, cfg.n, cfg.m)
        columns.append("bound")
        row.append(ub)
    emit(cfg, tuple(columns), [tuple(row)])
    return EXIT_OK


CONC_COLUMNS = ("family", "n", "p", "r", "q_star", "log_bound", "bound",
                "baseline", "quad_error", "saturated")


def cmd_concentration(cfg) -> int:
    rows = []
    for r in cfg.r:
        if cfg.family == "gaussian":
            qs = gaussian_q_star(cfg.p, r)
            b = gaussian_bound(cfg.p, r)
            logb = -math.inf if b == 0.0 else math.log(b)
            rows.append(("gaussian", None, cfg.p, r, qs, logb, b, b, 0.0,
                         False))
        else:
            rep = hypercube_bound(cfg.n, cfg.p, r, grid_size=cfg.grid)
            rows.append(("binary", rep.n, rep.p, rep.r, rep.q_star,
                         rep.log_bound, rep.bound, rep.baseline,
                         rep.quad_error, rep.saturated))
    emit(cfg, CONC_COLUMNS, rows)
    return EXIT_OK


def cmd_extremal(cfg) -> int:
    S = semigroup_from_args(cfg)
    Q = np.asarray(cfg.Q, dtype=float) if cfg.Q else None
    R = np.asarray(cfg.R, dtype=float) if cfg.R else None
    spec = ExtremalSpec(cfg.variant, cfg.n, eps=cfg.eps, Q=Q, R=R,
                        lam=cfg.lam, beta=cfg.beta, z=cfg.z)
    rep = extremal_report(spec, S, cfg.p, cfg.q)
    emit(cfg, ("variant", "n", "p", "q", "eps", "lam", "beta",
               "ent_rate", "dirichlet_rate"),
         [(cfg.variant, rep.n, rep.p, rep.q, cfg.eps, cfg.lam, cfg.beta,
           rep.ent_rate, rep.dirichlet_rate)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite


def _verify_checks(seed):
    """Named fast invariant checks; each returns True on pass."""
    rng = np.random.default_rng(seed)
    S2 = binary_semigroup()

    def closed_form_spots():
        for q, a in ((1.0, 0.2), (2.0, 0.3), (2.0, 0.55)):
            if abs(xi_q(S2, q, a) - binary_xi_q(q, a)) > 1e-6:
                return False
        return True

    def lsi_binary():
        c = lsi_constant(sample_binary_curve(2.0, 64), 2.0)
        return abs(c - 2.0) <= 0.04

    def conv_minorant():
        curve = sample_binary_curve(3.0, 64)
        env = conv_envelope(curve)
        return bool(np.all(env.values <= curve.values + 1e-12))

    def qradius_regular_flat():
        A = hypercube_graph(3).adjacency
        return all(abs(q_radius(A, q) - 3.0) <= 1e-9
                   for q in (1.0, 1.7, 2.0, math.inf))

    def qradius_conjugate():
        A = np.zeros((4, 4))
        A[0, 1:] = A[1:, 0] = 1.0        # star on 4 vertices
        return abs(q_radius(A, 3.0) - q_radius(A, 1.5)) <= 1e-8

    def faber_krahn_anchors():
        K2 = complete_graph(2)
        r1 = faber_krahn_exact(K2, 2, 2.0, 2)
        r2 = faber_krahn_exact(K2, 3, 2.0, 4)
        return (abs(r1.value - 1.0) <= 1e-9 and abs(r2.value - 2.0) <= 1e-9
                and r2.witness == (0, 1, 2, 3))

    def faber_krahn_curve_dominates():
        S = graph_generator(complete_graph(2))
        curve = conv_envelope(sample_xi_curve(S, 2.0, 48))
        exact = faber_krahn_exact(complete_graph(2), 2, 2.0, 3).value
        return faber_krahn_bound(1, 2.0, curve, 2, 3) >= exact - 1e-8

    def support_curve_identity():
        # small-support value against the curve route at the matched level
        S = graph_generator(complete_graph(2))
        n, q, m = 2, 2.0, 2
        lam = faber_krahn_exact(complete_graph(2), n, q, m).value
        a = math.log(2.0) - math.log(m) / n
        via_curve = n * (1.0 - (q - 1.0) * xi_pq_n(S, 0.0, q, n, a))
        return abs(lam - via_curve) <= 1e-8

    def gaussian_closed_form():
        p, r = 1.0, 2.0
        qs = gaussian_q_star(p, r)
        direct = concentration_bound(1, p, qs, r, GAUSSIAN_FAMILY,
                                     lambda s: 1.0)
        return abs(direct - gaussian_bound(p, r)) <= 1e-10

    def cube_beats_baseline():
        rep = hypercube_bound(10, 0.0, 2.0)
        return rep.bound <= rep.baseline - 1e-6

    def domination_grid():
        for s in np.linspace(0.1, 2.0, 8):
            for t in np.linspace(0.0, 0.5, 6):
                if xi_inverse(s, t) > 0.5 * s * s * t + 1e-12:
                    return False
        return all(beta_binary(s) <= 2.0 + 1e-12
                   for s in np.linspace(0.0, 2.0, 41))

    def dirichlet_identity():
        # E(f, g) computed through the carre du champ must match -<Lf, g>
        A = np.array([[0.0, 0.7, 0.3],
                      [0.7, 0.0, 0.5],
                      [0.3, 0.5, 0.0]])
        S = validate_semigroup(A - np.diag(A.sum(axis=1)))
        f = as_function(rng.uniform(0.1, 1.0, 9), 3)
        g = as_function(rng.uniform(0.1, 1.0, 9), 3)
        via_gamma = dirichlet_form(S, f, g)
        pin = pi_product(S, 2)
        direct = -float(pin @ (apply_generator(S, f) * g.values))
        return abs(via_gamma - direct) <= 1e-10

    def heat_semigroup_law():
        T1 = heat_operator(S2, 0.3)
        T2 = heat_operator(S2, 0.7)
        T3 = heat_operator(S2, 1.0)
        return bool(np.allclose(T1 @ T2, T3, atol=1e-12)
                    and np.allclose(T3.sum(axis=1), 1.0, atol=1e-10))

    def derivative_identity():
        f = as_function(np.array([0.4, 1.3, 0.8, 1.9]), 2)
        fd, an = derivative_check(S2, f, 2.0)
        return abs(fd - an) <= 1e-6

    return [
        ("binary-closed-form-spots", closed_form_spots),
        ("lsi-binary-constant", lsi_binary),
        ("convex-envelope-minorant", conv_minorant),
        ("qradius-regular-flat", qradius_regular_flat),
        ("qradius-conjugate-symmetry", qradius_conjugate),
        ("faber-krahn-anchors", faber_krahn_anchors),
        ("faber-krahn-curve-dominates", faber_krahn_curve_dominates),
        ("support-curve-identity", support_curve_identity),
        ("gaussian-closed-form", gaussian_closed_form),
        ("cube-beats-baseline", cube_beats_baseline),
        ("domination-grid", domination_grid),
        ("dirichlet-identity", dirichlet_identity),
        ("heat-semigroup-law", heat_semigroup_law),
        ("derivative-identity", derivative_identity),
    ]


def cmd_verify(cfg) -> int:
    checks = _verify_checks(cfg.seed)
    passed = 0
    for name, fn in checks:
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            print(f"{name}: FAIL ({exc})")
            continue
        passed += ok
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(f"{passed}/{len(checks)} checks passed")
    return EXIT_OK if passed == len(checks) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(lo):
    """argparse type: an integer >= lo, else a usage error (exit 1)."""
    def parse(text):
        v = int(text)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {v}")
        return v
    parse.__name__ = "int"      # argparse's "invalid int value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rslab",
        description="Sobolev-type curves, q-radii, small-support extremal "
                    "subgraphs, and concentration bounds on product chains.")
    count, grid_size = _int_at_least(1), _int_at_least(2)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", dest="fmt", default="csv",
                       choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("xi", help="curve sweeps and single curve values")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--binary", action="store_true",
                     help="two-point chain, exact closed form")
    src.add_argument("--generator", help="generator matrix file")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--p", type=float, help="two-parameter curve order")
    p.add_argument("--n", type=count, default=1, help="product length")
    p.add_argument("--alpha", type=float, help="single value at this level")
    p.add_argument("--grid", type=grid_size, default=64)
    p.add_argument("--conv", action="store_true",
                   help="emit the convex envelope")
    common(p)

    p = sub.add_parser("qradius", help="q-radius of a graph or matrix")
    p.add_argument("--graph", nargs="+", required=True,
                   help="'complete K', 'cycle K', 'hypercube' (with --n), "
                        "or a file path")
    p.add_argument("--q", type=float, required=True,
                   help="order in [1, inf]; 'inf' accepted")
    p.add_argument("--n", type=count, default=1, help="hypercube dimension")
    p.add_argument("--subset", nargs="+", type=int,
                   help="restrict to the induced subgraph on these vertices")
    common(p)

    p = sub.add_parser("faber-krahn",
                       help="extremal small-support subgraph of a power")
    p.add_argument("--graph", nargs="+", required=True,
                   help="base graph; 'hypercube' means an edge to the power n")
    p.add_argument("--n", type=count, default=1, help="power / dimension")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--m", type=count, required=True, help="support size")
    p.add_argument("--bound", action="store_true",
                   help="also report the curve upper bound")
    p.add_argument("--grid", type=grid_size, default=64,
                   help="curve grid size for --bound")
    common(p)

    p = sub.add_parser("concentration", help="tail-bound tables")
    p.add_argument("--family", required=True, choices=("gaussian", "binary"))
    p.add_argument("--p", type=float, required=True,
                   help="starting order (0 for the measure itself)")
    p.add_argument("--r", type=float, nargs="+", required=True,
                   help="one or more deviation levels")
    p.add_argument("--n", type=count, default=1,
                   help="cube dimension (binary family)")
    p.add_argument("--grid", type=grid_size, default=64,
                   help="order grid for the binary optimization")
    common(p)

    p = sub.add_parser("extremal", help="near-extremal density reports")
    p.add_argument("--variant", required=True,
                   choices=("conditional-typical", "product", "dirac-mixture"))
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--binary", action="store_true")
    src.add_argument("--generator", help="generator matrix file")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--beta", type=float)
    p.add_argument("--z", type=int)
    p.add_argument("--Q", type=float, nargs="+",
                   help="first-block weights (normalized internally)")
    p.add_argument("--R", type=float, nargs="+",
                   help="second-block weights")
    common(p)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)

    return top


DISPATCH = {
    "xi": cmd_xi,
    "qradius": cmd_qradius,
    "faber-krahn": cmd_faber_krahn,
    "concentration": cmd_concentration,
    "extremal": cmd_extremal,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; remap the former
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return DISPATCH[args.subcommand](args)
    except (QuadratureError, InversionError, ConvergenceError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
