import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rslab import cli, concentration, graph_spectral
from rslab.concentration import QuadratureError
from rslab.semigroup import binary_semigroup
from rslab.sobolev import binary_xi_q, xi_pq_n, xi_q

DATA = Path(__file__).parent / "data"
SRC = Path(cli.__file__).resolve().parents[1]


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    return rc, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestXi:
    def test_binary_curve_starts_at_zero(self):
        rc, out, _ = run_cli(["xi", "--binary", "--q", "2", "--grid", "64"])
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 64
        assert float(rows[0]["alpha"]) == 0.0
        assert float(rows[0]["value"]) == 0.0

    def test_binary_low_order_curve_monotone(self):
        rc, out, _ = run_cli(["xi", "--binary", "--q", "0.8", "--grid", "64"])
        assert rc == 0
        vals = [float(r["value"]) for r in parse_csv(out)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_binary_curve_matches_closed_form(self):
        rc, out, _ = run_cli(["xi", "--binary", "--q", "3", "--grid", "16"])
        rows = parse_csv(out)
        for r in rows:
            a = float(r["alpha"])
            assert float(r["value"]) == pytest.approx(binary_xi_q(3.0, a),
                                                      abs=1e-10)

    def test_generator_single_value_round_trip(self, tmp_path):
        path = tmp_path / "gen.mat"
        np.savetxt(path, np.array([[-0.5, 0.5], [0.5, -0.5]]))
        rc, out, _ = run_cli(["xi", "--generator", str(path), "--q", "2",
                              "--alpha", "0.2"])
        assert rc == 0
        row = parse_csv(out)[0]
        expect = xi_q(binary_semigroup(), 2.0, 0.2)
        assert float(row["value"]) == pytest.approx(expect, abs=1e-9)
        assert row["kind"] == "xi_q"

    def test_binary_single_value_is_closed_form(self):
        rc, out, _ = run_cli(["xi", "--binary", "--q", "2", "--alpha", "0.3"])
        assert rc == 0
        row = parse_csv(out)[0]
        assert float(row["value"]) == pytest.approx(binary_xi_q(2.0, 0.3),
                                                    rel=1e-11)
        assert (row["kind"], row["p"], row["n"]) == ("xi_q", "", "")

    def test_generator_curve_matches_closed_form(self, tmp_path):
        path = tmp_path / "gen.mat"
        np.savetxt(path, np.array([[-0.5, 0.5], [0.5, -0.5]]))
        rc, out, _ = run_cli(["xi", "--generator", str(path), "--q", "2",
                              "--grid", "8"])
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 8 and rows[0]["kind"] == "xi_q"
        for r in rows:
            assert float(r["value"]) == pytest.approx(
                binary_xi_q(2.0, float(r["alpha"])), abs=1e-9)

    def test_conv_envelope_is_convex(self):
        rc, out, _ = run_cli(["xi", "--binary", "--q", "3", "--grid", "32",
                              "--conv"])
        assert rc == 0
        rows = parse_csv(out)
        assert rows[0]["kind"] == "conv_xi_q"
        vals = np.array([float(r["value"]) for r in rows])
        assert np.min(np.diff(vals, 2)) >= -1e-9

    def test_two_parameter_single_value(self):
        rc, out, _ = run_cli(["xi", "--binary", "--q", "2", "--p", "2",
                              "--n", "1", "--alpha", "0.3"])
        assert rc == 0
        row = parse_csv(out)[0]
        expect = xi_pq_n(binary_semigroup(), 2.0, 2.0, 1, 0.3)
        assert float(row["value"]) == pytest.approx(expect, abs=1e-9)
        assert row["kind"] == "xi_pq_n"
        assert row["n"] == "1"

    def test_json_schema(self):
        rc, out, _ = run_cli(["xi", "--binary", "--q", "2", "--grid", "4",
                              "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["meta"]["subcommand"] == "xi"
        assert payload["meta"]["seed"] == 0
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["value"] == 0.0

    def test_support_route_on_sixteen_states(self):
        # the p = 0 route on K2^4 at supports of 1 to 13 of its 16 states
        rc, out, _ = run_cli(["xi", "--binary", "--p", "0", "--q", "2",
                              "--n", "4", "--grid", "16"])
        assert rc == 0
        vals = [float(r["value"]) for r in parse_csv(out)]
        assert len(vals) == 16
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_infinite_order_values(self):
        # the values the SLSQP polish gave, which the Newton polish keeps
        rc, out, _ = run_cli(["xi", "--binary", "--q", "2", "--p", "inf",
                              "--n", "2", "--grid", "4"])
        assert rc == 0
        vals = [float(r["value"]) for r in parse_csv(out)]
        assert vals[0] == 0.0
        assert vals[1:] == pytest.approx(
            [0.0076933908186, 0.0407205201353, 0.129018886016], rel=1e-9)


class TestQRadius:
    def test_complete_four(self):
        rc, out, _ = run_cli(["qradius", "--graph", "complete", "4",
                              "--q", "2"])
        assert rc == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(3.0,
                                                                  abs=1e-9)

    def test_hypercube_dimension_flag(self):
        rc, out, _ = run_cli(["qradius", "--graph", "hypercube", "--n", "3",
                              "--q", "inf"])
        assert rc == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(3.0)

    def test_cycle(self):
        rc, out, _ = run_cli(["qradius", "--graph", "cycle", "5", "--q", "1"])
        assert rc == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(2.0)

    def test_subset_restriction(self):
        # the two-edge path inside C5 has spectral radius sqrt(2)
        rc, out, _ = run_cli(["qradius", "--graph", "cycle", "5", "--q", "2",
                              "--subset", "0", "1", "2"])
        assert rc == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(
            math.sqrt(2.0), abs=1e-8)

    def test_subset_spectral_radius_to_twelve_digits(self):
        rc, out, _ = run_cli(["qradius", "--graph", "cycle", "5", "--q", "2",
                              "--subset", "0", "1", "2", "--format", "json"])
        assert rc == 0
        val = json.loads(out)["rows"][0]["value"]
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_graph_file(self, tmp_path):
        path = tmp_path / "tri.g"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        rc, out, _ = run_cli(["qradius", "--graph", str(path), "--q", "2"])
        assert rc == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(2.0)


class TestFaberKrahn:
    def test_hypercube_subcube(self):
        rc, out, _ = run_cli(["faber-krahn", "--graph", "hypercube",
                              "--n", "3", "--q", "2", "--m", "4"])
        assert rc == 0
        row = parse_csv(out)[0]
        assert float(row["value"]) == pytest.approx(2.0, abs=1e-9)
        assert row["witness"] == "0 1 2 3"

    def test_complete_graph_base(self):
        # a base graph other than the edge, read by graph_from_tokens
        rc, out, _ = run_cli(["faber-krahn", "--graph", "complete", "3",
                              "--n", "2", "--q", "2", "--m", "4"])
        assert rc == 0
        row = parse_csv(out)[0]
        want = graph_spectral.faber_krahn_exact(
            graph_spectral.complete_graph(3), 2, 2.0, 4)
        assert row["value"] == format(want.value, ".12g") == "2.17008648663"
        assert row["witness"] == " ".join(map(str, want.witness)) == "0 1 2 3"

    def test_bound_dominates_value(self):
        rc, out, _ = run_cli(["faber-krahn", "--graph", "hypercube",
                              "--n", "2", "--q", "2", "--m", "3",
                              "--bound", "--grid", "48"])
        assert rc == 0
        row = parse_csv(out)[0]
        assert float(row["bound"]) >= float(row["value"]) - 1e-8


class TestConcentration:
    def test_gaussian_example(self):
        rc, out, _ = run_cli(["concentration", "--family", "gaussian",
                              "--p", "0", "--r", "1.5"])
        assert rc == 0
        row = parse_csv(out)[0]
        assert float(row["bound"]) == pytest.approx(math.exp(-1.125),
                                                    abs=1e-10)
        assert float(row["q_star"]) == pytest.approx(1.5)

    def test_gaussian_multiple_levels(self):
        rc, out, _ = run_cli(["concentration", "--family", "gaussian",
                              "--p", "1", "--r", "0.25", "2"])
        rows = parse_csv(out)
        assert len(rows) == 2
        # small r sits on the flat branch, large r on the quadratic one
        assert float(rows[0]["bound"]) == pytest.approx(math.exp(-0.25))
        assert float(rows[1]["bound"]) == pytest.approx(math.exp(-3.125))

    def test_binary_beats_baseline(self):
        rc, out, _ = run_cli(["concentration", "--family", "binary",
                              "--n", "10", "--p", "0", "--r", "2"])
        assert rc == 0
        row = parse_csv(out)[0]
        assert float(row["bound"]) <= float(row["baseline"]) - 1e-6
        assert float(row["quad_error"]) <= 1e-8

    def test_binary_zero_deviation(self):
        rc, out, _ = run_cli(["concentration", "--family", "binary",
                              "--n", "10", "--p", "0", "--r", "0"])
        assert rc == 0
        assert abs(float(parse_csv(out)[0]["log_bound"])) <= 1e-9


class TestExtremal:
    def test_dirac_mixture_report(self):
        rc, out, _ = run_cli(["extremal", "--variant", "dirac-mixture",
                              "--binary", "--n", "6", "--p", "3", "--q", "2",
                              "--eps", "0.2", "--beta", "0.3"])
        assert rc == 0
        row = parse_csv(out)[0]
        assert float(row["ent_rate"]) > 0.0
        assert float(row["dirichlet_rate"]) >= 0.0

    def test_missing_beta_rejected(self):
        rc, _, err = run_cli(["extremal", "--variant", "dirac-mixture",
                              "--binary", "--n", "6", "--p", "3", "--q", "2"])
        assert rc == 1
        assert "beta" in err


def run_subprocess(args, threads=None):
    """stdout of `python args` in a fresh interpreter that imports rslab
    from this tree, with the BLAS thread count set when given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    if threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = str(threads)
    done = subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, timeout=300, check=True)
    return done.stdout


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["concentration", "--family", "binary", "--n", "6",
                "--p", "0.5", "--r", "1", "--grid", "16"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["xi", "--binary", "--q", "1.5", "--grid", "16",
                "--format", "json"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the README's reproduction: a random 3-state chain at n = 2, p < q,
        # whose values once moved in the last digit with the thread count
        A = np.triu(np.random.default_rng(2026).uniform(0.05, 2, (3, 3)), 1)
        A = A + A.T
        path = tmp_path / "chain.mat"
        np.savetxt(path, A - np.diag(A.sum(axis=1)))
        args = ["-m", "rslab.cli", "xi", "--generator", str(path),
                "--q", "1.5", "--p", "0.5", "--n", "2", "--grid", "8",
                "--format", "json"]
        one = run_subprocess(args, threads=1)
        assert len(json.loads(one)["rows"]) == 8
        assert run_subprocess(args, threads=2) == one


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        loaded = run_subprocess(
            ["-c", "import sys, rslab.cli; print(sorted(m for m in "
                   "sys.modules if m.split('.')[0] == 'scipy'))"])
        assert loaded.decode().strip() == "[]"


# stored outputs of commands whose bytes do not depend on the machine: the
# closed-form curve tables use scalar Python math, and the extremal CSV
# prints 12 significant digits
GOLDEN = [
    ("xi_binary_q2_grid64", ["xi", "--binary", "--q", "2", "--grid", "64"]),
    ("xi_binary_q0.8_grid64",
     ["xi", "--binary", "--q", "0.8", "--grid", "64"]),
    ("xi_binary_q3_grid64_conv",
     ["xi", "--binary", "--q", "3", "--grid", "64", "--conv"]),
]
GOLDEN_CASES = [(f"{name}.{fmt}", args + ["--format", fmt])
                for name, args in GOLDEN for fmt in ("csv", "json")]
GOLDEN_CASES.append(("extremal_dirac_mixture_n12.csv",
                     ["extremal", "--variant", "dirac-mixture", "--binary",
                      "--n", "12", "--p", "3", "--q", "2", "--eps", "0.2",
                      "--beta", "0.3"]))
# the largest dense extremal table the CLI builds: 2^16 strings
GOLDEN_CASES.append(("extremal_conditional_typical_n16.csv",
                     ["extremal", "--variant", "conditional-typical",
                      "--binary", "--n", "16", "--p", "1", "--q", "2",
                      "--eps", "0.2", "--Q", "0.62", "0.38"]))
# support route (p = 0): CSV only, since its full-precision JSON moves in
# the last bit with the optimizer's path
GOLDEN_CASES += [(f"xi_binary_q{q}_p0_n2_grid16.csv",
                  ["xi", "--binary", "--q", q, "--p", "0", "--n", "2",
                   "--grid", "16"]) for q in ("2", "1.5")]
# the README's qradius, faber-krahn, concentration and n-letter xi
# commands, CSV at 12 significant digits
GOLDEN_CASES += [
    ("qradius_complete4_q2.csv",
     ["qradius", "--graph", "complete", "4", "--q", "2"]),
    ("qradius_hypercube_n3_qinf.csv",
     ["qradius", "--graph", "hypercube", "--n", "3", "--q", "inf"]),
    ("qradius_cycle5_q2_subset012.csv",
     ["qradius", "--graph", "cycle", "5", "--q", "2",
      "--subset", "0", "1", "2"]),
    ("faber_krahn_hypercube_n3_q2_m4.csv",
     ["faber-krahn", "--graph", "hypercube", "--n", "3", "--q", "2",
      "--m", "4"]),
    ("faber_krahn_hypercube_n3_q2_m4_bound.csv",
     ["faber-krahn", "--graph", "hypercube", "--n", "3", "--q", "2",
      "--m", "4", "--bound"]),
    ("xi_binary_q2_p2_n2_alpha0.3.csv",
     ["xi", "--binary", "--q", "2", "--p", "2", "--n", "2",
      "--alpha", "0.3"]),
    ("concentration_gaussian_p0_r1.5.csv",
     ["concentration", "--family", "gaussian", "--p", "0", "--r", "1.5"]),
    ("concentration_binary_n10_p0_r1_2_4.csv",
     ["concentration", "--family", "binary", "--n", "10", "--p", "0",
      "--r", "1", "2", "4"]),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("name,args", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_bytes_match_stored(self, name, args, tmp_path):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()


XI = ["xi", "--binary", "--q", "2"]
FK = ["faber-krahn", "--graph", "hypercube", "--n", "2", "--q", "2"]
DIRAC = ["extremal", "--variant", "dirac-mixture", "--binary", "--p", "3",
         "--q", "2", "--beta", "0.3"]
# each argv is complete but for the one bad value, so that value is what
# gets refused; --binary with --generator is test_binary_and_generator_conflict
VALIDATION_CASES = [
    ("xi-n0", XI + ["--p", "2", "--n", "0", "--alpha", "0.3"]),
    ("xi-grid1", XI + ["--grid", "1"]),
    ("qradius-n0", ["qradius", "--graph", "hypercube", "--n", "0",
                    "--q", "2"]),
    ("faber-krahn-m0", FK + ["--m", "0"]),
    ("faber-krahn-bound-grid1", FK + ["--m", "2", "--bound", "--grid", "1"]),
    ("concentration-gaussian-n0", ["concentration", "--family", "gaussian",
                                   "--p", "0", "--r", "1", "--n", "0"]),
    ("concentration-binary-grid1", ["concentration", "--family", "binary",
                                    "--p", "0", "--r", "1", "--n", "4",
                                    "--grid", "1"]),
    ("extremal-eps0", DIRAC + ["--n", "6", "--eps", "0"]),
    ("extremal-lam2", DIRAC + ["--n", "6", "--lam", "2"]),
    ("extremal-n0", DIRAC + ["--n", "0"]),
    ("xi-q-inf", ["xi", "--binary", "--q", "inf"]),
    ("qradius-cycle-no-size", ["qradius", "--graph", "cycle", "--q", "2"]),
    # --conv takes the envelope of a single-letter curve only
    ("xi-conv-p", XI + ["--p", "2", "--n", "2", "--grid", "4", "--conv"]),
    ("xi-conv-alpha", XI + ["--alpha", "0.3", "--conv"]),
    ("verify-out", ["verify", "--out", "v.txt"]),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", [c[1] for c in VALIDATION_CASES],
                             ids=[c[0] for c in VALIDATION_CASES])
    def test_validation_error_exits_one(self, argv):
        rc, out, _ = run_cli(argv)
        assert rc == 1
        assert out == ""

    def test_help_exits_zero(self):
        rc, _, _ = run_cli(["--help"])
        assert rc == 0

    def test_unknown_subcommand(self):
        rc, _, _ = run_cli(["frobnicate"])
        assert rc == 1

    def test_negative_order(self):
        rc, _, err = run_cli(["xi", "--binary", "--q", "-1", "--grid", "8"])
        assert rc == 1
        assert "error" in err

    def test_missing_generator_file(self):
        rc, _, _ = run_cli(["xi", "--generator", "/no/such/file",
                            "--q", "2", "--alpha", "0.1"])
        assert rc == 1

    def test_nonsymmetric_generator_rejected(self, tmp_path):
        # reversible for pi = (0.7, 0.3) but not symmetric
        path = tmp_path / "gen.mat"
        np.savetxt(path, np.array([[-0.3, 0.3], [0.7, -0.7]]))
        rc, _, err = run_cli(["xi", "--generator", str(path), "--q", "2",
                              "--alpha", "0.1"])
        assert rc == 1
        assert "generator must be symmetric" in err

    def test_binary_and_generator_conflict(self, tmp_path):
        path = tmp_path / "gen.mat"
        np.savetxt(path, np.array([[-0.5, 0.5], [0.5, -0.5]]))
        rc, _, _ = run_cli(["xi", "--binary", "--generator", str(path),
                            "--q", "2", "--alpha", "0.1"])
        assert rc == 1

    def test_support_size_out_of_range(self):
        rc, _, _ = run_cli(["faber-krahn", "--graph", "hypercube",
                            "--n", "2", "--q", "2", "--m", "99"])
        assert rc == 1

    def test_quadrature_failure_maps_to_two(self, monkeypatch):
        def boom(*a, **k):
            raise QuadratureError("forced")
        monkeypatch.setattr(cli, "hypercube_bound", boom)
        rc, _, err = run_cli(["concentration", "--family", "binary",
                              "--n", "4", "--p", "0", "--r", "1"])
        assert rc == 2
        assert "numerical failure" in err

    def test_radius_cap_maps_to_two(self, monkeypatch):
        # the path inside C5 is not regular, so one step cannot close the
        # bracket; nor can it on the 3-state path faces of K2^2 that the
        # p = 0 route solves at alpha = 0.1
        monkeypatch.setattr(graph_spectral, "RADIUS_MAXITER", 1)
        for argv in (["qradius", "--graph", "cycle", "5", "--q", "2",
                      "--subset", "0", "1", "2"],
                     ["xi", "--binary", "--q", "2", "--p", "0", "--n", "2",
                      "--alpha", "0.1"]):
            rc, _, err = run_cli(argv)
            assert rc == 2
            assert "numerical failure" in err

    def test_inversion_cap_maps_to_two(self, monkeypatch):
        monkeypatch.setattr(concentration, "INVERSE_MAXITER", 1)
        rc, _, err = run_cli(["concentration", "--family", "binary",
                              "--n", "4", "--p", "0", "--r", "1"])
        assert rc == 2
        assert "numerical failure" in err

    def test_verify_all_green(self):
        rc, out, _ = run_cli(["verify"])
        assert rc == 0
        assert "FAIL" not in out
        lines = out.strip().splitlines()
        assert lines[-1].endswith("checks passed")

    def test_verify_failure_exits_three(self, monkeypatch):
        monkeypatch.setattr(cli, "_verify_checks",
                            lambda seed: [("always-red", lambda: False)])
        rc, out, _ = run_cli(["verify"])
        assert rc == 3
        assert "always-red: FAIL" in out
