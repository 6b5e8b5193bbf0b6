"""The benchmark's checks pass on rslab's answers and fail on wrong ones.

    python3 -m pytest -q perfbench/test_checks.py

Each check is given the program's own output, which must pass, and a
corrupted copy, which must fail: a value scaled by (1 + 1e-3), a witness
moved off its level set, or two rows' log_bound swapped.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import OUT, load_rslab  # noqa: E402

import reference as R  # noqa: E402
import workloads as W  # noqa: E402

SCALE = 1.0 + 1e-3


@pytest.fixture(scope="module")
def lab():
    OUT.mkdir(exist_ok=True)
    lab = W.Lab(load_rslab(), str(OUT / "op-test.json"))
    yield lab
    Path(lab.out_path).unlink(missing_ok=True)


def toward_pi(Q, pi, t=0.5):
    """Pull a witness halfway to pi: every divergence level drops."""
    return (1.0 - t) * np.asarray(Q) + t * pi


def scaled_rows(text, column, k=0):
    rows = json.loads(text)["rows"]
    rows[k][column] *= SCALE
    return json.dumps({"rows": rows})


@pytest.mark.parametrize("name,q", [("binary", 2.0), ("binary", 0.0),
                                    ("K4", 1.0)])
def test_xi_q(lab, name, q):
    S = (lab.semigroup.binary_semigroup() if name == "binary"
         else lab.complete_chain(4))
    op = W.xi_q_op(lab, name, S, q, 0.4 * math.log(S.nstates))
    val, Q = op.run()
    assert op.check((val, Q)) == []
    assert op.check((val * SCALE, Q))
    assert op.check((val, toward_pi(Q, S.stationary)))


def test_xi_pq_n(lab):
    S = lab.semigroup.binary_semigroup()
    op = W.xi_pq_n_op(lab, "binary", S, 2.0, 2.0, 2, 0.3)
    val, Q = op.run()
    assert op.check((val, Q)) == []
    assert op.check((val * SCALE, Q))
    assert op.check((val, toward_pi(Q, R.product_law(S.stationary, 2))))


def test_sandwich_catches_a_value_above_the_curve(lab):
    S = lab.semigroup.binary_semigroup()
    op = W.xi_pq_n_op(lab, "binary", S, 2.0, 2.0, 2, 0.3)
    val, Q = op.run()
    # a witness-consistent value cannot leave the sandwich, so test the
    # sandwich alone: the check's witness test is satisfied by construction
    lo_hi = R.two_point_xi(2.0, 0.3) + 2e-4
    probs = op.check((lo_hi, Q))
    assert any("sandwich" in p for p in probs)


def test_support(lab):
    op = W.support_op(lab, 3, 1, 2, 2.0)
    val, Q = op.run()
    assert op.check((val, Q)) == []
    assert op.check((val * SCALE, Q))
    S = lab.complete_chain(3)
    assert op.check((val, toward_pi(Q, S.stationary)))


def test_faber_krahn(lab):
    for q in (2.0, 1.5):
        op = W.fk_op(lab, 2, 3, 4, q)
        res = op.run()
        assert op.check(res) == []
        wrong = type(res)(res.value * SCALE, res.witness)
        assert op.check(wrong)


def test_q_radius(lab):
    op = W.q_radius_op(lab, "petersen", W.petersen(), 1.5, "regular")
    assert op.check(op.run()) == []
    assert op.check(op.run() * SCALE)
    A = W.hamming_ball(10, 3)
    for q in (1.0, 2.0, math.inf):
        op = W.q_radius_op(lab, "ball", A, q, "ball")
        assert op.check(op.run()) == []
        assert op.check(op.run() * SCALE)


def test_tail_table(lab):
    op = W.tail_op(lab, 10, 0.0, [1.0, 3.0])
    text = op.run()
    assert op.check(text) == []
    assert op.check(scaled_rows(text, "log_bound"))
    rows = json.loads(text)["rows"]
    rows[0]["log_bound"], rows[1]["log_bound"] = (rows[1]["log_bound"],
                                                  rows[0]["log_bound"])
    assert op.check(json.dumps({"rows": rows}))


def test_zero_deviation_fails_today_and_is_checked_once_mended(lab):
    op = W.zero_deviation_op(lab)
    with pytest.raises(W.OpFailed, match="exit 2"):
        op.run()
    row = {"family": "binary", "n": 10, "p": 0.0, "r": 0.0, "log_bound": 0.0}
    assert op.check(json.dumps({"rows": [row]})) == []
    row["log_bound"] = 1e-3
    assert op.check(json.dumps({"rows": [row]}))


@pytest.mark.parametrize("q,conv", [(0.8, False), (2.0, False), (3.0, True)])
def test_curve_table(lab, q, conv):
    op = W.curve_table_op(lab, q, conv)
    text = op.run()
    assert op.check(text) == []
    assert op.check(scaled_rows(text, "value", k=40))


@pytest.mark.parametrize("variant", ["dirac-mixture", "conditional-typical"])
def test_extremal_table(lab, variant):
    op = W.extremal_op(lab, variant, 8)
    text = op.run()
    assert op.check(text) == []
    assert op.check(scaled_rows(text, "ent_rate"))
    assert op.check(scaled_rows(text, "dirichlet_rate"))


def test_curves_cross_checks(lab):
    ops, cross = W.curves(lab, np.random.default_rng(0))
    # values only matter to the cross checks; fake a nondecreasing curve
    out = {op.label: (float(k), None) for k, op in enumerate(ops)}
    for op in ops:
        if " p=" not in op.label or " q=2.0 n=2 " not in op.label:
            continue
        p = float(op.label.split(" p=")[1].split()[0])
        out[op.label] = (10.0 - p, None)       # nonincreasing in p
    assert cross(out) == []
    first, second = ops[0].label, ops[1].label   # one xi_q slot
    out[first], out[second] = out[second], out[first]
    assert cross(out)


def test_subgraphs_identity_cross_check(lab):
    ops, cross = W.subgraphs(lab, np.random.default_rng(0))
    key = W.SUPPORT[0]
    sup = ops[0]
    fk = next(op for op in ops if op.label
              == f"faber_krahn K{key[0]}^{key[1]} m={key[2]} q={key[3]}")
    out = {sup.label: sup.run(), fk.label: fk.run()}
    assert cross(out) == []
    val, Q = out[sup.label]
    out[sup.label] = (val * SCALE, Q)
    assert cross(out)
