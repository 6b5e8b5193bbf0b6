"""rslab benchmark: one workload per run, in one process, one caller.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: every operation starts when the previous one
returns, and no other thread runs. A run makes whole passes over the
workload's operation list, as many as cover --seconds (the number is fixed
after the first pass), checks every output, prints a human-readable report
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. Their times are scaled to a
fixed reference speed by a calibration kernel timed between operations
(see calibrate.py), because the shared host's own speed drifts by more than
the metrics' bounds. --trace 1 runs every operation untraced and then
traced, for whole passes until --seconds is covered, and reports the
per-layer metrics of one traced pass plus the tracing overhead (traced
minus untraced time). Per-operation samples and the spans go to
perfbench/out/. rslab is imported from src/ next to this directory; without
it the run stops with exit code 1 and prints no result.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (BLAS threads must be set before numpy loads)
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("semigroup", "entropy", "sobolev", "graph_spectral",
           "concentration", "cli")
SETUP_REPS = 5
SETUP_CAL = 3           # calibration kernel calls after each set-up step
CURVE_KINDS = ("xi_q", "xi_pq_n", "support")


def load_rslab():
    if not (SRC / "rslab" / "__init__.py").is_file():
        raise SystemExit(f"rslab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"rslab.{name}")
            for name in MODULES}
    for mod in mods.values():
        if SRC not in Path(mod.__file__).resolve().parents:
            raise SystemExit(f"{mod.__name__} was imported from "
                             f"{mod.__file__}, not from {SRC}")
    return mods


def timed(i, op, failures):
    """(index, ok, start, seconds, output or error text) of one call."""
    t = time.perf_counter()
    try:
        out, ok = op.run(), True
    except failures as exc:
        out, ok = f"{type(exc).__name__}: {exc}", False
    return i, ok, t, time.perf_counter() - t, out


def run_pass(ops, failures, cal):
    """Every operation once, in order, with a calibration kernel call after
    any operation that ends calibrate.EVERY_S after the last one."""
    records = []
    for i, op in enumerate(ops):
        records.append(timed(i, op, failures))
        cal.maybe_sample()
    return records


def run_traced_pass(ops, failures, tracer):
    """Every operation once untraced and, right after, once traced, so that
    both calls see the same machine; returns the two passes."""
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(timed(i, op, failures))
        tracer.install()
        tracer.op_id += 1
        try:
            traced.append(timed(i, op, failures))
        finally:
            tracer.uninstall()
    return plain, traced


def write_samples(path, ops, passes, t_start, scale):
    """One line per operation run: pass, kind, ok, start, duration, and the
    duration at the reference speed (scale(t) is its factor at time t)."""
    with open(path, "w") as fh:
        fh.write("pass,kind,ok,start_s,ms,ref_ms,label\n")
        for k, records in enumerate(passes):
            for i, ok, t, dt, _ in records:
                fh.write(f"{k},{ops[i].kind},{int(ok)},{t - t_start:.6f},"
                         f"{dt * 1e3:.6f},{dt * 1e3 * scale(t + dt / 2):.6f},"
                         f"\"{ops[i].label}\"\n")


def percentile_line(samples):
    """Median with its count; with >= 40 samples, also the highest
    percentile that has at least ten samples beyond it."""
    s = sorted(samples)
    text = f"median {statistics.median(s):.4f} ms (n={len(s)})"
    if len(s) >= 40:
        pct = math.floor(100.0 * (len(s) - 10) / len(s))
        value = s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]
        text += f", p{pct} {value:.4f} ms"
    return text


def typical_ms(by_input):
    """Geometric mean over a kind's distinct inputs of each input's median
    time. Every input weighs the same, so a change that speeds up some of
    them moves the figure by their share; and, unlike the median of all
    samples, it does not hang on the one or two calls that fall in the
    middle of inputs whose costs differ by 100x."""
    logs = [math.log(statistics.median(v)) for v in by_input.values()]
    return math.exp(sum(logs) / len(logs))


def check_outputs(workload, passes):
    problems, unexpected = [], []
    ops = workload.ops
    for records in passes:
        outputs = {}
        for i, ok, _, _, out in records:
            op = ops[i]
            if not ok:
                if not op.expect_fail:
                    unexpected.append(f"{op.label}: {out}")
                continue
            problems += [f"{op.label}: {p}" for p in op.check(out)]
            if not op.probe:
                outputs[op.label] = out
        problems += workload.cross_check(outputs)
    return problems, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("curves", "subgraphs", "tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    mods = load_rslab()
    import calibrate
    import spans
    import workloads as W
    import_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    lab = W.Lab(mods, str(OUT / f"op-{os.getpid()}.json"))
    failures = (W.OpFailed, ValueError, ArithmeticError)
    try:
        # set-up: import once, then build the inputs and warm one operation
        # of each kind, several times; report the import plus the median
        # build, each at the reference speed of the calibration kernel
        # timed right after it
        cal = calibrate.Calibration()
        for _ in range(SETUP_CAL):
            cal.sample()
        import_ref_s = import_s * calibrate.NOMINAL_MS / cal.median_ms()
        build_s, build_ref_s = [], []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            workload = W.build(args.workload, lab, args.seed)
            for op in workload.warmups:
                op.run()
            dt = time.perf_counter() - t
            for _ in range(SETUP_CAL):
                cal.sample()
            build_s.append(dt)
            build_ref_s.append(dt * cal.scale(t + dt / 2))
        setup_s = import_ref_s + statistics.median(build_ref_s)
        print(f"set-up: import {import_s:.4f} s, build and warm-up "
              f"{', '.join(f'{b:.4f}' for b in build_s)} s; at the "
              f"reference speed {import_ref_s:.4f} s and "
              f"{', '.join(f'{b:.4f}' for b in build_ref_s)} s")
        cal = calibrate.Calibration()

        ops = workload.ops
        passes = []
        t_start = time.perf_counter()
        if not args.trace:
            cal.sample()
            target = None
            while target is None or len(passes) < target:
                passes.append(run_pass(ops, failures, cal))
                elapsed = time.perf_counter() - t_start
                if target is None:
                    target = max(1, round(args.seconds / elapsed))
            peak_rss_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0)
        else:
            tracer = spans.Tracer(mods)
            traced_passes = 0
            while traced_passes == 0 or \
                    time.perf_counter() - t_start < args.seconds:
                passes += run_traced_pass(ops, failures, tracer)
                traced_passes += 1
            elapsed = time.perf_counter() - t_start

        problems, unexpected = check_outputs(workload, passes)
        scale = cal.scale if not args.trace else (lambda t: 1.0)
        write_samples(OUT / f"samples-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.csv", ops, passes, t_start, scale)
    finally:
        if os.path.exists(lab.out_path):
            os.remove(lab.out_path)

    attempted = sum(len(r) for r in passes)
    failed = sum(not rec[1] for r in passes for rec in r)
    succeeded = attempted - failed
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)} x {len(ops)} operations  "
          f"timed {elapsed:.2f} s  BLAS threads {BLAS_THREADS}")
    for text in problems[:20]:
        print("  CHECK FAILED " + text, file=sys.stderr)
    for text in unexpected[:20]:
        print("  UNEXPECTED FAILURE " + text, file=sys.stderr)

    if not args.trace:
        samples = {kind: [] for kind in W.KINDS}
        raw = {kind: [] for kind in W.KINDS}
        by_input = {kind: {} for kind in W.KINDS}
        busy_s = 0.0                    # all operations, at reference speed
        for records in passes:
            for i, ok, t, dt, _ in records:
                ref = dt * scale(t + dt / 2)
                busy_s += ref
                if ok and not ops[i].expect_fail:
                    samples[ops[i].kind].append(ref * 1e3)
                    raw[ops[i].kind].append(dt * 1e3)
                    by_input[ops[i].kind].setdefault(
                        ops[i].label, []).append(ref * 1e3)
        print(f"  calibration kernel: median {cal.median_ms():.4f} ms "
              f"(n={len(cal.ms)}, nominal {calibrate.NOMINAL_MS} ms); "
              f"times below are at the nominal speed, raw in brackets")
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mib": (peak_rss_mib, "MiB"),
                   "ops_per_s": (succeeded / busy_s, "op/s")}
        for kind in W.KINDS:
            probe = all(op.probe for op in ops if op.kind == kind)
            typical = typical_ms(by_input[kind])
            print(f"  {kind}_ms: {typical:.4f} ms over "
                  f"{len(by_input[kind])} input(s); "
                  f"{percentile_line(samples[kind])}"
                  f" [raw median {statistics.median(raw[kind]):.4f} ms]"
                  f"{'  [probe]' if probe else ''}")
            metrics[f"{kind}_ms"] = (typical, "ms")
    else:
        values = sum(1 for records in passes[1::2] for rec in records
                     if ops[rec[0]].kind in CURVE_KINDS)
        totals = tracer.layer_totals(values)
        totals["trace.overhead.ms"] = 1e3 * sum(
            rec[3] * (1 if k % 2 else -1)
            for k, records in enumerate(passes) for rec in records)
        metrics = {}
        for key, unit in spans.PER_LAYER.items():
            v = totals[key]
            if unit in ("count", "bytes"):
                v = (v // traced_passes if v % traced_passes == 0
                     else v / traced_passes)
            elif unit == "ms":
                v = v / traced_passes
            metrics[key] = (v, unit)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans over {traced_passes} traced "
              f"pass(es) written to {path.relative_to(ROOT)}")

    for key, (v, unit) in metrics.items():
        print(f"  {key} = {v:.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}  "
          f"correct {not problems}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
