"""Spans and counters around rslab's layer boundaries, from outside rslab.

`Tracer.install` replaces module-level names with wrappers and
`Tracer.uninstall` puts the originals back. A wrapped name is replaced in
every rslab module whose namespace holds the same object, because `cli` and
the layer modules import each other's functions by name. Nothing under
`src/` changes.

A span is (name, start_ns, end_ns, parent index, operation id); spans stay in
memory until `write`. A layer's self time is its span's duration minus the
durations of its direct child spans. Every layer runs on the calling thread,
so no waiting time is recorded.
"""

import itertools
import os
import time
from collections import defaultdict

# (module, name): each call becomes a span labelled "module.name"
SPANNED = (
    ("cli", "main"), ("cli", "emit"),
    ("concentration", "hypercube_bound"), ("concentration", "xi_inverse"),
    ("sobolev", "binary_xi_q"), ("sobolev", "xi_q"), ("sobolev", "xi_pq_n"),
    ("sobolev", "build_extremal"), ("sobolev", "sequence_type_counts"),
    ("semigroup", "pi_product"), ("semigroup", "sequence_digits"),
    ("entropy", "renyi_divergence"),
    ("graph_spectral", "faber_krahn_exact"),
    ("graph_spectral", "cartesian_power"), ("graph_spectral", "q_radius"),
)

# called millions of times per tail row: counted as "module.name.calls",
# not timed
COUNTED = (("sobolev", "hinv"), ("sobolev", "hfun"),
           ("concentration", "adaptive_simpson"))

# per-layer metrics: name -> unit; the order is the order they print in
PER_LAYER = {}
for _label, _kinds in (
        ("cli.main", ("calls", "self_ms")),
        ("cli.emit", ("calls", "ms", "bytes")),
        ("concentration.hypercube_bound", ("calls", "self_ms")),
        ("concentration.adaptive_simpson", ("calls",)),
        ("concentration.integrand", ("evals",)),
        ("concentration.xi_inverse", ("calls", "self_ms")),
        ("sobolev.binary_xi_q", ("calls", "self_ms")),
        ("sobolev.hinv", ("calls",)),
        ("sobolev.hfun", ("calls",)),
        ("sobolev.xi_q", ("calls", "self_ms")),
        ("sobolev.slsqp", ("runs", "nfev", "nit", "unconverged", "ms")),
        ("sobolev.nfev_per_value", ()),
        ("sobolev.xi_pq_n", ("calls", "self_ms")),
        ("sobolev.nelder_mead", ("runs", "nfev", "ms")),
        ("semigroup.pi_product", ("calls", "ms")),
        ("semigroup.sequence_digits", ("calls", "ms")),
        ("sobolev.build_extremal", ("calls", "self_ms")),
        ("sobolev.sequence_type_counts", ("calls", "ms")),
        ("entropy.renyi_divergence", ("calls", "ms")),
        ("graph_spectral.faber_krahn_exact", ("calls", "self_ms")),
        ("graph_spectral.subsets", ("enumerated",)),
        ("graph_spectral.cartesian_power", ("calls", "ms")),
        ("graph_spectral.q_radius", ("calls", "self_ms")),
        ("trace.overhead", ("ms",))):
    if not _kinds:
        PER_LAYER[_label] = "evals/value"
    for _kind in _kinds:
        PER_LAYER[f"{_label}.{_kind}"] = ("ms" if _kind.endswith("ms") else
                                          "bytes" if _kind == "bytes" else
                                          "count")

_MINIMIZE_LABEL = {"SLSQP": "sobolev.slsqp",
                   "Nelder-Mead": "sobolev.nelder_mead"}


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # short name -> module object
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.op_id = -1
        self._saved = []                # (module, name, original)

    # -- recording ---------------------------------------------------------

    def _spanned(self, label, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, self.op_id)
            if after is not None:
                after(out, args, kwargs)
            return out
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _adaptive_simpson(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            counts["concentration.adaptive_simpson.calls"] += 1

            def integrand(s):
                counts["concentration.integrand.evals"] += 1
                return f(s)
            return fn(integrand, *args, **kwargs)
        return wrapper

    def _minimize(self, fn):
        counts = self.counts
        wrapped = {}
        for method, label in _MINIMIZE_LABEL.items():
            def after(res, args, kwargs, label=label):
                counts[label + ".runs"] += 1
                counts[label + ".nfev"] += int(res.nfev)
                counts[label + ".nit"] += int(getattr(res, "nit", 0))
                counts[label + ".unconverged"] += int(not res.success)
            wrapped[method] = self._spanned(label, fn, after)

        def wrapper(*args, **kwargs):
            return wrapped.get(kwargs.get("method"), fn)(*args, **kwargs)
        return wrapper

    def _combinations(self, fn):
        counts = self.counts

        def wrapper(iterable, r):
            for subset in fn(iterable, r):
                counts["graph_spectral.subsets.enumerated"] += 1
                yield subset
        return wrapper

    def _emit(self, fn):
        counts = self.counts

        def after(out, args, kwargs):
            cfg = args[0] if args else kwargs["cfg"]
            if cfg.out:
                counts["cli.emit.bytes"] += os.path.getsize(cfg.out)
        return self._spanned("cli.emit", fn, after)

    # -- installing ----------------------------------------------------------

    def _replace(self, home, name, wrapper):
        original = getattr(self.modules[home], name)
        for mod in self.modules.values():
            if mod.__dict__.get(name) is original:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)

    def install(self):
        for home, name in SPANNED:
            fn = getattr(self.modules[home], name)
            self._replace(home, name, self._emit(fn) if name == "emit"
                          else self._spanned(f"{home}.{name}", fn))
        for home, name in COUNTED:
            fn = getattr(self.modules[home], name)
            self._replace(home, name, self._adaptive_simpson(fn)
                          if name == "adaptive_simpson"
                          else self._counted(f"{home}.{name}.calls", fn))
        # scipy's minimize and itertools' combinations as bound in the layers
        sob = self.modules["sobolev"]
        self._saved.append((sob, "minimize", sob.minimize))
        sob.minimize = self._minimize(sob.minimize)
        gs = self.modules["graph_spectral"]
        self._saved.append((gs, "combinations", gs.combinations))
        gs.combinations = self._combinations(itertools.combinations)

    def uninstall(self):
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    # -- summaries -----------------------------------------------------------

    def layer_totals(self, values_per_op):
        """Per-layer metric totals over everything recorded so far.

        values_per_op: number of top-level curve values (xi_q and xi_pq_n
        operations), the base of sobolev.nfev_per_value.
        """
        calls = defaultdict(int)
        total_ns = defaultdict(int)
        self_ns = defaultdict(int)
        for label, t0, t1, parent, _ in self.spans:
            calls[label] += 1
            total_ns[label] += t1 - t0
            self_ns[label] += t1 - t0
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= t1 - t0
        out = {}
        for key in PER_LAYER:
            label, _, kind = key.rpartition(".")
            if key in self.counts:
                out[key] = self.counts[key]
            elif kind == "calls":
                out[key] = calls.get(label, 0)
            elif kind == "self_ms":
                out[key] = self_ns.get(label, 0) / 1e6
            elif kind == "ms":
                out[key] = total_ns.get(label, 0) / 1e6
            else:
                out[key] = 0
        evals = (self.counts.get("sobolev.slsqp.nfev", 0)
                 + self.counts.get("sobolev.nelder_mead.nfev", 0))
        out["sobolev.nfev_per_value"] = evals / max(values_per_op, 1)
        return out

    def write(self, path):
        """Spans as CSV: name, start_ns, end_ns, parent, op."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for span in self.spans:
                fh.write("%s,%d,%d,%d,%d\n" % span)
