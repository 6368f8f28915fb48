"""Per-layer tracing for the traced run.

`Tracer.install()` wraps nilk's public functions in place: every binding of
a wrapped function in every loaded `nilk.*` module (the `from .x import y`
copies in report, cli and the pipelines) and every class attribute bound to
it (`Poly.__radd__` is `__add__`, `__rmul__` is `__mul__`).  `uninstall()`
puts the originals back, so untraced passes run unmodified code.

A span records its call and its self time: its duration minus the part its
child spans cover.  Spans sharing a name (add, sub and neg) are summed.
Counts that must repeat exactly from run to run are kept in `counts`.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, wrapped attributes, published stats)
SPANS = (
    ("rings.poly_add", "rings", ("Poly.__add__", "Poly.__sub__", "Poly.__rsub__", "Poly.__neg__"),
     ("calls", "self_s")),
    ("rings.poly_mul", "rings", ("Poly.__mul__",), ("calls", "self_s")),
    ("rings.poly_pow", "rings", ("Poly.__pow__",), ("calls", "self_s")),
    ("rings.try_invert", "rings", ("Poly.try_invert",), ("calls", "self_s")),
    ("rings.substitute", "rings", ("Poly.substitute",), ("self_s",)),
    ("rings.ideal_member", "rings", ("ideal_member",), ("calls", "self_s")),
    ("rings.subring_member", "rings", ("subring_member",), ("self_s",)),
    ("rings.hom_apply", "rings", ("hom_apply",), ("self_s",)),
    ("matrices.matmul", "matrices", ("Matrix.__matmul__",), ("calls", "self_s")),
    ("matrices.nilpotency_index", "matrices", ("Matrix.nilpotency_index",), ("calls", "self_s")),
    ("matrices.power", "matrices", ("Matrix.power",), ("calls", "self_s")),
    ("matrices.det", "matrices", ("Matrix.det",), ("calls", "self_s")),
    ("matrices.inverse", "matrices", ("Matrix.inverse",), ("calls", "self_s")),
    ("matrices.matrix_to_json", "matrices", ("matrix_to_json",), ("self_s",)),
    ("matrices.matrix_from_json", "matrices", ("matrix_from_json",), ("self_s",)),
    ("words.eval_word", "words", ("eval_word",), ("calls", "self_s")),
    ("words.dennis_stein_word", "words", ("dennis_stein_word",), ("calls", "self_s")),
    ("words.expand_h", "words", ("expand_h",), ("calls",)),
    *((f"laurent_pipeline.{f}", "laurent_pipeline", (f,), ("calls", "self_s")) for f in (
        "lift_A", "double_idempotent_B", "clutch_projector", "excision_transport", "loop_z",
        "theorem31_matrix", "decompose_M", "higman_companion", "generalized_unit_rep")),
    *((f"groupring_pipeline.{f}", "groupring_pipeline", (f,), ("calls", "self_s")) for f in (
        "yz_matrix", "theorem42_block", "lift_to_group_ring", "reduce_to_dual")),
    *((f"nilsse.{f}", "nilsse", (f,), ("calls", "self_s")) for f in (
        "verschiebung", "frobenius", "verify_esse", "verify_se", "verify_sse_chain")),
    *((f"report.{f}", "report", (f,), ("self_s",)) for f in (
        "laurent_checks", "groupring_checks", "sse_checks", "suite_generalized_units",
        "suite_ring_axioms", "suite_hom_multiplicative", "suite_ideal_closure",
        "suite_det_multiplicative", "suite_eval_homomorphism", "suite_dennis_stein_identity")),
    *((f"cli.{f}", "cli", (f,), ("self_s",)) for f in (
        "cmd_theorem3", "cmd_theorem4", "cmd_higman", "cmd_versch", "cmd_frob", "cmd_sse_verify")),
    ("sampling.random_poly", "sampling", ("random_poly",), ("self_s",)),
)

# calls counted without a span: (metric, module, attribute)
COUNTED = (
    ("rings.poly_init.calls", "rings", "Poly.__init__"),
    ("matrices.from_rows.calls", "matrices", "Matrix.from_rows"),
)

BASE_RINGS = ("Q", "Zi", "Z4", "F2e", "F2")

# exact counts published besides the calls, with their units
EXTRA_COUNTS = (
    *((f"rings.poly_mul.term_products.{b}", "count") for b in BASE_RINGS),
    ("matrices.matmul.entry_products", "count"),
    ("matrices.nilpotency_index.steps", "count"),
    ("matrices.det.max_n", "rows"),
    ("words.eval_word.letters", "count"),
    ("cli.bytes_written", "bytes"),
    ("cli.bytes_read", "bytes"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in publication order."""
    units = {"calls": "count", "self_s": "s"}
    out = [(name, "count") for name, _, _ in COUNTED]
    out += [(f"{prefix}.{stat}", units[stat]) for prefix, _, _, stats in SPANS for stat in stats]
    out += list(EXTRA_COUNTS)
    out += [("matrices.matmul.nonzero_ratio", "ratio"), ("trace.overhead_s", "s")]
    return out


def _nilk(name: str):
    return importlib.import_module(f"nilk.{name}")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = [0.0]          # time covered by children of each open span
        self._undo = []              # (owner, attribute, original)

    # -- wrappers

    def _span(self, name, fn, hook=None):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[name] += dt - child
                calls[name] += 1
            if hook is not None:
                hook(args, out)
            return out
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks for the exact counts

    def _hooks(self):
        counts = self.counts
        Poly = _nilk("rings").Poly

        def poly_mul(args, out):
            a, b = args
            if out is NotImplemented:
                return
            if isinstance(b, Poly):
                n = len(b.terms)
            else:  # a scalar, normalized as Poly.__init__ does
                ops = a.ring.ops
                c = ops.from_int(b) if isinstance(b, int) else b
                n = 0 if c == ops.zero else 1
            counts[f"rings.poly_mul.term_products.{a.ring.base}"] += len(a.terms) * n

        def matmul(args, out):
            a, b = args
            col_nnz = [sum(1 for row in a.entries if row[j].terms) for j in range(a.cols)]
            counts["matrices.matmul.entry_products"] += sum(
                c * sum(1 for e in row if e.terms) for c, row in zip(col_nnz, b.entries))
            counts["matrices.matmul.attempted_products"] += a.rows * a.cols * b.cols

        def nilpotency_index(args, out):
            counts["matrices.nilpotency_index.steps"] += out if out is not None else args[1]

        def det(args, out):
            counts["matrices.det.max_n"] = max(counts["matrices.det.max_n"], args[0].rows)

        def eval_word(args, out):
            counts["words.eval_word.letters"] += len(args[0].letters)

        return {"rings.poly_mul": poly_mul, "matrices.matmul": matmul,
                "matrices.nilpotency_index": nilpotency_index, "matrices.det": det,
                "words.eval_word": eval_word}

    def _counting_path(self):
        counts = self.counts

        class CountingPath(type(pathlib.Path())):
            def read_text(self, *a, **k):
                text = super().read_text(*a, **k)
                counts["cli.bytes_read"] += self.stat().st_size
                return text

            def write_text(self, *a, **k):
                n = super().write_text(*a, **k)
                counts["cli.bytes_written"] += self.stat().st_size
                return n
        return CountingPath

    # -- installation

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, module, path, make):
        """Rebind every binding of the function at module.path to make(fn)."""
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
            for key, val in list(cls.__dict__.items()):
                if val is raw:
                    self._set(cls, key, new)
            return
        fn = getattr(module, path)
        new = make(fn)
        for name, mod in list(sys.modules.items()):
            if name == "nilk" or name.startswith("nilk."):
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, key, new)

    def install(self):
        hooks = self._hooks()
        for prefix, module, attrs, _ in SPANS:
            for path in attrs:
                self._replace(_nilk(module), path,
                              lambda fn, p=prefix: self._span(p, fn, hooks.get(p)))
        for metric, module, path in COUNTED:
            self._replace(_nilk(module), path,
                          lambda fn, m=metric[:-len(".calls")]: self._counter(m, fn))
        self._set(_nilk("cli"), "Path", self._counting_path())

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def exact(self) -> dict:
        """The counts that two traced passes at one seed must repeat."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return out

    def metrics(self) -> dict:
        """Every per-layer metric but trace.overhead_s, as {name: value}."""
        out = {name: self.calls.get(name[:-len(".calls")], 0) for name, _, _ in COUNTED}
        for prefix, _, _, stats in SPANS:
            for stat in stats:
                table = self.calls if stat == "calls" else self.self_s
                out[f"{prefix}.{stat}"] = table.get(prefix, 0)
        for name, _ in EXTRA_COUNTS:
            out[name] = self.counts.get(name, 0)
        attempted = self.counts.get("matrices.matmul.attempted_products", 0)
        out["matrices.matmul.nonzero_ratio"] = (
            self.counts.get("matrices.matmul.entry_products", 0) / attempted if attempted else 0.0)
        return out
