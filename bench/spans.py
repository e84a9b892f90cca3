"""Spans around the public functions of each diagtorus layer.

``Tracer.install`` wraps every public module-level function of each layer
module and rebinds the wrapper wherever a diagtorus module namespace holds
the original.  Module globals resolve at call time, so calls inside a module
and across modules are caught too.  Class methods (``IntMatrix.__matmul__``,
``DiagSubgroup.from_matrix``) are not wrapped; their time counts towards the
layer function that calls them, or towards the benchmark when called from
the benchmark's own code.

Spans live in memory (name, start, end, parent, operation id) and are
written out once the run ends.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("intmat", "lattice", "diag", "action", "normalizer", "roots", "oracle", "cli")


def _max_witness_bits(dec) -> int:
    return max(abs(x).bit_length() for m in (dec.U, dec.V) for row in m.entries for x in row)


# Results some metrics need, taken when the call returns.  Each is cheap next
# to the call it observes.
OBSERVERS = {
    "intmat.smith_normal_form": _max_witness_bits,
    "lattice.permuted_equal": lambda r: r is not None,
    "normalizer.normalizer_report": lambda r: r.perm_order,
    "roots.enumerate_root_vectors": len,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.observed: dict[str, list] = {name: [] for name in OBSERVERS}
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        sink = self.observed.get(name)
        stack, start, end = self._stack, self.start, self.end
        parent, op, name_of = self.parent, self.op, self.name_of

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                sink.append(observe(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"diagtorus.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "diagtorus" and not modname.startswith("diagtorus."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    # ------------------------------------------------------------ analysis

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def problems(self) -> list[str]:
        """Nesting violations: a child outside its parent, or negative self time."""
        out = []
        dur, own = self.self_times()
        for i in range(len(dur)):
            p = self.parent[i]
            if dur[i] < 0 or own[i] < 0:
                out.append(f"span {i} has negative time")
            if p >= 0 and not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                out.append(f"span {i} lies outside its parent {p}")
            if len(out) > 5:
                break
        return out

    def metrics(self, op_kinds: list[str], op_time_ns: int, output_bytes: int,
                passes: int) -> dict:
        """Per-layer metrics, per traced pass over the operation list.

        op_time_ns is the summed wall time of the traced operation calls; the
        part of it no layer span covers is the benchmark's own time.
        """
        dur, own = self.self_times()
        names = [self.names[k] for k in self.name_of]
        layer_of = [name.split(".", 1)[0] for name in names]
        wall = op_time_ns / 1e9
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            idx = [i for i, lay in enumerate(layer_of) if lay == layer]
            self_s = sum(own[i] for i in idx) / 1e9
            out[f"{layer}.calls"] = (len(idx), "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.self_share"] = (self_s / wall if wall else 0.0, "share")
        covered = sum(dur[i] for i in range(len(dur)) if self.parent[i] < 0) / 1e9
        out["trace.bench_own_share"] = ((wall - covered) / wall if wall else 0.0, "share")

        def incl(name):
            return sum(dur[i] for i, nm in enumerate(names) if nm == name) / 1e9

        def count(name):
            return sum(1 for nm in names if nm == name)

        hermite = sum(dur[i] for i, nm in enumerate(names)
                      if self.parent[i] < 0 and op_kinds[self.op[i]] == "hermite_equal"
                      and nm in ("lattice.lattice_of", "lattice.equal")) / 1e9
        leaves = sum(1 for i, nm in enumerate(names) if nm == "lattice.equal"
                     and self.parent[i] >= 0 and names[self.parent[i]] == "lattice.permuted_equal")
        contains_calls = sum(1 for i, nm in enumerate(names) if nm == "lattice.contains"
                             and self.parent[i] >= 0 and layer_of[self.parent[i]] == "normalizer")
        bits = self.observed["intmat.smith_normal_form"]
        hits = sum(self.observed["lattice.permuted_equal"])
        out.update({
            "lattice.pluecker_s": (incl("lattice.pluecker_equal"), "s"),
            "lattice.hermite_equal_s": (hermite, "s"),
            "intmat.snf_s": (incl("intmat.smith_normal_form"), "s"),
            "intmat.snf_calls": (count("intmat.smith_normal_form"), "count"),
            "intmat.factors_only_s": (incl("intmat.invariant_factors"), "s"),
            "intmat.inverse_s": (incl("intmat.inverse_unimodular"), "s"),
            "intmat.witness_bits_max": (max(bits, default=0), "bits"),
            "intmat.witness_bits_p50": (statistics.median(bits) if bits else 0, "bits"),
            "intmat.hnf_s": (incl("intmat.hermite_normal_form"), "s"),
            "intmat.hnf_calls": (count("intmat.hermite_normal_form"), "count"),
            "intmat.det_calls": (count("intmat.determinant"), "count"),
            "diag.crn_conjugator_s": (incl("diag.crn_conjugator"), "s"),
            "diag.conjugate_in_gl_s": (incl("diag.conjugate_in_gl"), "s"),
            "lattice.permuted_equal_s": (incl("lattice.permuted_equal"), "s"),
            "lattice.permuted_equal_leaves": (leaves, "count"),
            "lattice.permuted_equal_hit_ratio": (hits / leaves if leaves else 0.0, "1/leaf"),
            "normalizer.report_s": (incl("normalizer.normalizer_report"), "s"),
            "normalizer.contains_calls": (contains_calls, "count"),
            "normalizer.perm_order_sum": (sum(self.observed["normalizer.normalizer_report"]),
                                          "count"),
            "roots.enumerate_s": (incl("roots.enumerate_root_vectors"), "s"),
            "roots.vectors_out": (sum(self.observed["roots.enumerate_root_vectors"]), "count"),
            "oracle.perm_sign_s": (incl("oracle.perm_sign_exhaust"), "s"),
            "cli.build_parser_s": (incl("cli.build_parser"), "s"),
            "cli.output_bytes": (output_bytes, "bytes"),
        })
        return {k: (v / passes if unit in ("count", "s", "bytes") else v, unit)
                for k, (v, unit) in out.items()}

    def write(self, path) -> None:
        t0 = min(self.start, default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\top\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.op[i]}\t"
                         f"{self.parent[i]}\t{self.start[i] - t0}\t{self.end[i] - t0}\n")
