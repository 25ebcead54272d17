"""Runtime spans and counters around the public callables of ``starsplit``.

The benchmark never edits the package: ``install`` replaces each traced
callable by a wrapper at every place it is bound, that is the class
attribute for methods and every ``starsplit.*`` module attribute that holds
the same function object for module functions (``analysis`` and
``operators`` import helpers with ``from .metric import ...``, so patching
``metric.hodge_star`` alone would miss their calls).

Each wrapped call is a span (name, start, end, parent, op id).  Spans are
aggregated on exit into per-name call counts and self time (duration minus
the time covered by child spans) and kept in memory, up to ``MAX_SPANS``,
for a JSONL dump at exit.  Cache misses are counted as the distinct keys
seen within one op; the tracer holds the keyed objects until the op ends,
so an object id cannot be reused inside an op.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (target, span name, pre-hook, post-hook): target is "module:function"
# or "module:Class.method"; a hook names a Tracer method, called with the
# span name and the call's arguments (pre) or result (post).
TARGETS = (
    ("metric:HermitianMetric.__init__", "metric.HermitianMetric", None, None),
    ("metric:HermitianMetric.to_e_matrix", "metric.frame_matrix", "_to_e_key", None),
    ("metric:HermitianMetric.from_e_matrix", "metric.frame_matrix", "_from_e_key", None),
    ("metric:omega_power", "metric.omega_power", "_power_key", None),
    ("metric:hodge_star", "metric.hodge_star", None, None),
    ("metric:divide_by_power", "metric.divide_by_power", None, None),
    ("metric:lefschetz_lambda", "metric.lefschetz_lambda", None, None),
    ("metric:form_norm", "metric.form_norm", None, None),
    ("complex_structure:InvariantComplexManifold.d", "complex_structure.d", "_d_hook", None),
    ("complex_structure:InvariantComplexManifold.del_", "complex_structure.del_", None, None),
    ("complex_structure:InvariantComplexManifold.delbar", "complex_structure.delbar", None, None),
    ("complex_structure:InvariantComplexManifold.bind", "complex_structure.bind", None, None),
    ("complex_structure:InvariantComplexManifold.validate", "complex_structure.validate", None, None),
    ("forms:Form.wedge", "forms.wedge", None, None),
    ("analysis:classify", "analysis.classify", None, None),
    ("analysis:f_scalar", "analysis.f_scalar", None, None),
    ("analysis:rho", "analysis.rho", None, None),
    ("analysis:star_rho", "analysis.star_rho", None, None),
    ("analysis:pair_analysis", "analysis.pair_analysis", None, None),
    ("analysis:triple_analysis", "analysis.triple_analysis", None, None),
    ("analysis:eigenvalues_of_11", "analysis.eigenvalues_of_11", None, None),
    ("operators:OperatorTable.mat", "operators.OperatorTable.mat", "_mat_key", None),
    ("operators:OperatorTable.chain", "operators.OperatorTable.chain", None, None),
    ("operators:verify_commutation_suite", "operators.verify_commutation_suite", None, None),
    ("operators:verify_operator_identities", "operators.verify_operator_identities", None, None),
    ("search:pss_defect", "search.pss_defect", None, None),
    ("search:search_pss", "search.search_pss", None, None),
    ("catalog:get", "catalog.get", None, None),
    ("exprs:evaluate", "exprs.evaluate", None, None),
    ("cli:main", "cli.main", None, None),
    ("jsonio:dumps", "jsonio.dumps", None, "_bytes_out"),
)

# Form construction is counted, not timed: it is the innermost and most
# frequent call, and a span around it would dominate the traced run.
COUNTED = (("forms:Form.__init__", "forms.Form_new"),)

OP_SPAN = "bench.op"
MAX_SPANS = 100_000


class Tracer:
    """Span stack, per-name aggregates and the bounded span log of one
    process."""

    def __init__(self):
        self.stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        self.spans: List[tuple] = []
        self.dropped = 0
        self.op_id: Optional[int] = None
        self._stack: List[list] = []          # [child_time, span_id]
        self._active: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._seen: set = set()
        self._held: list = []

    # -- op boundaries ---------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen.clear()
        self._held.clear()

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn: Callable, name: str, pre: Optional[str] = None,
             post: Optional[str] = None) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        active = self._active
        spans = self.spans
        clock = time.perf_counter
        pre_hook = getattr(self, pre) if pre else None
        post_hook = getattr(self, post) if post else None

        def traced(*args, **kwargs):
            if pre_hook is not None:
                pre_hook(name, args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name] -= 1
                stack.pop()
                dur = t1 - t0
                stats["calls"] += 1
                stats["self_s"] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((sid, parent, name, t0, t1, self.op_id))
                else:
                    self.dropped += 1
            if post_hook is not None:
                post_hook(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def op_span(self, fn: Callable) -> Callable:
        """Root span of one benchmark op; its self time is the op's time
        outside every traced layer."""
        return self.wrap(fn, OP_SPAN)

    def counted(self, fn: Callable, name: str) -> Callable:
        stats = self.stats[name]

        def counted_call(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    # -- hooks -----------------------------------------------------------
    def _miss(self, name: str, obj, key: tuple) -> None:
        full = (name, id(obj)) + key
        if full not in self._seen:
            self._seen.add(full)
            self._held.append(obj)
            st = self.stats[name]
            st["misses"] = st.get("misses", 0) + 1

    def _to_e_key(self, name, args):
        # to_e and from_e share one span; the direction keeps their keys apart
        self._miss(name, args[0], (args[1], args[2], "to_e"))

    def _from_e_key(self, name, args):
        self._miss(name, args[0], (args[1], args[2], "from_e"))

    def _power_key(self, name, args):
        self._miss(name, args[0], (args[1],))

    def _mat_key(self, name, args):
        self._miss(name, args[0], tuple(args[1:4]))

    def _d_hook(self, name, args):
        st = self.stats[name]
        u = args[1]
        terms = getattr(u, "_terms", None)
        st["terms_in"] = st.get("terms_in", 0) + (
            len(terms) if terms is not None else sum(1 for _ in u.terms()))
        if self._active["analysis.classify"]:
            cl = self.stats["analysis.classify"]
            cl["d_calls"] = cl.get("d_calls", 0) + 1

    def _bytes_out(self, name, result):
        st = self.stats[name]
        st["bytes"] = st.get("bytes", 0) + len(result.encode("utf-8"))

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target; call after ``starsplit`` is imported and before
        the traced work starts."""
        for target, name, pre, post in TARGETS:
            self._install(target, lambda fn, n=name, a=pre, b=post: self.wrap(fn, n, a, b))
        for target, name in COUNTED:
            self._install(target, lambda fn, n=name: self.counted(fn, n))

    @staticmethod
    def _install(target: str, make: Callable[[Callable], Callable]) -> None:
        mod_name, attr_path = target.split(":")
        module = importlib.import_module("starsplit." + mod_name)
        if "." in attr_path:
            cls_name, meth = attr_path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, attr_path)
        wrapper = make(original)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "starsplit" or mname.startswith("starsplit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    # -- output ------------------------------------------------------------
    def export_stats(self) -> Dict[str, Dict[str, float]]:
        return {name: dict(st) for name, st in self.stats.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "op": op}) + "\n")


def merge_stats(into: Dict[str, Dict[str, float]], other: Dict[str, Dict[str, float]]) -> None:
    """Add one process's aggregates into another's (used for CLI children)."""
    for name, st in other.items():
        dst = into.setdefault(name, {})
        for key, value in st.items():
            dst[key] = dst.get(key, 0) + value
