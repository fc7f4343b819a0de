"""Spans around leafmult's layers, recorded from outside the package.

``Tracer.install()`` wraps the public functions of every traced leafmult
module, plus a few hot methods, and rebinds every ``leafmult.*`` module
attribute that holds an original, because several modules import
functions by name.  Each call records a span (name, start, end, parent,
case id) in memory.  A span's self time is its duration minus the time
covered by its child spans.  ``Budget.spend`` is wrapped as a counter,
not a span: its stage labels give the work counts.

Totals are kept per case and merged only when the case ends by itself,
so a case cut by the deadline, whose counts depend on when it was cut,
never enters them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("poly", "ideals", "foliation", "jets", "localbasis", "series", "puiseux",
          "germs", "pairs", "extension", "verify", "cli", "manifest")
# (module, class, method, span name); methods the layer tables name.
METHODS = (
    ("poly", "Polynomial", "__mul__", "poly.mul"),
    ("jets", "Jet2", "regenerate", "jets.regenerate"),
    ("foliation", "FoliationContext", "leaf_jet", "foliation.leaf_jet"),
    ("foliation", "FoliationContext", "iterated_derivative", "foliation.iterated_derivative"),
    ("pairs", "NoetherianPair", "local_member", "pairs.local_member"),
)
# Module-level helpers too small to trace without drowning the numbers.
SKIP = {"poly": {"monomial_mul", "monomial_divides", "monomial_div", "monomial_lcm",
                 "monomial_degree"},
        "ideals": {"leading_term", "leading_monomial"},
        "series": {"is_element", "field_sub"}}
ORDER_ARG = {"jets.regenerate", "foliation.leaf_jet"}
ROOT = "case"


class Tracer:
    def __init__(self):
        self.names: list = [ROOT]
        self.layer_of: list = [ROOT]
        # span table, one entry per call
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_case = array("l")
        self.stack: list = []          # [span index, name id, child seconds]
        self.case_id = -1
        self._restore: list = []
        self._case: dict = {}
        self.totals: dict = {}
        self.cases_excluded = 0

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap and rebind; a module or method that no longer exists is
        reported and skipped, so its metrics read 0."""
        import leafmult
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"leafmult.{name}")
            except ImportError:
                print(f"tracer: no module leafmult.{name}")
        originals = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in SKIP.get(layer, ())):
                    originals[value] = self._wrap(value, f"{layer}.{attr}")
        for layer, cls_name, meth, span in METHODS + (("ideals", "Budget", "spend", None),):
            cls = getattr(modules.get(layer), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                print(f"tracer: no method leafmult.{layer}.{cls_name}.{meth}")
                continue
            self._set(cls, meth, self._wrap_spend(fn) if span is None else self._wrap(fn, span))
        # rebind every module attribute, the package's re-exports included
        for mod in list(modules.values()) + [leafmult]:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return self.names.index(name)

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        track_order = name in ORDER_ARG
        track_hits = name == "ideals.groebner"
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if track_order:
                order = args[-1] if len(args) >= 2 else kwargs.get("order", 0)
                c = tracer._case
                if order > c.get("max_order", 0):
                    c["max_order"] = order
            stack = tracer.stack
            index = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_case.append(tracer.case_id)
            tracer.span_end.append(0.0)
            frame = [index, nid, 0.0]
            stack.append(frame)
            raised = False
            t0 = time.perf_counter()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = time.perf_counter()
                tracer.span_end[index] = t1
                if stack and stack[-1] is frame:
                    stack.pop()
                tracer._close(nid, t1 - t0, frame[2], raised)
            if track_hits:
                seen = tracer._case.setdefault("gb_seen", [])
                if any(r is result for r in seen):
                    tracer._bump("ideals.groebner.hits", 1)
                else:
                    seen.append(result)
            return result

        return span

    def _wrap_spend(self, fn):
        tracer = self

        @functools.wraps(fn)
        def spend(budget, n=1, stage="", partial=None):
            tracer._bump(f"budget.{stage or budget.stage}", n)
            return fn(budget, n, stage, partial)

        return spend

    # -- recording -----------------------------------------------------------

    def _bump(self, key: str, n):
        counts = self._case.setdefault("counts", {})
        counts[key] = counts.get(key, 0) + n

    def _close(self, nid: int, duration: float, child: float, raised: bool):
        stack = self.stack
        if stack:
            stack[-1][2] += duration
        per = self._case.setdefault("spans", {})
        entry = per.get(nid)
        if entry is None:
            entry = per[nid] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration - child
        # a failure leaves the layer when the caller belongs to another one
        if raised and (not stack or self.layer_of[stack[-1][1]] != self.layer_of[nid]):
            entry[2] += 1

    def begin_case(self):
        self.case_id += 1
        self._case = {}
        self.stack = [[-1, 0, 0.0]]
        self._case_t0 = time.perf_counter()

    def end_case(self, completed: bool):
        wall = time.perf_counter() - self._case_t0
        covered = self.stack[0][2] if self.stack else wall
        case, self._case = self._case, {}
        self.stack = []
        if not completed:
            self.cases_excluded += 1
            return
        self.merge({
            "spans": {self.names[nid]: v for nid, v in case.get("spans", {}).items()},
            "counts": case.get("counts", {}),
            "max_order": case.get("max_order", 0),
            "unattributed_s": wall - covered,
        })

    def merge(self, part: dict):
        """Add one case's totals (or a child process's) into the run totals."""
        t = self.totals
        spans = t.setdefault("spans", {})
        for name, (calls, self_s, raised) in part.get("spans", {}).items():
            entry = spans.setdefault(name, [0, 0.0, 0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += raised
        counts = t.setdefault("counts", {})
        for key, n in part.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + n
        t["max_order"] = max(t.get("max_order", 0), part.get("max_order", 0))
        t["unattributed_s"] = t.get("unattributed_s", 0.0) + part.get("unattributed_s", 0.0)

    def reset_totals(self):
        self.totals = {}
        self.cases_excluded = 0

    def span_rows(self) -> list:
        """The span table as rows: name, start, end, parent span index, case."""
        return [[self.names[self.span_name[i]], self.span_start[i], self.span_end[i],
                 self.span_parent[i], self.span_case[i]]
                for i in range(len(self.span_start))]


def dump_spans(path, rows):
    """Write span rows as gzipped JSON lines."""
    with gzip.open(path, "wt") as out:
        for row in rows:
            out.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the totals
# ---------------------------------------------------------------------------

FUNCTION_METRICS = (
    ("germs.weierstrass_jet", ("calls", "self_s")),
    ("germs.germ_cycles", ("calls", "self_s")),
    ("jets.regenerate", ("calls",)),
    ("foliation.leaf_jet", ("calls", "self_s")),
    ("foliation.iterated_derivative", ("calls",)),
    ("ideals.groebner", ("calls", "self_s")),
    ("ideals.reduce_poly", ("self_s",)),
    ("ideals.attempt_radical", ("self_s",)),
    ("localbasis.mora_normal_form", ("calls", "self_s")),
    ("localbasis.standard_basis", ("self_s",)),
    ("pairs.local_member", ("calls",)),
    ("pairs.verify_pair", ("self_s",)),
    ("pairs.jacobian_extension", ("self_s",)),
    ("germs.split_common", ("self_s",)),
    ("series.up_factor", ("calls",)),
    ("puiseux.expand", ("self_s",)),
    ("series.solve_simple_root", ("self_s",)),
    ("poly.mul", ("calls", "self_s")),
    ("verify.verify_trace", ("self_s",)),
    ("extension.construct_witness", ("self_s",)),
)
# work counts: Budget.spend stage label per metric
STAGE_COUNTS = (("ideals.spairs", "groebner"), ("localbasis.mora_steps", "mora"),
                ("localbasis.sb_pairs", "standard basis"))
RAISED = ("germs", "pairs")


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric name -> (value, unit); counts are whole numbers."""
    spans = totals.get("spans", {})
    counts = totals.get("counts", {})
    out = {}
    for name, fields in FUNCTION_METRICS:
        calls, self_s, _ = spans.get(name, (0, 0.0, 0))
        for field in fields:
            out[f"{name}.{field}"] = (calls, "count") if field == "calls" else (self_s, "s")
    groebner_calls = spans.get("ideals.groebner", (0,))[0]
    hits = counts.get("ideals.groebner.hits", 0)
    out["ideals.groebner.hit_ratio"] = (hits / groebner_calls if groebner_calls else 0.0,
                                        "ratio")
    for metric, stage in STAGE_COUNTS:
        out[metric] = (counts.get(f"budget.{stage}", 0), "count")
    out["jets.max_order"] = (totals.get("max_order", 0), "order")
    out["pairs.retries"] = (counts.get("pairs.retries", 0), "count")
    for layer in LAYERS:
        mine = [v for name, v in spans.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(v[0] for v in mine), "count")
        out[f"{layer}.self_s"] = (sum((v[1] for v in mine), 0.0), "s")
        if layer in RAISED:
            out[f"{layer}.raised"] = (sum(v[2] for v in mine), "count")
    out["trace.unattributed_s"] = (totals.get("unattributed_s", 0.0), "s")
    return out


def count_metrics(metrics: dict) -> dict:
    """The metrics that must repeat exactly between two traced passes."""
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "order", "ratio")}
