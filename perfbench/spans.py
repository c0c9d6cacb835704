"""Spans around calls into each layer's public functions.

The wrappers replace module attributes from outside the program: every
``conifold_flows`` module attribute bound to a traced function is replaced,
so calls the program makes through those names (``integrate`` ->
``rk4_step``, ``write_json`` -> ``dump_json``, ``nonperturbative_potential``
-> ``log_g``) are caught too.  Calls through private helpers are not.
Spans stay in memory; self time is worked out from parent and child spans
when the run ends.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path) -> span name
TARGETS = {
    ("barnes", "log_g"): "barnes.log_g",
    ("barnes", "log_h"): "barnes.log_h",
    ("gw", "difference_equation_report"): "gw.difference_equation_report",
    ("gw", "free_energy_genus"): "gw.free_energy_genus",
    ("specfun", "polylog"): "specfun.polylog",
    ("series", "TruncatedSeries.__mul__"): "series.TruncatedSeries.mul",
    ("series", "TruncatedSeries.substitute"): "series.TruncatedSeries.substitute",
    ("hirota", "first_order_claim_residual"): "hirota.first_order_claim_residual",
    ("hirota", "hirota_residual"): "hirota.hirota_residual",
    ("lattice", "integrate"): "lattice.integrate",
    ("lattice", "rk4_step"): "lattice.rk4_step",
    ("lattice", "conserved_quantity"): "lattice.conserved_quantity",
    ("disp", "evolve_dispersionless"): "disp.evolve_dispersionless",
    ("disp", "flow_rhs"): "disp.flow_rhs",
    ("disp", "check_density_constraint"): "disp.check_density_constraint",
    ("disp", "check_hamiltonian_form"): "disp.check_hamiltonian_form",
    ("reporting", "dump_json"): "reporting.dump_json",
    ("cli", "main"): "cli.main",
}
SPAN_NAMES = tuple(TARGETS.values())


class Tracer:
    """Collects spans ``(id, parent, verdict, name, start, end, failed)``."""

    def __init__(self):
        self.spans = []
        self.verdict = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.verdict, name, start, end, failed))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self, package: str = "conifold_flows") -> None:
        """Replace every module attribute bound to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for (mod_name, path), name in TARGETS.items():
            owner = sys.modules[f"{package}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            # the owner itself covers class aliases such as __rmul__ = __mul__
            for namespace in [owner] + modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, traced)

    def reset(self) -> None:
        self.spans.clear()

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """Cost of one span: a traced no-op call minus a plain one."""
        def noop():
            return None
        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def aggregate(self) -> dict:
        """calls, busy_s (inclusive), self_s (busy minus child spans) and
        failed per span name."""
        child_time = defaultdict(float)
        for _sid, parent, _v, _n, start, end, _f in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
               for name in SPAN_NAMES}
        for sid, _p, _v, name, start, end, failed in self.spans:
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "failed": 0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_time[sid]
            agg["failed"] += int(failed)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,verdict,name,start_s,end_s,failed\n")
            for sid, parent, verdict, name, start, end, failed in self.spans:
                fh.write(f"{sid},{parent},{verdict},{name},{start:.9f},{end:.9f},"
                         f"{int(failed)}\n")
