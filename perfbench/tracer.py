"""Outside-in tracing of the bvfsm layers for the benchmark.

The tracer never edits the library.  It swaps the module attributes that
``bvfsm.solver`` and ``bvfsm.baselines`` look up at call time for spanning
wrappers, and rebuilds a problem with every oracle wrapped in a counting
``ScalarField``.  The attributes are put back in ``finally``, so after
``patched`` exits the library is exactly as it was imported.

A span is recorded for each wrapped call: name, start, end, parent span, the
root span it belongs to, the time its children cover (child spans and oracle
calls) and the oracle calls it made directly.  Spans stay in memory until the
caller aggregates or writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

from bvfsm.core import BilevelProblem, ScalarField

# (module, attribute, span name).  Each attribute is a module-level name that
# the library resolves when it is called, so rebinding it reroutes every call.
TARGETS = (
    ("bvfsm.solver", "solve_inner", "solver.solve_inner"),
    ("bvfsm.solver", "solve_regularized_ll", "solver.z_solve"),
    ("bvfsm.solver", "solve_penalized_inner", "solver.y_solve"),
    ("bvfsm.solver", "ul_gradient_for", "solver.chain_rule"),
    ("bvfsm.solver", "schedule_step", "auxfun.schedule_step"),
    ("bvfsm.baselines", "ll_descent", "baselines.ll_descent"),
    ("bvfsm.baselines", "cg_hypergradient", "baselines.cg"),
    ("bvfsm.baselines", "neumann_hypergradient", "baselines.neumann"),
    ("bvfsm.baselines", "hvp", "baselines.hvp"),
)

# Oracle roles: F is the UL objective, f the LL objective, H and h the UL and
# LL constraints.  Metric names spell them F_ul, f_ll, H_ul, h_ll so that no
# two names differ only by case.
ROLE_TOKENS = {"F": "F_ul", "f": "f_ll", "H": "H_ul", "h": "h_ll"}


@dataclass
class Span:
    name: str
    index: int  # position in Tracer.spans, which is start order
    parent: int  # index of the parent span, -1 for a root
    root: int  # index of the root span
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and oracle calls
    oracle_s: float = 0.0  # time of oracle calls made directly in this span
    calls: Counter = field(default_factory=Counter)  # (role, kind) -> direct oracle calls

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans and per-layer oracle counts; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # -- spans --------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, index, parent.index if parent else -1,
                    parent.root if parent else index)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.duration

    def wrap(self, name, fn):
        def spanned(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        spanned.__wrapped__ = fn
        spanned.__name__ = getattr(fn, "__name__", name)
        return spanned

    # -- oracles ------------------------------------------------------------

    def _counting(self, fn, role, kind):
        key = (role, kind)
        stack = self._stack
        clock = time.perf_counter

        def counted(x, y):
            t0 = clock()
            try:
                return fn(x, y)
            finally:
                dt = clock() - t0
                if stack:  # every counted problem is used inside a root span
                    top = stack[-1]
                    top.calls[key] += 1
                    top.oracle_s += dt
                    top.child_s += dt

        return counted

    def counting_field(self, fld: ScalarField, role: str) -> ScalarField:
        return dataclasses.replace(
            fld,
            fn=self._counting(fld.fn, role, "val"),
            grad_x=self._counting(fld.grad_x, role, "gx"),
            grad_y=self._counting(fld.grad_y, role, "gy"),
        )

    def counting_problem(self, problem: BilevelProblem) -> BilevelProblem:
        """The same problem with every oracle closure counted and timed."""
        return dataclasses.replace(
            problem,
            F=self.counting_field(problem.F, "F"),
            f=self.counting_field(problem.f, "f"),
            ul_constraints=tuple(self.counting_field(H, "H") for H in problem.ul_constraints),
            ll_constraints=tuple(self.counting_field(h, "h") for h in problem.ll_constraints),
        )

    # -- output -------------------------------------------------------------

    def write_csv(self, path):
        """One line per span; roots have parent -1."""
        lines = ["index,name,start_s,end_s,parent,root,self_s,oracle_s,oracle_calls"]
        t0 = self.spans[0].start if self.spans else 0.0
        for s in self.spans:
            lines.append(f"{s.index},{s.name},{s.start - t0!r},{s.end - t0!r},{s.parent},"
                         f"{s.root},{s.self_s!r},{s.oracle_s!r},{sum(s.calls.values())}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every TARGETS attribute through ``tracer`` for the duration."""
    saved = []
    try:
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
