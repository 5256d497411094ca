"""Spans around the package's layer entry points, recorded from outside.

``Tracer.install`` replaces module-level names with timing wrappers: the
public functions the benchmark calls, and the names one module calls in
another through its own globals (``mvmt.harness.evaluate``,
``mvmt.solver.solve_pp`` and so on).  ``Tracer.restore`` puts every
original back.

A span holds its name, start, end, parent span and item id, and all spans
stay in memory until the run ends.  Boundaries crossed once per atom
(``mvmt.solver.evaluate``) are aggregated into their parent span as a call
count and a total time instead of one span per call.  ``trace.overhead_ratio``
reports what all the wrappers cost, these included.
"""

from __future__ import annotations

import time

import mvmt.algebra
import mvmt.harness
import mvmt.morphisms
import mvmt.solver
import mvmt.syntax

# (module, attribute, layer span name, aggregated into the parent span)
WRAPPED = (
    (mvmt.harness, "check_product_preservation", "harness.suite", False),
    (mvmt.harness, "check_hom_preservation", "harness.suite", False),
    (mvmt.harness, "check_ep_preservation", "harness.suite", False),
    (mvmt.harness, "gen_chain", "harness.gen", False),
    (mvmt.harness, "gen_language", "harness.gen", False),
    (mvmt.harness, "gen_structure", "harness.gen", False),
    (mvmt.harness, "gen_pp_formula", "harness.gen", False),
    (mvmt.harness, "evaluate", "structures.evaluate", False),
    (mvmt.harness, "find_homomorphisms", "morphisms.find", False),
    (mvmt.harness, "direct_product", "products.build", False),
    (mvmt.harness, "weak_product", "products.build", False),
    (mvmt.harness, "make_lukasiewicz", "algebra.chain", False),
    (mvmt.harness, "make_godel", "algebra.chain", False),
    (mvmt.algebra, "make_lukasiewicz", "algebra.chain", False),
    (mvmt.algebra, "make_godel", "algebra.chain", False),
    (mvmt.morphisms, "find_homomorphisms", "morphisms.find", False),
    (mvmt.solver, "solve_pp", "solver.solve_pp", False),
    (mvmt.solver, "decide_pp_top", "solver.decide_pp_top", False),
    (mvmt.solver, "solve_ep", "solver.solve_ep", False),
    (mvmt.solver, "classify", "syntax.classify", False),
    (mvmt.solver, "ep_to_pp_disjunction", "syntax.ep_to_pp_disjunction", False),
    (mvmt.solver, "evaluate", "structures.evaluate", True),
    (mvmt.syntax, "parse_formula", "syntax.parse", False),
)


# Work counted from a layer's result; only this summary is kept, never the
# result itself.
WORK = {
    "harness.suite": lambda report: (report.effective, report.trials),
    "morphisms.find": len,
    "products.build": lambda struct: len(struct.domain),
    "solver.solve_pp": lambda result: result.decided_top,
    "syntax.ep_to_pp_disjunction": len,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "result", "aggregated")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.result = None
        # name -> [calls, seconds] of aggregated child boundaries, if any
        self.aggregated = None


class Tracer:
    """Records spans while installed; ``install`` and ``restore`` may be
    called any number of times, and the spans accumulate."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[Span] = []
        self._names = []
        for module, attr, name, aggregated in WRAPPED:
            original = getattr(module, attr)
            wrapper = (self._aggregate if aggregated else self._wrap)(name, original)
            self._names.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None, self.item)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.result = work(result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def _aggregate(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                # Aggregated names are only reached from inside a span.
                parent = stack[-1]
                if parent.aggregated is None:
                    parent.aggregated = {}
                entry = parent.aggregated.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return counted

    def install(self) -> None:
        for module, attr, _, wrapper in self._names:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self._names:
            setattr(module, attr, original)

    def layers(self) -> dict[str, dict]:
        """Per layer name: calls, total self seconds, and the work summary
        of each call (see ``WORK``)."""
        out: dict[str, dict] = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "self_s": 0.0, "results": []})

        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_time[key] = child_time.get(key, 0.0) + span.end - span.start
        for span in self.spans:
            e = entry(span.name)
            e["calls"] += 1
            children = child_time.get(id(span), 0.0)
            for name, (calls, seconds) in (span.aggregated or {}).items():
                a = entry(name)
                a["calls"] += calls
                a["self_s"] += seconds
                children += seconds
            e["self_s"] += span.end - span.start - children
            e["results"].append(span.result)
        return out
