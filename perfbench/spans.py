"""Wrappers installed around flagample's functions from the outside.

`Patches` swaps a function for a wrapper in every flagample module that
holds it under some name (the package re-exports and the modules that
imported it by name), and puts the originals back on `remove`.

`SpanTracer` records the self time of each span: its duration minus the
time its wrapped callees took.  `Counter` counts calls and work; it is
used in a separate pass, because it wraps functions called millions of
times and would distort the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Timed spans: (module, attribute) -> per-layer metric.  Leaf functions
# called per root pair (pair, reflect) are deliberately absent.
SPANS = {
    ("rootsystem", "build_root_system"): "rootsystem.build_s",
    ("realform", "grade_roots"): "realform.grade_s",
    ("realform", "hermitian_data"): "realform.hermitian_s",
    ("cycle", "parabolic_data"): "cycle.parabolic_s",
    ("cycle", "neutral_fiber"): "cycle.parabolic_s",
    ("snow", "assemble_input"): "snow.assemble_s",
    ("snow", "ampleness"): "snow.ampleness_self_s",
    ("snow", "max_weyl_length_fast"): "snow.fast_s",
    ("snow", "max_weyl_length_bruteforce"): "snow.bruteforce_s",
    ("weyl", "SubsystemContext.__init__"): "weyl.context_s",
    ("weyl", "group_order_from_simples"): "weyl.group_order_s",
    ("weyl", "_enumerate"): "weyl.enumerate_self_s",
    ("kernels", "enumerate_group"): "kernels.enumerate_s",
    ("classify", "classify"): "classify.classify_s",
    ("pipeline", "run_case"): "pipeline.run_case_self_s",
    ("pipeline", "run_table"): "pipeline.table_s",
    ("cli", "_table_json"): "cli.render_s",
}

SPAN_METRICS = tuple(dict.fromkeys(SPANS.values()))

COUNTS = (
    "rootsystem.reflect_calls",
    "rootsystem.pair_calls",
    "weyl.contexts",
    "snow.fast_pairs",
    "snow.oracle_runs",
    "snow.oracle_skipped",
    "kernels.elements",
    "pipeline.cases",
)


def _flagample_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "flagample" or name.startswith("flagample."))]


class Patches:
    """Replacements made in flagample's module namespaces, undoable."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, attr: str, make):
        """Replace flagample.<module>.<attr> (a function, or Class.method)
        by make(original) wherever a flagample module binds it."""
        mod = sys.modules[f"flagample.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for m in _flagample_modules():
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, new)
                    self._undo.append((m, name, orig))

    def remove(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()


class SpanTracer:
    """Self time per span metric, accumulated over a run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self._children = []  # one accumulator of callee time per open span

    def install(self, patches: Patches):
        for (module, attr), metric in SPANS.items():
            patches.wrap(module, attr, functools.partial(self._span, metric))

    def _span(self, metric, fn):
        stack = self._children
        totals = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                totals[metric] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper


class Counter:
    """Call and work counts of one count-only pass."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)

    def _calls(self, metric):
        c = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                c[metric] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install_oracle(self, patches: Patches):
        """Only snow.oracle_runs: one call per verified case."""
        patches.wrap("snow", "max_weyl_length_bruteforce",
                     self._calls("snow.oracle_runs"))

    def install(self, patches: Patches):
        c = self.counts
        calls = self._calls

        def enumerate_group(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                c["kernels.elements"] += len(out[1])  # one parent per element
                return out
            return wrapper

        def ampleness(fn):
            @functools.wraps(fn)
            def wrapper(inp, method="auto", verify=False, *args, **kwargs):
                before = c["snow.oracle_runs"]
                out = fn(inp, method, verify, *args, **kwargs)
                if verify and c["snow.oracle_runs"] == before:
                    c["snow.oracle_skipped"] += 1
                return out
            return wrapper

        patches.wrap("rootsystem", "reflect", calls("rootsystem.reflect_calls"))
        patches.wrap("rootsystem", "pair", calls("rootsystem.pair_calls"))
        patches.wrap("weyl", "SubsystemContext.__init__", calls("weyl.contexts"))
        patches.wrap("weyl", "_max_length_with_witness", calls("snow.fast_pairs"))
        self.install_oracle(patches)
        patches.wrap("snow", "ampleness", ampleness)
        patches.wrap("kernels", "enumerate_group", enumerate_group)
        patches.wrap("pipeline", "run_case", calls("pipeline.cases"))
