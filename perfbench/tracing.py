"""Per-layer spans, recorded from outside the program.

install() wraps uniprior's public functions wherever a module holds them
(for example `prune` in graphcore, codegen, enumeration and cli), so every
call through the package records a span: name, start, end, parent.  SpanBasis
constructions are counted, not timed.  Spans stay in memory; layer_metrics()
turns them into the per-layer figures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# metric prefix -> functions recorded under it, as "module.attribute"
LAYERS = {
    "graphcore.parse": ("graphcore.parse_problem", "graphcore.parse_problem_text"),
    "graphcore.reduce": ("graphcore.reduce_to_square",),
    "graphcore.flow_graph": ("graphcore.build_flow_graph",),
    "graphcore.prune": ("graphcore.prune",),
    "codegen.tree_tables": ("codegen._tree_search_tables",),
    "codegen.tree_search": ("codegen.min_max_spanning_tree",),
    "codegen.build": ("codegen.build_index_code",),
    "codegen.plan": ("codegen.decoding_plan",),
    "enumeration.optimal_length": ("enumeration.optimal_length",),
    "enumeration.enumerate": ("enumeration.enumerate_optimal_codes",),
    "enumeration.classify": ("enumeration.classify_codes",),
    "channelsim.resolve": ("channelsim.resolve_code_selector",),
    "channelsim.simulate": ("channelsim.simulate_bep",),
    "channelsim.csv": ("channelsim.records_to_csv",),
    "cli.main": ("cli.main",),
}
# Generators run their body while the consumer's span is open; their time is
# charged to them and taken out of the consumer's.
PRODUCERS = {"enumeration.enumerate"}


def _work_done(name, args, result) -> int:
    """Units of work a call completed, for the per-layer rates."""
    if name == "codegen.plan":
        return len(result.entries)
    if name == "channelsim.simulate":
        problem, config = args[0], args[3]
        return config.trials * len(config.snr_points_db) * problem.m
    return 0


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, work]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, 0])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, record):
        record[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        tracer = self

        if name in PRODUCERS:

            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    return inner

                def drive():
                    while True:
                        record = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(record)
                        yield item

                return drive()

        else:

            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                record = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(record)
                record[4] = _work_done(name, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def install() -> Tracer:
    """Wrap every traced function under every uniprior module that holds it."""
    from uniprior import fields

    tracer = Tracer()
    modules = [mod for key, mod in sys.modules.items() if key.startswith("uniprior.")]
    for name, targets in LAYERS.items():
        for target in targets:
            home, attr = target.split(".")
            original = getattr(sys.modules[f"uniprior.{home}"], attr)
            traced = tracer.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    base = fields.SpanBasis

    class CountingSpanBasis(base):
        def __init__(self, *args, **kwargs):
            if tracer.active:
                tracer.counts["fields.span_basis_builds"] += 1
            super().__init__(*args, **kwargs)

    for mod in modules:
        if getattr(mod, "SpanBasis", None) is base:
            mod.SpanBasis = CountingSpanBasis
    return tracer


def layer_times(spans) -> tuple[Counter, Counter, Counter]:
    """(seconds, calls, work) per layer name.

    A span nested in a span of the same name is not counted again; producer
    spans are subtracted from their consumer; cli.main keeps only its self
    time, what its wrapped children do not cover.
    """
    seconds, calls, work = Counter(), Counter(), Counter()
    for record in spans:
        name, start, end, parent, done = record
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor >= 0:
            continue
        seconds[name] += end - start
        calls[name] += 1
        work[name] += done
        if parent >= 0 and (name in PRODUCERS or spans[parent][0] == "cli.main"):
            seconds[spans[parent][0]] -= end - start
    return seconds, calls, work
