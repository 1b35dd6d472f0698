"""RPR011 — ad-hoc clock reads in library code outside the obs layer.

With the span tracer (:mod:`repro.obs`) in place, timing belongs to the
observability layer: a library module that calls ``time.perf_counter`` /
``time.monotonic`` directly re-invents span timing in a shape no report can
merge, and a stray ``time.time`` read is one refactor away from leaking the
wall clock into recorded results (RPR002 already bans the recorded-result
cases; this rule bans the profiling ones too).  Instrument with
``obs.span``/``obs.event``/``obs.add`` instead — the hooks are free when
tracing is off and their output lands in the merged ``trace.json``.

``repro.obs`` itself is exempt (it is where the clock reads live by
design), as are tests and benchmarks (not library code).  ``time.sleep`` is
not a clock *read* and stays allowed (injected ``hang`` faults use it).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext, dotted_name
from repro.lint.rules import Rule
from repro.lint.rules.rpr002_nondeterminism import _import_aliases

__all__ = ["UntracedTimingRule"]

#: Clock reads that belong in ``repro.obs`` (after alias normalisation).
_CLOCK_READS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.time",
        "time.time_ns",
    }
)


def _in_obs_layer(module: str) -> bool:
    return module == "repro.obs" or module.startswith("repro.obs.")


class UntracedTimingRule(Rule):
    code = "RPR011"
    name = "untraced-timing"
    summary = "direct clock read in library code; use repro.obs spans instead"
    invariant = (
        "Timing in library code flows through the observability layer "
        "(obs.span/event/add), so every measured interval lands in the "
        "merged trace; ad-hoc time.perf_counter/time.time reads are "
        "invisible to trace reports and one step from nondeterministic "
        "output."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.is_library or _in_obs_layer(ctx.module):
            return
        aliases = _import_aliases(ctx.tree)

        def normalise(name: str) -> str:
            head, _, tail = name.partition(".")
            origin = aliases.get(head)
            if origin is None:
                return name
            return f"{origin}.{tail}" if tail else origin

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = normalise(dotted_name(node.func))
            if callee in _CLOCK_READS:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"{callee} is a direct clock read; time library code "
                    "through repro.obs (span/event/add) so the interval is "
                    "part of the merged trace",
                )
