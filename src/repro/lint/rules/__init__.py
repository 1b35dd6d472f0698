"""Rule registry for ``repro lint``.

Each rule module defines one :class:`Rule` subclass encoding a single
invariant the reproduction depends on (see the README's "Static analysis"
section for the bug history behind each).  Every rule checks one parsed
file at a time.  ``ALL_RULES`` is sorted by code so registry dumps and
engine iteration order are deterministic.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext

__all__ = ["Rule", "ALL_RULES", "rules_table"]


class Rule:
    """One lint rule: a code, a short name, and a per-file check."""

    code: str = "RPR???"
    name: str = "unnamed"
    #: One-line summary shown by ``repro lint --list`` and ``--list`` dumps.
    summary: str = ""
    #: The invariant the rule protects, for the long-form registry dump.
    invariant: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:  # pragma: no cover
        raise NotImplementedError


def _load_rules() -> tuple[Rule, ...]:
    from repro.lint.rules.rpr001_seed_aliasing import SeedAliasingRule
    from repro.lint.rules.rpr002_nondeterminism import NondeterminismRule
    from repro.lint.rules.rpr003_process_safety import ProcessSafetyRule
    from repro.lint.rules.rpr005_raw_writes import RawArtifactWriteRule
    from repro.lint.rules.rpr008_shared_state import SharedMutableStateRule
    from repro.lint.rules.rpr011_untraced_timing import UntracedTimingRule

    rules = (
        SeedAliasingRule(),
        NondeterminismRule(),
        ProcessSafetyRule(),
        RawArtifactWriteRule(),
        SharedMutableStateRule(),
        UntracedTimingRule(),
    )
    return tuple(sorted(rules, key=lambda rule: rule.code))


ALL_RULES: tuple[Rule, ...] = _load_rules()


def rules_table() -> list[tuple[str, str, str]]:
    """``(code, name, summary)`` rows for registry dumps, sorted by code."""
    return [(rule.code, rule.name, rule.summary) for rule in ALL_RULES]
