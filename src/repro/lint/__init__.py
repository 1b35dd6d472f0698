"""Determinism and process-safety static analysis (``repro lint``).

An AST-based lint pass encoding the invariants the reproduction's
bit-identity guarantees rest on — child-stream RNG discipline, no global
RNG or wall-clock reads in library code, picklable pool tasks,
checksum-stamped artifact writes, no runtime-mutated module globals in
library code, and timing through the observability layer.  Each rule
carries a code (RPR001, RPR002, RPR003, RPR005, RPR008, RPR011), checks one
file at a time, and can be suppressed per line with
``# repro-lint: disable=RPRxxx -- <justification>``.

Run it as ``repro-lint src/`` or ``python -m repro.lint src/``.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import lint_file, lint_paths, lint_source

__all__ = ["Diagnostic", "lint_file", "lint_paths", "lint_source"]
