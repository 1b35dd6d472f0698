"""Command-line front end for ``repro lint``.

Two equivalent entry points share this module: the ``repro-lint`` console
script and ``python -m repro.lint``.  Output is a sorted stream of
``path:line:col: CODE message`` lines on stdout and a one-line summary on
stderr; the exit code is ``0`` for a clean tree, ``1`` when diagnostics
were emitted and ``2`` for usage errors — all a pure function of the
linted file contents, never of traversal or scheduling order.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import lint_paths

__all__ = ["main", "build_parser"]


def build_parser(prog: str = "repro-lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Static analysis for the reproduction's determinism and "
            "process-safety invariants (rules RPR001, RPR002, RPR003, RPR005, "
            "RPR008 and RPR011; see --list)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directory trees to lint (e.g. src/ tests/ benchmarks/)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="print the rule registry (code, name, invariant) and exit",
    )
    return parser


def _print_rules() -> None:
    from repro.lint.rules import ALL_RULES

    print("repro lint rules:")
    for rule in ALL_RULES:
        print(f"  {rule.code}  {rule.name:<22} {rule.summary}")
        print(f"          {' ' * 22} {rule.invariant}")
    print(
        "\nSuppress a finding with "
        "'# repro-lint: disable=RPRxxx -- <justification>' on (or above) "
        "the offending line; the justification text is required."
    )


def main(argv: list[str] | None = None, prog: str = "repro-lint") -> int:
    args = build_parser(prog=prog).parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    if not args.paths:
        print(f"{prog}: no paths given (try: {prog} src/ tests/ benchmarks/)", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"{prog}: path does not exist: {path}", file=sys.stderr)
        return 2
    diagnostics = lint_paths(args.paths)
    for diagnostic in diagnostics:
        print(diagnostic.render())
    if diagnostics:
        print(f"{prog}: {len(diagnostics)} problem(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
