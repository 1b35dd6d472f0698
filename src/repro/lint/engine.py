"""AST-based lint engine for the reproduction's determinism invariants.

The engine owns everything rule-independent: discovering Python files,
parsing them once into a :class:`FileContext`, running every registered rule,
applying ``# repro-lint: disable=RPRxxx`` suppression comments, and sorting
the surviving diagnostics into a deterministic order.

Suppression syntax
------------------
A comment of the form::

    # repro-lint: disable=RPR001 -- justification text

disables the listed codes (comma-separated for several) on its own line —
or, when the comment stands alone on a line, on the next line as well.  The
justification text after the codes is **mandatory**: a suppression without
one is itself reported as ``RPR000``, so every silenced finding carries its
reasoning next to the code it silences.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.diagnostics import META_CODE, Diagnostic

__all__ = [
    "FileContext",
    "Suppression",
    "dotted_name",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
]


# --------------------------------------------------------------------------- #
# Shared AST helpers                                                          #
# --------------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> str:
    """Dotted name of an attribute/name chain (``np.random.default_rng``).

    Returns ``""`` for anything that is not a pure ``Name``/``Attribute``
    chain (subscripts, calls, literals), so callers can match on prefixes
    and suffixes without special-casing exotic expressions.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_name_for(path: Path) -> str:
    """Dotted module path for ``path`` when it lives under a ``repro`` tree.

    ``src/repro/utils/rng.py`` → ``repro.utils.rng``; files outside any
    ``repro`` package directory (tests, benchmarks, fixtures) map to ``""``,
    which the rules treat as "not library code".
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return ""
    start = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[start:]
    tail[-1] = Path(tail[-1]).stem
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


# --------------------------------------------------------------------------- #
# Suppressions                                                                #
# --------------------------------------------------------------------------- #
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*)(?P<rest>.*)$"
)


@dataclass(frozen=True)
class Suppression:
    """One ``# repro-lint: disable=...`` comment, already parsed.

    ``covers`` holds the line numbers the suppression applies to: its own
    line for a trailing comment, or — for a comment standing alone on its
    line — the next code line, skipping over blank lines and the rest of a
    multi-line comment block so justifications can run long.
    """

    line: int
    codes: frozenset[str]
    justified: bool
    covers: frozenset[int]


def _parse_suppressions(source: str) -> list[Suppression]:
    lines = source.splitlines()
    found: list[Suppression] = []
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = frozenset(
            code.strip() for code in match.group("codes").split(",") if code.strip()
        )
        justification = match.group("rest").strip().lstrip("-—:").strip()
        covers = {lineno}
        if text[: match.start()].strip() == "":
            # Standalone comment: extend to the next code line so a
            # justification may continue across further comment lines.
            for offset, following in enumerate(lines[lineno:], start=lineno + 1):
                stripped = following.strip()
                if stripped and not stripped.startswith("#"):
                    covers.add(offset)
                    break
        found.append(
            Suppression(
                line=lineno,
                codes=codes,
                justified=bool(justification),
                covers=frozenset(covers),
            )
        )
    return found


# --------------------------------------------------------------------------- #
# Per-file context                                                            #
# --------------------------------------------------------------------------- #
@dataclass
class FileContext:
    """Everything a rule needs to check one parsed Python file."""

    path: str
    source: str
    tree: ast.Module
    #: Dotted module path under the ``repro`` package, ``""`` otherwise.
    module: str
    suppressions: list[Suppression] = field(default_factory=list)

    @property
    def is_library(self) -> bool:
        """True for files that ship inside the ``repro`` package."""
        return self.module.startswith("repro")

    def diagnostic(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


def _suppressed(ctx: FileContext, diag: Diagnostic) -> bool:
    return any(
        diag.code in suppression.codes and diag.line in suppression.covers
        for suppression in ctx.suppressions
    )


# --------------------------------------------------------------------------- #
# Running rules                                                               #
# --------------------------------------------------------------------------- #
def _context_for_source(source: str, path: str, module: str) -> FileContext | list[Diagnostic]:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code=META_CODE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    return FileContext(
        path=path, source=source, tree=tree, module=module,
        suppressions=_parse_suppressions(source),
    )


def _run_rules(ctx: FileContext, codes: frozenset[str] | None) -> list[Diagnostic]:
    from repro.lint.rules import ALL_RULES

    diagnostics: list[Diagnostic] = []
    for suppression in ctx.suppressions:
        if not suppression.justified:
            diagnostics.append(
                Diagnostic(
                    path=ctx.path,
                    line=suppression.line,
                    col=1,
                    code=META_CODE,
                    message=(
                        "suppression comment has no justification; write "
                        "'# repro-lint: disable=RPRxxx -- <why this is safe>'"
                    ),
                )
            )
    for rule in ALL_RULES:
        if codes is not None and rule.code not in codes:
            continue
        for diag in rule.check(ctx):
            if not _suppressed(ctx, diag):
                diagnostics.append(diag)
    return sorted(diagnostics)


def lint_source(
    source: str,
    path: str = "<snippet>",
    module: str = "repro.fixture",
    codes: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint a source string (the test-fixture entry point).

    ``module`` controls the library/blessed-module treatment: the default
    makes the snippet count as library code so every rule applies; pass
    ``""`` to lint it as a script/test file.  ``codes`` optionally restricts
    the run to a subset of rule codes.
    """
    ctx = _context_for_source(source, path=path, module=module)
    if isinstance(ctx, list):
        return ctx
    return _run_rules(ctx, frozenset(codes) if codes is not None else None)


def lint_file(path: Path, display: str | None = None) -> list[Diagnostic]:
    """Lint one file on disk; unreadable/unparsable files yield ``RPR000``."""
    shown = display if display is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [
            Diagnostic(
                path=shown, line=1, col=1, code=META_CODE,
                message=f"cannot read file: {exc}",
            )
        ]
    ctx = _context_for_source(source, path=shown, module=module_name_for(path))
    if isinstance(ctx, list):
        return ctx
    return _run_rules(ctx, None)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files.

    Directories are walked recursively with sorted traversal so the file
    order (and therefore the diagnostic order and exit code) never depends
    on filesystem enumeration order.
    """
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(paths: Sequence[Path]) -> list[Diagnostic]:
    """Lint files and directory trees; diagnostics come back fully sorted."""
    diagnostics: list[Diagnostic] = []
    cwd = Path.cwd().resolve()
    for candidate in iter_python_files(paths):
        resolved = candidate.resolve()
        try:
            display = str(resolved.relative_to(cwd))
        except ValueError:
            display = str(candidate)
        diagnostics.extend(lint_file(candidate, display=display))
    return sorted(diagnostics)
