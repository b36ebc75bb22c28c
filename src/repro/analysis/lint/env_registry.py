"""RL004 — every ``REPRO_*`` env var must be registered in the docs, and vice versa.

``docs/ENVIRONMENT.md`` is the authoritative contract for runtime knobs: each
row states the variable's consumer, default, cache-key relevance and
malformed-value behaviour.  The contract only works if it is complete in both
directions — a knob read in code but missing a row is undocumented behaviour,
and a row whose variable nothing reads any more is doc rot (exactly the drift
class the PR 7 stale-docstring episode demonstrated).

The code side is collected from the AST: every string literal that *is* a
``REPRO_*`` name (full match, so prose mentioning a variable inside a longer
docstring does not count) in any scanned source: ``src/repro`` and
``examples/``.  The docs side is the ``| `REPRO_X` | ...`` table rows.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Tuple

from repro.analysis.lint.engine import Finding, LintContext, Rule, register

#: Repo-relative path of the registry this rule reconciles against.
DOCS_REL = "docs/ENVIRONMENT.md"

#: A string literal that *is* an env-var name (not prose mentioning one).
_ENV_NAME_RE = re.compile(r"REPRO_[A-Z0-9_]+\Z")

#: A registry table row:  ``| `REPRO_X` | consumer | ...``.
_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`")


def _code_references(ctx: LintContext) -> Dict[str, List[Tuple[str, int]]]:
    """Every ``REPRO_*`` literal in scanned sources: name -> [(path, line)]."""
    references: Dict[str, List[Tuple[str, int]]] = {}
    for source in ctx.files:
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _ENV_NAME_RE.fullmatch(node.value)):
                references.setdefault(node.value, []).append(
                    (source.rel, node.lineno))
    return references


def _documented_rows(ctx: LintContext) -> Dict[str, int]:
    """Registry rows in ``docs/ENVIRONMENT.md``: variable name -> line number."""
    rows: Dict[str, int] = {}
    path = ctx.root / DOCS_REL
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return rows
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _ROW_RE.match(line.strip())
        if match and match.group(1) not in rows:
            rows[match.group(1)] = lineno
    return rows


@register
class EnvRegistryRule(Rule):
    """Reconcile ``REPRO_*`` reads in code with the docs/ENVIRONMENT.md table."""

    id = "RL004"
    title = ("every REPRO_* variable read in code needs a docs/ENVIRONMENT.md "
             "row, and every row a reader")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        """Two-way diff of code references against registry rows."""
        references = _code_references(ctx)
        rows = _documented_rows(ctx)
        if not rows and references:
            yield Finding(self.id, DOCS_REL, 1,
                          f"{DOCS_REL} missing or has no registry rows while "
                          f"{len(references)} REPRO_* variable(s) are read in "
                          f"code: {', '.join(sorted(references))}")
            return
        for name in sorted(set(references) - set(rows)):
            path, line = references[name][0]
            yield Finding(
                self.id, path, line,
                f"{name} is read here but has no row in {DOCS_REL}; every "
                f"runtime knob must document its default, cache-key "
                f"relevance and malformed-value behaviour")
        for name in sorted(set(rows) - set(references)):
            yield Finding(
                self.id, DOCS_REL, rows[name],
                f"{name} is documented but nothing under "
                f"src/repro or examples/ reads it; drop the row "
                f"or restore the reader")
