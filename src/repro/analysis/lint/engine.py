"""Rule engine for ``repro lint`` — AST-based repo invariant checking.

The repo's core contracts (engine bit-identity, cache-key purity, schema
versioning, env-var registration) are documented in ``docs/ARCHITECTURE.md``
and backstopped by differential tests, but those tests run *after* a
simulation; this engine catches the whole violation class statically, at lint
time.  It owns everything rule-agnostic:

* **File scanning** — every ``*.py`` under :data:`SCAN_ROOTS` relative to a
  repository root is read and parsed once into a :class:`SourceFile` (source
  text, AST, ignore-comment map).  Rules never touch the filesystem directly,
  which is what lets the fixture tests in ``tests/test_lint.py`` run every
  rule against a tiny repo-shaped tree in ``tmp_path``.
* **The allowlist mechanism** — a ``# repro-lint: ignore[RL001]`` comment on
  a flagged line suppresses that line's findings for the named rules.
  Unknown rule names in an ignore comment are an **error**
  (:data:`META_RULE_ID`), never silence: a typoed allowlist must not rot into
  an un-enforced invariant.  Malformed ``repro-lint`` comments and files that
  fail to parse error the same way.
* **Reporting** — :class:`LintReport` renders both the human form
  (``path:line: RLxxx message``) and the ``--json`` form consumed by the CI
  artifact upload.

Rules are plain objects registered with :func:`register`; the project rules
live in the sibling modules (``determinism``, ``cache_purity``, ``schema``,
``env_registry``, ``engine_parity``, ``hygiene``) and are imported by the
package ``__init__``, which is also what makes ``run_lint`` see them.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type, Union

#: Rule id reserved for the lint framework itself: unparseable files,
#: malformed ``repro-lint`` comments and unknown rule names in an ignore
#: comment all report under this id.  Meta findings are never suppressible —
#: an ignore comment cannot vouch for its own spelling.
META_RULE_ID = "RL000"

#: Directories (relative to the repository root) scanned for Python sources.
#: ``tests/`` is deliberately absent: the lint fixtures seeded there violate
#: the rules on purpose.
SCAN_ROOTS = ("src/repro", "examples")

#: A well-formed allowlist comment: ``# repro-lint: ignore[RL001]`` or
#: ``# repro-lint: ignore[RL001, RL004]`` anywhere in a comment token.
_IGNORE_RE = re.compile(r"repro-lint:\s*ignore\[([^\]]*)\]")

#: A comment is treated as a lint directive when it contains the marker
#: immediately followed by a colon (which distinguishes directives from prose
#: that merely mentions the tool); a directive that is not a well-formed
#: ignore comment is reported as malformed rather than silently skipped.
_MARKER = "repro-lint"
_DIRECTIVE_RE = re.compile(r"repro-lint\s*:")

#: Shape of a single rule name inside an ignore comment's brackets.
_RULE_NAME_RE = re.compile(r"RL\d{3}\Z")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding: a rule id anchored to a file and line.

    ``path`` is repository-root-relative and POSIX-flavoured, so findings are
    stable across hosts and usable as CI annotations.
    """

    rule: str
    path: str
    line: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable form (the ``--json`` reporter's element type)."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class SourceFile:
    """One scanned Python file: text, AST and the parsed ignore comments.

    Parsing happens eagerly in the constructor; a file that fails to parse
    (or tokenize) records the error instead of raising, and the engine turns
    it into a :data:`META_RULE_ID` finding so a syntax error in a scanned
    file fails the lint run loudly instead of silently shrinking coverage.
    """

    def __init__(self, root: Path, path: Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        #: Line number -> rule ids allowlisted on that line.
        self.ignores: Dict[int, Set[str]] = {}
        #: ``(line, message)`` pairs for malformed ``repro-lint`` comments.
        self.ignore_problems: List[Tuple[int, str]] = []
        self.syntax_error: Optional[str] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(self.text)
        except SyntaxError as error:
            self.tree = None
            self.syntax_error = f"file does not parse: {error.msg} (line {error.lineno})"
            return
        # Every directive contains the marker, and tokenizing is most of a
        # scan's cost, so files that never mention it skip the tokenizer.
        if _MARKER in self.text:
            self._parse_ignore_comments()

    def _parse_ignore_comments(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            # ast.parse succeeded, so this should be unreachable; recorded
            # rather than raised for the same loudness-over-crash reason.
            self.syntax_error = "file does not tokenize"
            return
        for token in tokens:
            if (token.type != tokenize.COMMENT
                    or not _DIRECTIVE_RE.search(token.string)):
                continue
            line = token.start[0]
            match = _IGNORE_RE.search(token.string)
            if match is None:
                self.ignore_problems.append(
                    (line, f"malformed {_MARKER} comment {token.string.strip()!r}; "
                           f"expected '# {_MARKER}: ignore[RL001]'"))
                continue
            names = [name.strip() for name in match.group(1).split(",")]
            names = [name for name in names if name]
            if not names:
                self.ignore_problems.append(
                    (line, f"empty ignore list in {_MARKER} comment"))
                continue
            self.ignores.setdefault(line, set()).update(names)

    def ignored_rules(self, line: int) -> Set[str]:
        """The rule ids allowlisted on ``line`` (empty set when none)."""
        return self.ignores.get(line, set())


class LintContext:
    """Everything a rule may look at: the scanned files and the repo root.

    The root is exposed for the two rules that read non-Python inputs (the
    schema manifest and ``docs/ENVIRONMENT.md``); Python sources must go
    through :meth:`file`/:meth:`files_under` so fixture trees behave exactly
    like the real repository.
    """

    def __init__(self, root: Path, files: Sequence[SourceFile]):
        self.root = root
        self.files = list(files)
        self._by_rel = {source.rel: source for source in self.files}

    def file(self, rel: str) -> Optional[SourceFile]:
        """The scanned file at root-relative POSIX path ``rel``, or None."""
        return self._by_rel.get(rel)

    def files_under(self, *prefixes: str) -> Iterator[SourceFile]:
        """Every scanned file whose path starts with one of ``prefixes``."""
        for source in self.files:
            if any(source.rel.startswith(prefix) for prefix in prefixes):
                yield source


class Rule:
    """Base class for lint rules: an id, a one-line title, and a check.

    Subclasses set :attr:`id`/:attr:`title` and implement :meth:`check`
    yielding :class:`Finding` objects; the engine owns ignore-comment
    suppression, ordering and reporting.
    """

    #: Unique rule identifier (``RL`` + three digits), used in ignore comments.
    id: str = ""
    #: One-line description shown by reporters and ``--json`` output.
    title: str = ""

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        """Yield every finding for this rule over the scanned tree."""
        raise NotImplementedError


#: Registry of project rules in registration (= display) order.
_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (instantiated once) to the registry."""
    rule = rule_cls()
    if not _RULE_NAME_RE.match(rule.id or ""):
        raise ValueError(f"rule id {rule.id!r} does not match RLxxx")
    if rule.id in _REGISTRY or rule.id == META_RULE_ID:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    """The registered project rules, id -> instance, in registration order."""
    return dict(_REGISTRY)


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run: findings plus enough context to act on them."""

    root: str
    rules: List[str]
    files_scanned: int
    findings: List[Finding]

    @property
    def ok(self) -> bool:
        """True when the run produced no findings."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """The ``--json`` payload (uploaded as a CI artifact)."""
        return {
            "root": self.root,
            "rules": list(self.rules),
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def render(self) -> str:
        """The human-readable report: one line per finding plus a summary."""
        lines = [str(finding) for finding in self.findings]
        if self.findings:
            lines.append(f"repro lint: {len(self.findings)} finding(s) in "
                         f"{self.files_scanned} scanned file(s) "
                         f"(rules: {', '.join(self.rules)})")
        else:
            lines.append(f"repro lint: clean ({self.files_scanned} file(s) "
                         f"scanned, rules: {', '.join(self.rules)})")
        return "\n".join(lines)


def _scan_files(root: Path) -> List[SourceFile]:
    files: List[SourceFile] = []
    for scan_root in SCAN_ROOTS:
        base = root / scan_root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            files.append(SourceFile(root, path))
    return files


def load_context(root: Union[str, Path]) -> LintContext:
    """Scan the tree at ``root`` into a :class:`LintContext`.

    The same scan :func:`run_lint` performs, exposed so callers needing rule
    internals against a live tree — the manifest writer, the in-memory drift
    tests — share one file-collection path with the real lint run.
    """
    root = Path(root)
    return LintContext(root, _scan_files(root))


def _meta_findings(files: Sequence[SourceFile], known: Set[str]) -> Iterator[Finding]:
    """Framework-level findings: parse failures and broken ignore comments."""
    for source in files:
        if source.syntax_error is not None:
            yield Finding(META_RULE_ID, source.rel, 1, source.syntax_error)
        for line, message in source.ignore_problems:
            yield Finding(META_RULE_ID, source.rel, line, message)
        for line, names in sorted(source.ignores.items()):
            for name in sorted(names - known):
                yield Finding(
                    META_RULE_ID, source.rel, line,
                    f"unknown rule {name!r} in ignore comment (known rules: "
                    f"{', '.join(sorted(known))}); a typo here would silently "
                    f"disable nothing — fix the name or drop the comment")


def run_lint(root: Union[str, Path],
             rule_ids: Optional[Sequence[str]] = None) -> LintReport:
    """Run the (selected) registered rules over the tree at ``root``.

    ``rule_ids=None`` runs every registered rule; an explicit selection must
    name known rules (:class:`ValueError` otherwise — a typoed ``--rule`` must
    not report a clean run it never performed).  Meta checks (ignore-comment
    hygiene, parse failures) always run regardless of the selection, so an
    unknown rule name in an allowlist comment is an error even when linting a
    single rule.  Findings on a line carrying ``# repro-lint: ignore[<id>]``
    for their rule id are suppressed; :data:`META_RULE_ID` findings are not
    suppressible.
    """
    root = Path(root)
    registry = all_rules()
    if rule_ids is None:
        selected = list(registry.values())
    else:
        unknown = sorted(set(rule_ids) - set(registry))
        if unknown:
            raise ValueError(f"unknown lint rules {unknown}; "
                             f"available: {sorted(registry)}")
        # Preserve registry order regardless of the selection's order.
        selected = [rule for rid, rule in registry.items() if rid in set(rule_ids)]
    files = _scan_files(root)
    ctx = LintContext(root, files)
    known = set(registry) | {META_RULE_ID}
    findings = list(_meta_findings(files, known))
    for rule in selected:
        for finding in rule.check(ctx):
            source = ctx.file(finding.path)
            if source is not None and finding.rule in source.ignored_rules(finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.rule,
                                       finding.message))
    return LintReport(root=str(root),
                      rules=[rule.id for rule in selected],
                      files_scanned=len(files),
                      findings=findings)


def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted form of a Name/Attribute chain (``a.b.c``), else None.

    Chains not rooted at a plain name (calls, subscripts) return None —
    shared by several rules, which match banned APIs by dotted suffix.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))
