"""RL003 — serialized ``to_dict`` key sets must not drift without a schema bump.

Every record persisted by the cache layer round-trips through a ``to_dict``
method, and the compatibility contract (``docs/ARCHITECTURE.md``) says any
timing-affecting serialization change must bump the version that guards it —
``SCHEMA_VERSION`` (cache entries) or ``WAREHOUSE_SCHEMA_VERSION`` (warehouse
rows), the constants named in :data:`VERSION_SOURCES` — so stale entries
read as misses instead of decoding wrongly.  Prose contracts drift; this
rule makes the contract mechanical:

* The key set of every ``to_dict`` in :data:`SERIALIZED_MODULES` is
  extracted from the AST (string keys of returned dict literals, ``d["k"] =``
  assignments, plus dataclass field names when the method builds on
  ``dataclasses.asdict``).
* The result is compared against the committed manifest
  (:data:`MANIFEST_REL`).  Key drift while the schema versions are unchanged
  is a finding; a version bump in the same tree unlocks the drift but then
  *requires* refreshing the manifest (``repro lint --refresh-manifest``), so
  the committed manifest always records the current versions and key sets.

The runtime backstop is ``tests/test_serialization.py``'s round-trip suite:
it proves values survive; this rule proves the *shape* cannot change
unnoticed.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.lint.engine import (
    Finding,
    LintContext,
    Rule,
    dotted_name,
    register,
)

#: Repo-relative path of the committed manifest.
MANIFEST_REL = "src/repro/analysis/lint/schema_manifest.json"

#: Modules whose ``to_dict`` payloads reach the on-disk cache or its
#: warehouse — i.e. whose key sets the schema versions vouch for.  A
#: ``to_dict`` elsewhere (e.g. the lint report itself) is not persisted
#: key material and is deliberately out of scope.
SERIALIZED_MODULES = (
    "src/repro/pipeline/stats.py",
    "src/repro/pipeline/smt.py",
    "src/repro/workloads/suites.py",
    "src/repro/experiments/orchestrator.py",
    "src/repro/experiments/warehouse.py",
    "src/repro/analysis/load_inspector.py",
)

#: Where the guarded schema versions are defined: manifest field ->
#: (module, module-level constant name).
VERSION_SOURCES = {
    "schema_version": ("src/repro/experiments/cache.py", "SCHEMA_VERSION"),
    "warehouse_schema_version": ("src/repro/experiments/warehouse.py",
                                 "WAREHOUSE_SCHEMA_VERSION"),
}


def _dataclass_field_names(cls: ast.ClassDef) -> List[str]:
    """Annotated field names of a (presumed) dataclass body, ClassVars excluded."""
    names: List[str] = []
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
            continue
        annotation = node.annotation
        dotted = dotted_name(annotation.value if isinstance(annotation, ast.Subscript)
                             else annotation)
        if dotted is not None and dotted.split(".")[-1] == "ClassVar":
            continue
        names.append(node.target.id)
    return names


def _to_dict_keys(cls: ast.ClassDef, method: ast.FunctionDef) -> List[str]:
    """The statically visible string keys produced by one ``to_dict``.

    The union of: string keys of every dict literal in the body, subscript
    assignments with a constant string key, and — when the body calls
    ``dataclasses.asdict`` — the class's dataclass field names.  Dynamically
    computed keys (dict comprehensions over runtime data) are invisible by
    design: the manifest pins the schema's fixed shape, not its payload.
    """
    keys: Set[str] = set()
    uses_asdict = False
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    keys.add(target.slice.value)
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None and dotted.split(".")[-1] == "asdict":
                uses_asdict = True
    if uses_asdict:
        keys.update(_dataclass_field_names(cls))
    return sorted(keys)


def _module_constant(ctx: LintContext, rel: str, name: str) -> Optional[int]:
    """A module-level integer constant read from the AST, or None."""
    source = ctx.file(rel)
    if source is None or source.tree is None:
        return None
    for node in source.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets and isinstance(node.value, ast.Constant):
                value = node.value.value
                if isinstance(value, int):
                    return value
    return None


def extract_manifest(ctx: LintContext) -> Dict[str, object]:
    """The current tree's manifest: schema versions + per-class key sets.

    Classes are keyed ``<repo-relative path>::<class name>``; the mapping is
    sorted, so the JSON form is byte-stable and ``--refresh-manifest`` is
    idempotent.
    """
    to_dict_keys: Dict[str, List[str]] = {}
    for rel in SERIALIZED_MODULES:
        source = ctx.file(rel)
        if source is None or source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "to_dict":
                    to_dict_keys[f"{rel}::{node.name}"] = _to_dict_keys(node, member)
    manifest: Dict[str, object] = {
        "to_dict_keys": {name: to_dict_keys[name] for name in sorted(to_dict_keys)},
    }
    for field, (rel, constant) in VERSION_SOURCES.items():
        manifest[field] = _module_constant(ctx, rel, constant)
    return manifest


#: The guarded constants as one phrase, e.g. ``SCHEMA_VERSION/WAREHOUSE_...``.
_VERSION_NAMES = "/".join(constant for _, constant in VERSION_SOURCES.values())


def _class_line(ctx: LintContext, class_key: str) -> Tuple[str, int]:
    """``(path, line)`` anchoring a manifest class key to its definition."""
    rel, _, class_name = class_key.partition("::")
    source = ctx.file(rel)
    if source is not None and source.tree is not None:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                return rel, node.lineno
    return rel or MANIFEST_REL, 1


def compare_manifest(ctx: LintContext, current: Dict[str, object],
                     committed: Optional[Dict[str, object]],
                     rule_id: str) -> List[Finding]:
    """Findings for the drift between ``current`` and the ``committed`` manifest.

    Split out of :meth:`SchemaManifestRule.check` so tests can exercise the
    gate against an in-memory mutated manifest without touching the committed
    file (the acceptance criterion: mutate a ``to_dict`` key set, assert the
    rule reports drift absent a schema bump).
    """
    if committed is None:
        return [Finding(rule_id, MANIFEST_REL, 1,
                        "schema manifest missing or unreadable; run "
                        "`repro lint --refresh-manifest` and commit the result")]
    bumped = [f"{constant} {committed.get(field)} -> {current.get(field)}"
              for field, (_, constant) in VERSION_SOURCES.items()
              if current.get(field) != committed.get(field)]
    current_keys: Dict[str, List[str]] = dict(current.get("to_dict_keys", {}))
    committed_keys: Dict[str, List[str]] = dict(committed.get("to_dict_keys", {}))
    if bumped:
        # The bump unlocks any drift, but the manifest must be regenerated in
        # the same tree so the next drift is judged against *these* versions.
        return [Finding(
            rule_id, MANIFEST_REL, 1,
            f"schema version changed ({', '.join(bumped)}) but the manifest "
            f"still records the old one; run `repro lint --refresh-manifest`")]
    findings: List[Finding] = []
    for class_key in sorted(set(current_keys) | set(committed_keys)):
        now = current_keys.get(class_key)
        then = committed_keys.get(class_key)
        if now == then:
            continue
        path, line = _class_line(ctx, class_key)
        if then is None:
            detail = "new serialized type not in the manifest"
        elif now is None:
            detail = "serialized type removed but still in the manifest"
        else:
            added = sorted(set(now) - set(then))
            removed = sorted(set(then) - set(now))
            parts = []
            if added:
                parts.append(f"added {added}")
            if removed:
                parts.append(f"removed {removed}")
            detail = f"to_dict keys drifted ({'; '.join(parts)})"
        findings.append(Finding(
            rule_id, path, line,
            f"{class_key.partition('::')[2]}: {detail} without a "
            f"{_VERSION_NAMES} bump; bump the version "
            f"(stale entries must read as misses) and run "
            f"`repro lint --refresh-manifest`"))
    return findings


def load_manifest(root: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The committed manifest under ``root``, or None when missing/corrupt."""
    path = Path(root) / MANIFEST_REL
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def refresh_manifest(root: Union[str, Path],
                     ctx: Optional[LintContext] = None) -> Path:
    """Regenerate the committed manifest from the tree at ``root``.

    Backs ``repro lint --refresh-manifest``.  The output is byte-stable
    (sorted keys, two-space indent, trailing newline) so reruns never dirty
    the working tree.
    """
    if ctx is None:
        from repro.analysis.lint.engine import load_context
        ctx = load_context(root)
    manifest = extract_manifest(ctx)
    path = Path(root) / MANIFEST_REL
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


@register
class SchemaManifestRule(Rule):
    """Gate serialized-type key drift on an explicit schema-version bump."""

    id = "RL003"
    title = ("to_dict key sets must match the committed schema manifest "
             f"unless {_VERSION_NAMES} changed")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        """Compare the tree's extracted manifest against the committed one."""
        return compare_manifest(ctx, extract_manifest(ctx),
                                load_manifest(ctx.root), self.id)
