"""RL002 — cache keys must be pure functions of config + workload + trace.

The on-disk cache's whole warm-rerun story rests on one invariant: a cache
key fingerprints *what will be simulated* and nothing else.  The execution
engine (``engine=``) is deliberately excluded — the engines are
bit-identical, so warm entries must stay valid under either —
and no ``REPRO_*`` runtime knob may leak in, or two hosts with different
environments would silently stop sharing work.  The same goes for how a
sweep copes with failure (fault plans, retry budgets, job timeouts): none of
it may fingerprint, so none can come back into key material unnoticed.  This
rule statically forbids ``os.environ``/``os.getenv`` reads, any
``engine``-named name or attribute, and any fault/retry/timeout-named name,
attribute or parameter inside the key/fingerprint functions of
``experiments/cache.py``, ``experiments/orchestrator.py``,
``experiments/parallel.py`` and ``experiments/warehouse.py``.

**Reachability.**  The call graph is walked one level deep within each
module: a seed function's body plus the bodies of same-module functions it
calls directly.  That covers the real composition (``key_for`` →
``key_for_fingerprint`` → ``_digest``, each a seed) without a
whole-program analysis; deeper or cross-module
helpers are expected to be seeds themselves (``config_fingerprint`` in
``cache.py`` is, for example).  The
runtime twin — ``test_cache_fingerprint_ignores_engine_and_runtime_env`` in
``tests/test_lint.py`` — asserts the same invariant dynamically.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.analysis.lint.engine import (
    Finding,
    LintContext,
    Rule,
    dotted_name,
    register,
)

#: The modules whose key/fingerprint functions this rule guards.
SCOPE_FILES = (
    "src/repro/experiments/cache.py",
    "src/repro/experiments/orchestrator.py",
    "src/repro/experiments/parallel.py",
    "src/repro/experiments/warehouse.py",
)

#: Exact function names treated as cache-key seeds wherever they appear.
SEED_NAMES = frozenset({"canonical_value", "_digest"})

#: Names that smell of supervision state (fault plans, retry budgets, job
#: timeouts).  None of it may fingerprint: a faulted-and-retried sweep must
#: write cache entries bit-identical to a clean run's.
_FAULT_NAME_RE = re.compile(
    # Segment-anchored so DEFAULT_BASE_PC does not match on its 'FAULT':
    # the keyword must start and end a snake_case/word segment.
    r"(?<![A-Za-z])(?:faults?|retry|retries|timeouts?)(?![a-z])",
    re.IGNORECASE)

_FAULT_MESSAGE = ("references fault/retry/timeout configuration: supervision "
                  "state must never enter cache-key material (a faulted-and-"
                  "retried run must stay bit-identical to a clean one)")


def is_key_function(name: str) -> bool:
    """True when a function participates in cache-key/fingerprint material."""
    return (name.startswith("key_for")
            or "fingerprint" in name
            or "identity" in name
            or name in SEED_NAMES)


def _function_index(tree: ast.Module) -> Dict[str, List[ast.FunctionDef]]:
    """Every function/method definition in the module, keyed by bare name."""
    index: Dict[str, List[ast.FunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.setdefault(node.name, []).append(node)
    return index


def _called_names(func: ast.FunctionDef) -> Set[str]:
    """Bare names of functions/methods called directly from ``func``'s body."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif (isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)
              and target.value.id in ("self", "cls")):
            names.add(target.attr)
    return names


def _violations(func: ast.FunctionDef) -> Iterator[Tuple[int, str, str]]:
    """``(line, category, message)`` for every impurity in one function body.

    The category key exists so nested matches of one expression (the inner
    ``os.environ`` of an ``os.environ.get`` chain) collapse into a single
    finding per line.
    """
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None and (
                    dotted in ("os.environ", "os.getenv")
                    or dotted.startswith("os.environ.")):
                yield (node.lineno, "env",
                       "reads os.environ: runtime environment must never "
                       "reach cache-key material (two hosts with different "
                       "env would stop sharing warm entries)")
            elif node.attr == "engine":
                yield (node.lineno, "engine",
                       "touches an 'engine'-named attribute: the execution "
                       "engine is bit-identical by contract and must never "
                       "enter a cache key (docs/ARCHITECTURE.md)")
            elif _FAULT_NAME_RE.search(node.attr):
                yield (node.lineno, "fault", f"'{node.attr}' {_FAULT_MESSAGE}")
        elif isinstance(node, ast.Name):
            if node.id in ("environ", "getenv"):
                yield (node.lineno, "env",
                       "reads the process environment: runtime environment "
                       "must never reach cache-key material")
            elif _FAULT_NAME_RE.search(node.id):
                yield (node.lineno, "fault", f"'{node.id}' {_FAULT_MESSAGE}")
        elif isinstance(node, ast.arg):
            if node.arg == "engine":
                yield (node.lineno, "engine",
                       "takes an 'engine' parameter: the execution engine "
                       "must never enter a cache key")
            elif _FAULT_NAME_RE.search(node.arg):
                yield (node.lineno, "fault", f"'{node.arg}' {_FAULT_MESSAGE}")


@register
class CachePurityRule(Rule):
    """Forbid env reads and engine references inside cache-key functions."""

    id = "RL002"
    title = ("cache-key/fingerprint functions must not read os.environ or "
             "any engine-named state")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        """Walk each key function plus its direct same-module callees."""
        for source in ctx.files_under(*SCOPE_FILES):
            if source.tree is None:
                continue
            index = _function_index(source.tree)
            seeds = [func for funcs in index.values() for func in funcs
                     if is_key_function(func.name)]
            seen_lines: Set[Tuple[int, str]] = set()
            for seed in seeds:
                closure: List[ast.FunctionDef] = [seed]
                for name in sorted(_called_names(seed)):
                    for callee in index.get(name, []):
                        if callee is not seed:
                            closure.append(callee)
                for func in closure:
                    for line, category, message in _violations(func):
                        # The same helper may be reachable from several
                        # seeds, and one expression can match both the
                        # inner and outer node of an attribute chain;
                        # report each offending line once per category.
                        dedup = (line, category)
                        if dedup in seen_lines:
                            continue
                        seen_lines.add(dedup)
                        via = ("" if func is seed
                               else f" (reached from {seed.name} via {func.name})")
                        yield Finding(self.id, source.rel, line,
                                      f"{seed.name}: {message}{via}")
