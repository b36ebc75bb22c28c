"""RL005 — event-engine-only state must come from an explicit allowlist.

The event and cycle engines are bit-identical by construction: the event
engine may keep *private bookkeeping* (the completion buckets, parked-waiter
lists, quiescence flags) but must never grow architectural state the
reference stepper lacks, or the differential tests in
``tests/test_event_driven.py`` stop proving what they claim.  This rule makes
the boundary mechanical: inside any branch of ``pipeline/cpu.py`` guarded by
an ``engine == "event"`` comparison, every ``self.<attr>`` store must target
a name in :data:`EVENT_ONLY_STATE`.  Adding event-engine state is still easy
— extend the allowlist in the same diff — but it becomes an explicit,
reviewable widening of the bit-identity surface instead of a silent one.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Tuple

from repro.analysis.lint.engine import Finding, LintContext, Rule, register

#: The guarded file.
CPU_REL = "src/repro/pipeline/cpu.py"

#: Private event-engine bookkeeping ``OutOfOrderCore`` may legitimately write
#: under an ``engine == "event"`` guard.  Everything here is reconstructible
#: from the architectural state (buckets of in-flight completions, parked RS
#: waiter lists, quiescence flags) — i.e. skipping-related, never
#: timing-relevant on its own.  Widen it consciously, in the same diff as the
#: differential test that proves the new state keeps the engines
#: bit-identical.
EVENT_ONLY_STATE = frozenset({
    "_due",
    "_rs_waiting",
    "_rs_woken",
    "_rs_slot_counter",
    "_issue_quiescent",
    "_park_blocked",
    "stepped_cycles",
})


def _event_comparison(test: ast.expr) -> Iterator[bool]:
    """Yield ``is_event_branch`` for every engine comparison in an ``if`` test.

    Matches ``<x>.engine == "event"`` / ``engine != "event"`` (either operand
    order) anywhere inside the test; ``==`` selects the body as the event
    branch (True), ``!=`` the ``else`` branch (False).
    """
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        operands = [node.left] + list(node.comparators)
        mentions_engine = any(
            (isinstance(op, ast.Attribute) and op.attr == "engine")
            or (isinstance(op, ast.Name) and op.id == "engine")
            for op in operands)
        compares_event = any(
            isinstance(op, ast.Constant) and op.value == "event"
            for op in operands)
        if mentions_engine and compares_event:
            yield isinstance(node.ops[0], ast.Eq)


def _self_stores(statements: List[ast.stmt]) -> Iterator[Tuple[int, str]]:
    """``(line, attribute)`` for every ``self.<attr>`` store in a branch."""
    for statement in statements:
        for node in ast.walk(statement):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    yield node.lineno, target.attr


@register
class EngineParityRule(Rule):
    """Restrict engine-guarded attribute stores to the declared event state."""

    id = "RL005"
    title = ("attribute stores under engine == 'event' guards in "
             "pipeline/cpu.py must target the allowlisted event-only state")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        """Find engine-guarded ``if`` branches and audit their self-stores."""
        source = ctx.file(CPU_REL)
        if source is None or source.tree is None:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.If):
                continue
            for is_event_branch in _event_comparison(node.test):
                branch = node.body if is_event_branch else node.orelse
                for line, attr in _self_stores(branch):
                    if attr in EVENT_ONLY_STATE:
                        continue
                    yield Finding(
                        self.id, source.rel, line,
                        f"store to self.{attr} under an engine == 'event' "
                        f"guard: not in the declared event-only state set "
                        f"(EVENT_ONLY_STATE in analysis/lint/engine_parity.py). "
                        f"New event-engine state widens the bit-identity "
                        f"surface — allowlist it in the same diff as the "
                        f"differential test that covers it")
                break  # one matching comparison per If is enough
