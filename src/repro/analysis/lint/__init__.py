"""``repro lint`` — AST-based checker for the repo's mechanical invariants.

The package pairs a rule-agnostic engine (:mod:`repro.analysis.lint.engine`)
with six project rules, each enforcing a contract that used to live only in
prose and after-the-fact differential tests:

* **RL001** (:mod:`~repro.analysis.lint.determinism`) — the simulation core
  must not read clocks/entropy, use the process-global RNG, or iterate bare
  sets.
* **RL002** (:mod:`~repro.analysis.lint.cache_purity`) — cache-key and
  fingerprint functions must not read ``os.environ`` or any engine-named
  state.
* **RL003** (:mod:`~repro.analysis.lint.schema`) — serialized ``to_dict``
  key sets must match the committed manifest unless
  ``SCHEMA_VERSION``/``WAREHOUSE_SCHEMA_VERSION`` changed in the same tree.
* **RL004** (:mod:`~repro.analysis.lint.env_registry`) — every ``REPRO_*``
  variable read in code needs a ``docs/ENVIRONMENT.md`` row and vice versa.
* **RL005** (:mod:`~repro.analysis.lint.engine_parity`) — event-engine
  branches may only store to the allowlisted event-only state set.
* **RL006** (:mod:`~repro.analysis.lint.hygiene`) — no bare ``except:`` or
  broad silent swallows in ``experiments/`` and the CLI.

Surfaced as ``repro lint [--json] [--rule RLxxx] [--refresh-manifest]`` in
the CLI, mirrored in-process by ``tests/test_lint.py`` (so the tier-1 suite
enforces a clean tree without any extra tooling installed), and run as a CI
job.  A finding can be allowlisted with an inline
``# repro-lint: ignore[RLxxx]`` comment — unknown rule names in such a
comment are themselves an error, never silence.
"""

from repro.analysis.lint.engine import (  # noqa: F401  (public API re-exports)
    META_RULE_ID,
    Finding,
    LintContext,
    LintReport,
    Rule,
    all_rules,
    load_context,
    run_lint,
)

# Importing the rule modules registers them with the engine; the import
# order here is the display/registration order of the rules.
from repro.analysis.lint import determinism  # noqa: F401,E402
from repro.analysis.lint import cache_purity  # noqa: F401,E402
from repro.analysis.lint import schema  # noqa: F401,E402
from repro.analysis.lint import env_registry  # noqa: F401,E402
from repro.analysis.lint import engine_parity  # noqa: F401,E402
from repro.analysis.lint import hygiene  # noqa: F401,E402

from repro.analysis.lint.schema import (  # noqa: F401,E402
    MANIFEST_REL,
    compare_manifest,
    extract_manifest,
    load_manifest,
    refresh_manifest,
)
