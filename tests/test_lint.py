"""In-process mirror of ``repro lint`` plus per-rule fixture proofs.

Three layers, mirroring the ``tests/test_docstrings.py`` pattern so the
tier-1 suite enforces a lint-clean tree without any external tooling:

* **The mirror** — :func:`test_repository_tree_is_lint_clean` runs every
  registered rule over the real repository, exactly what CI's
  ``repro lint --json`` job does.
* **Liveness proofs** — for each rule a seeded-bad fixture from
  ``tests/lint_fixtures/`` is materialized into a repo-shaped ``tmp_path``
  tree at the path the rule guards; its ``# expect[RLxxx]`` markers must
  reproduce as findings *exactly* (rule id, file, line), and the good twin
  must come back clean.  A rule that silently stopped matching would fail
  here, not in review.
* **Framework contracts** — the ignore-comment allowlist suppresses, typoed
  rule names in an ignore comment are an error (never silence), malformed
  directives and syntax errors report loudly, and the schema-manifest gate
  demonstrably fires against an in-memory mutated manifest.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.analysis.lint import (
    MANIFEST_REL,
    META_RULE_ID,
    all_rules,
    compare_manifest,
    extract_manifest,
    load_context,
    load_manifest,
    refresh_manifest,
    run_lint,
)
from repro.cli import main
from repro.experiments.cache import ResultCache
from repro.experiments.configs import baseline_config
from repro.workloads.suites import all_workload_specs

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: Where each rule's fixture lands inside the synthetic tree: a path the
#: rule actually guards, so the fixture exercises the real scope logic.
PLACEMENT = {
    "RL001": "src/repro/pipeline/generated.py",
    "RL002": "src/repro/experiments/cache.py",
    "RL003": "src/repro/pipeline/stats.py",
    "RL004": "src/repro/experiments/knobs.py",
    "RL005": "src/repro/pipeline/cpu.py",
    "RL006": "src/repro/experiments/runner.py",
}

_EXPECT_RE = re.compile(r"#\s*expect\[(RL\d{3})\]")

#: The synthetic tree's env-var registry: documents exactly the knob the
#: RL004 good twin reads, so the bad twin's extra read is the only diff.
_ENV_DOC = """# Environment variables

| Variable | Consumer |
| --- | --- |
| `REPRO_FIXTURE_KNOB` | tests/lint_fixtures |
"""

#: Version-source stub for the synthetic RL003 tree (the same constant the
#: real cache module defines, so the manifest records it like the committed one).
_CACHE_STUB = '"""Stub version source."""\n\nSCHEMA_VERSION = 1\n'


def _write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _expected_findings(rule_id: str):
    """``(rule, path, line)`` triples from the bad fixture's markers."""
    text = (FIXTURES / f"{rule_id}_bad.py").read_text(encoding="utf-8")
    rel = PLACEMENT[rule_id]
    triples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _EXPECT_RE.finditer(line):
            triples.append((match.group(1), rel, lineno))
    assert triples, f"fixture {rule_id}_bad.py carries no expect markers"
    return sorted(triples)


def _materialize(root: Path, rule_id: str, variant: str) -> Path:
    """Build a minimal repo-shaped tree around one fixture file."""
    rel = PLACEMENT[rule_id]
    if rule_id == "RL004":
        _write(root, "docs/ENVIRONMENT.md", _ENV_DOC)
    if rule_id == "RL003":
        # The manifest is generated from the good twin (plus version stubs),
        # then the requested variant is swapped in; the bad twin therefore
        # drifts from a manifest recording unchanged schema versions.
        _write(root, "src/repro/experiments/cache.py", _CACHE_STUB)
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / f"{rule_id}_good.py", target)
        refresh_manifest(root)
    target = root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(FIXTURES / f"{rule_id}_{variant}.py", target)
    return root


# --------------------------------------------------------------- the mirror


@pytest.fixture(scope="module")
def repo_context():
    """One scan of the repository, shared by the manifest and schema tests."""
    return load_context(REPO_ROOT)


@pytest.fixture(scope="module")
def repo_report():
    """One lint run over the repository, shared by the mirror tests."""
    return run_lint(REPO_ROOT)


def test_repository_tree_is_lint_clean(repo_report):
    """The in-process twin of CI's ``repro lint`` gate."""
    report = repo_report
    assert report.ok, "repro lint found violations:\n" + report.render()
    assert report.files_scanned >= 50, \
        f"suspiciously small scan ({report.files_scanned} files); did " \
        f"SCAN_ROOTS rot?"
    assert report.rules == sorted(all_rules())


def test_committed_manifest_matches_tree(repo_context):
    """``schema_manifest.json`` is in sync and byte-stable under refresh."""
    committed = (REPO_ROOT / MANIFEST_REL).read_text(encoding="utf-8")
    regenerated = json.dumps(extract_manifest(repo_context),
                             indent=2, sort_keys=True) + "\n"
    assert committed == regenerated, \
        "schema manifest out of sync; run `repro lint --refresh-manifest`"


# ------------------------------------------------------- per-rule liveness


@pytest.mark.parametrize("rule_id", sorted(PLACEMENT))
def test_bad_fixture_yields_exactly_the_expected_findings(tmp_path, rule_id):
    """Each seeded-bad snippet reproduces its markers: rule id, file, line."""
    _materialize(tmp_path, rule_id, "bad")
    report = run_lint(tmp_path, rule_ids=[rule_id])
    got = sorted((f.rule, f.path, f.line) for f in report.findings)
    assert got == _expected_findings(rule_id), "\n" + report.render()


@pytest.mark.parametrize("rule_id", sorted(PLACEMENT))
def test_good_fixture_is_clean(tmp_path, rule_id):
    """Each good twin passes the same rule untouched."""
    _materialize(tmp_path, rule_id, "good")
    report = run_lint(tmp_path, rule_ids=[rule_id])
    assert report.ok, "\n" + report.render()


# ------------------------------------------------- allowlist + meta checks


def test_ignore_comment_suppresses_a_known_rule(tmp_path):
    _write(tmp_path, "src/repro/pipeline/suppressed.py",
           "import time\n\n\ndef now():\n"
           "    return time.time()  # repro-lint: ignore[RL001]\n")
    report = run_lint(tmp_path, rule_ids=["RL001"])
    assert report.ok, "\n" + report.render()


def test_unknown_rule_in_ignore_comment_is_an_error_not_silence(tmp_path):
    """Satellite 4: a typoed allowlist must fail loudly AND not suppress."""
    _write(tmp_path, "src/repro/pipeline/typoed.py",
           "import time\n\n\ndef now():\n"
           "    return time.time()  # repro-lint: ignore[RL999]\n")
    report = run_lint(tmp_path, rule_ids=["RL001"])
    triples = sorted((f.rule, f.line) for f in report.findings)
    assert triples == [(META_RULE_ID, 5), ("RL001", 5)], "\n" + report.render()
    meta = next(f for f in report.findings if f.rule == META_RULE_ID)
    assert "unknown rule 'RL999'" in meta.message


def test_meta_checks_run_regardless_of_rule_selection(tmp_path):
    _write(tmp_path, "src/repro/pipeline/typoed.py",
           "VALUE = 1  # repro-lint: ignore[RL999]\n")
    report = run_lint(tmp_path, rule_ids=["RL006"])
    assert [f.rule for f in report.findings] == [META_RULE_ID]


def test_meta_findings_are_not_suppressible(tmp_path):
    """An ignore comment cannot vouch for its own spelling."""
    _write(tmp_path, "src/repro/pipeline/selfref.py",
           "VALUE = 1  # repro-lint: ignore[RL000, RL999]\n")
    report = run_lint(tmp_path, rule_ids=["RL006"])
    assert [f.rule for f in report.findings] == [META_RULE_ID]
    assert "RL999" in report.findings[0].message


def test_malformed_directive_and_empty_ignore_list_error(tmp_path):
    _write(tmp_path, "src/repro/pipeline/directives.py",
           "A = 1  # repro-lint: disable-everything\n"
           "B = 2  # repro-lint: ignore[]\n")
    report = run_lint(tmp_path, rule_ids=["RL006"])
    messages = {f.line: f.message for f in report.findings}
    assert all(f.rule == META_RULE_ID for f in report.findings)
    assert "malformed" in messages[1]
    assert "empty ignore list" in messages[2]


def test_syntax_error_in_scanned_file_fails_loudly(tmp_path):
    _write(tmp_path, "src/repro/pipeline/broken.py", "def broken(:\n")
    report = run_lint(tmp_path, rule_ids=["RL006"])
    assert [(f.rule, f.path, f.line) for f in report.findings] == \
        [(META_RULE_ID, "src/repro/pipeline/broken.py", 1)]
    assert "does not parse" in report.findings[0].message


def test_run_lint_rejects_unknown_rule_selection(tmp_path):
    with pytest.raises(ValueError, match="RL999"):
        run_lint(tmp_path, rule_ids=["RL999"])


# ------------------------------------------------------- RL003 gate depth


def test_schema_gate_fires_on_in_memory_key_mutation(repo_context):
    """Acceptance criterion: mutate a to_dict key set, the gate reports drift."""
    ctx = repo_context
    current = extract_manifest(ctx)
    committed = json.loads(json.dumps(load_manifest(REPO_ROOT)))
    assert committed == current  # precondition: tree is in sync
    class_key, keys = next(
        (name, keys) for name, keys in committed["to_dict_keys"].items() if keys)
    committed["to_dict_keys"][class_key] = keys[:-1]
    findings = compare_manifest(ctx, current, committed, "RL003")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "RL003"
    assert finding.path == class_key.partition("::")[0]
    assert "drifted" in finding.message
    assert f"added {[keys[-1]]}" in finding.message


def test_schema_gate_demands_refresh_when_versions_bumped_in_memory(repo_context):
    ctx = repo_context
    current = extract_manifest(ctx)
    committed = json.loads(json.dumps(load_manifest(REPO_ROOT)))
    committed["schema_version"] = committed["schema_version"] - 1
    findings = compare_manifest(ctx, current, committed, "RL003")
    assert len(findings) == 1
    assert findings[0].path == MANIFEST_REL
    assert "--refresh-manifest" in findings[0].message


def test_schema_version_bump_unlocks_drift_but_requires_refresh(tmp_path):
    """Full RL003 lifecycle in a synthetic tree: drift -> bump -> refresh."""
    _materialize(tmp_path, "RL003", "bad")
    drifting = run_lint(tmp_path, rule_ids=["RL003"])
    assert not drifting.ok and "drifted" in drifting.findings[0].message

    # A deliberate schema bump in the same tree unlocks the drift, but the
    # stale manifest must now be regenerated...
    _write(tmp_path, "src/repro/experiments/cache.py",
           _CACHE_STUB.replace("SCHEMA_VERSION = 1", "SCHEMA_VERSION = 2"))
    bumped = run_lint(tmp_path, rule_ids=["RL003"])
    assert [f.path for f in bumped.findings] == [MANIFEST_REL]
    assert "--refresh-manifest" in bumped.findings[0].message

    # ...after which the tree is clean again.
    refresh_manifest(tmp_path)
    assert run_lint(tmp_path, rule_ids=["RL003"]).ok


def _materialize_warehouse(root: Path, variant: str) -> Path:
    """Synthetic tree for the warehouse half of the RL003 gate.

    The good twin lands at ``src/repro/experiments/warehouse.py`` — the path
    both ``SERIALIZED_MODULES`` and the ``warehouse_schema_version`` entry of
    ``VERSION_SOURCES`` guard — the manifest is refreshed from it, and then
    the requested variant is swapped in.
    """
    _write(root, "src/repro/experiments/cache.py", _CACHE_STUB)
    target = root / "src/repro/experiments/warehouse.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(FIXTURES / "RL003_warehouse_good.py", target)
    refresh_manifest(root)
    shutil.copyfile(FIXTURES / f"RL003_warehouse_{variant}.py", target)
    return root


def test_warehouse_row_drift_without_version_bump_fails_lint(tmp_path):
    """Satellite: a WarehouseRow key added sans WAREHOUSE_SCHEMA_VERSION bump."""
    _materialize_warehouse(tmp_path, "bad")
    report = run_lint(tmp_path, rule_ids=["RL003"])
    assert not report.ok, "bad warehouse twin came back clean"
    [finding] = report.findings
    assert finding.path == "src/repro/experiments/warehouse.py"
    assert "WarehouseRow" in finding.message
    assert "drifted" in finding.message and "added ['mpki']" in finding.message
    assert "WAREHOUSE_SCHEMA_VERSION bump" in finding.message


def test_warehouse_good_twin_is_clean(tmp_path):
    _materialize_warehouse(tmp_path, "good")
    report = run_lint(tmp_path, rule_ids=["RL003"])
    assert report.ok, "\n" + report.render()


def test_warehouse_version_bump_unlocks_drift_but_requires_refresh(tmp_path):
    """A deliberate WAREHOUSE_SCHEMA_VERSION bump follows the RL003 lifecycle."""
    _materialize_warehouse(tmp_path, "bad")
    target = tmp_path / "src/repro/experiments/warehouse.py"
    target.write_text(
        target.read_text(encoding="utf-8").replace(
            "WAREHOUSE_SCHEMA_VERSION = 1", "WAREHOUSE_SCHEMA_VERSION = 2"),
        encoding="utf-8")
    bumped = run_lint(tmp_path, rule_ids=["RL003"])
    assert [f.path for f in bumped.findings] == [MANIFEST_REL]
    assert "--refresh-manifest" in bumped.findings[0].message
    assert "WAREHOUSE_SCHEMA_VERSION 1 -> 2" in bumped.findings[0].message
    refresh_manifest(tmp_path)
    assert run_lint(tmp_path, rule_ids=["RL003"]).ok


def test_committed_manifest_pins_the_real_warehouse_row(tmp_path):
    """The committed manifest records the live WarehouseRow column set."""
    manifest = load_manifest(REPO_ROOT)
    assert manifest is not None
    assert manifest["warehouse_schema_version"] == 1
    keys = manifest["to_dict_keys"][
        "src/repro/experiments/warehouse.py::WarehouseRow"]
    from repro.experiments.warehouse import ROW_COLUMNS
    assert keys == sorted(ROW_COLUMNS)


def test_env_registry_flags_documented_but_unread_rows(tmp_path):
    """RL004's other direction: a registry row nothing reads is doc rot."""
    _materialize(tmp_path, "RL004", "good")
    docs = tmp_path / "docs/ENVIRONMENT.md"
    docs.write_text(docs.read_text(encoding="utf-8")
                    + "| `REPRO_GHOST_KNOB` | nobody |\n", encoding="utf-8")
    report = run_lint(tmp_path, rule_ids=["RL004"])
    assert len(report.findings) == 1
    assert report.findings[0].path == "docs/ENVIRONMENT.md"
    assert "REPRO_GHOST_KNOB" in report.findings[0].message


# ------------------------------------------------ RL002's runtime twin


def test_cache_fingerprint_ignores_engine_and_runtime_env(tmp_path, monkeypatch):
    """The dynamic half of RL002's static purity guarantee.

    The cache key of a fixed (config, workload, trace) job takes no engine
    argument, and it must be byte-identical however the ``REPRO_*``
    variables are set — otherwise hosts with different environments would
    silently stop sharing warm entries.
    """
    config = baseline_config()
    spec = all_workload_specs()[0]

    def key() -> str:
        cache = ResultCache(tmp_path / "cache")
        return cache.key_for(config, [spec], instructions=2000, num_registers=16)

    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    reference = key()

    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "64")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert key() == reference


# --------------------------------------------------------------- CLI layer


@pytest.fixture(scope="module")
def cli_lint_run():
    """The one ``repro lint --json`` run over the repository: exit code and payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", "--json", "--root", str(REPO_ROOT)])
    return code, json.loads(out.getvalue())


def test_cli_lint_is_clean_on_the_repository(cli_lint_run, repo_report):
    code, payload = cli_lint_run
    assert code == 0
    assert payload == repo_report.to_dict()


def test_cli_lint_json_payload(cli_lint_run):
    _, payload = cli_lint_run
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["rules"] == sorted(all_rules())
    assert payload["files_scanned"] >= 50


def test_cli_lint_findings_exit_code_and_rule_filter(tmp_path, capsys):
    _materialize(tmp_path, "RL006", "bad")
    assert main(["lint", "--root", str(tmp_path), "--rule", "RL006"]) == 1
    out = capsys.readouterr().out
    assert "RL006" in out and "finding(s)" in out
    # Selecting a different rule skips the RL006 findings entirely.
    assert main(["lint", "--root", str(tmp_path), "--rule", "RL001"]) == 0
    assert "repro lint: clean" in capsys.readouterr().out


def test_cli_lint_unknown_rule_is_a_usage_error(tmp_path, capsys):
    assert main(["lint", "--root", str(tmp_path), "--rule", "RL999"]) == 2
    assert "unknown lint rules" in capsys.readouterr().err


def test_cli_lint_refresh_manifest_is_idempotent(tmp_path, capsys):
    _materialize(tmp_path, "RL003", "good")
    manifest = tmp_path / MANIFEST_REL
    before = manifest.read_bytes()
    assert main(["lint", "--root", str(tmp_path), "--refresh-manifest"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert manifest.read_bytes() == before
