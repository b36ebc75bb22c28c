"""Plain-text reporting helpers for experiment results."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string (0.051 -> '5.1%')."""
    return f"{value * 100:.{digits}f}%"


def format_speedup(value: float, digits: int = 3) -> str:
    """Format a speedup ratio (1.051 -> '1.051x')."""
    return f"{value:.{digits}f}x"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple fixed-width text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_dedup_stats(stats, title: str = "orchestrated wave") -> str:
    """Render a :class:`~repro.experiments.orchestrator.DedupStats` record.

    The capacity-witness row appears only when a witness served a job.
    """
    rows = [
        ("figures", len(stats.figures)),
        ("jobs planned", stats.planned),
        ("unique after dedup", stats.unique),
        ("shared across figures", stats.deduped),
        ("cache-warm", stats.cache_warm),
        ("executed", stats.executed),
    ]
    if stats.witnessed:
        rows.append(("served by witness", stats.witnessed))
    return format_table(["metric", "count"], rows, title=title)


def format_persisted_dedup(dedup: Mapping[str, int],
                           title: str = "orchestrated waves (all processes)"
                           ) -> str:
    """Render the aggregated dedup block of ``persisted_cache_stats``.

    Counts are sums over every orchestrated wave that streamed its stats into
    the cache directory (possibly from several shard hosts); the dedup and
    cache-warm *rates* are what a shared sweep directory is actually buying.
    """
    planned = dedup.get("planned", 0)
    unique = dedup.get("unique", 0)
    deduped = dedup.get("deduped", planned - unique)
    cache_warm = dedup.get("cache_warm", 0)
    rows = [
        ("waves", dedup.get("waves", 0)),
        ("jobs planned", planned),
        ("unique after dedup", unique),
        ("dedup rate", format_percent(deduped / planned) if planned else "n/a"),
        ("cache-warm", cache_warm),
        ("cache-warm rate",
         format_percent(cache_warm / unique) if unique else "n/a"),
        ("executed", dedup.get("executed", 0)),
    ]
    return format_table(["metric", "value"], rows, title=title)


def _last_line(text: str) -> str:
    lines = [line for line in str(text).strip().splitlines() if line.strip()]
    return lines[-1] if lines else ""


def format_dead_letters(dead_letters: Sequence[object],
                        title: str = "dead-lettered jobs") -> str:
    """Render :class:`~repro.experiments.runner.DeadLetter` records, one per line.

    Full tracebacks are deliberately reduced to their last line here — the
    complete text stays on the records for forensics; the human summary
    needs *which* job died of *what*, not forty frames each.
    """
    lines: List[str] = [title] if title else []
    for letter in dead_letters:
        lines.append(f"  {letter.label}: "
                     f"{_last_line(letter.error) or 'unknown error'}")
    return "\n".join(lines)


def format_persisted_health(health: Mapping[str, int],
                            title: str = "sweep health (all processes)") -> str:
    """Render the aggregated health block of ``persisted_cache_stats``.

    Counts are sums over every runner that flushed its counters into the
    cache directory (possibly from several shard hosts); dead-lettered says
    whether any job was lost.
    """
    rows = [
        ("runs", health.get("runs", 0)),
        ("jobs", health.get("jobs", 0)),
        ("dead-lettered", health.get("dead_lettered", 0)),
    ]
    return format_table(["metric", "value"], rows, title=title)


def per_suite_table(per_suite: Mapping[str, Mapping[str, float]],
                    value_format=format_speedup, title: str = "") -> str:
    """Render a {suite: {config: value}} mapping in the paper's figure layout."""
    suites = list(per_suite.keys())
    configs: List[str] = []
    for values in per_suite.values():
        for name in values:
            if name not in configs:
                configs.append(name)
    rows = []
    for config in configs:
        row = [config]
        for suite in suites:
            value = per_suite[suite].get(config)
            row.append(value_format(value) if value is not None else "-")
        rows.append(row)
    return format_table(["config"] + suites, rows, title=title)
