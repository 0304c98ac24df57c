"""The ``delta`` benchmark suite: incremental vs full re-publish.

Each scenario models one append to a living dataset: the synthetic table's
records are sorted by group key (appends to a living dataset are naturally
key-localized — new rows arrive for a bounded key range, not uniformly over
every group), the last ``append_fraction`` of rows becomes the append batch,
and the rest is published once as the base.  The timed comparison is then

* **delta** — :func:`repro.delta.delta_publish` of the append batch against
  the captured base state (only the dirty chunks' kernels re-run);
* **full** — :func:`repro.stream.stream_publish` of base + append from
  scratch (every row re-indexed, every chunk's kernel re-run).

Per scenario the report records both timings, ``speedup_vs_full`` and the
dirty-chunk fraction, plus two verdicts: ``byte_identical`` (the delta
output equals the full re-publish bit for bit, the hard invariant the
differential test harness pins) and ``audits_agree``.  As the append
fraction shrinks, the dirty fraction and the delta time drop while the
full time stays flat — the incremental advantage the suite exists to show.
``docs/delta.md`` reads the committed ``BENCH_delta.json``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from repro.bench.scenarios import SENSITIVE, Context, Scenario
from repro.bench.timing import time_callable
from repro.delta.engine import delta_publish, publish_base
from repro.stream import stream_publish

#: Groups per kernel chunk for every delta scenario.  Smaller than the other
#: suites' 256 on purpose: the dirty-chunk resolution is one chunk, so finer
#: chunks let a small key-localized append leave more of the output clean.
_CHUNK_SIZE = 64

#: The verdicts every delta entry carries.
DELTA_VERDICTS = ("byte_identical", "audits_agree")


def delta_scenarios(tiny: bool = False) -> list[Scenario]:
    """Strategy × shrinking append fraction, strategy-major, fraction descending."""
    if tiny:
        # The census point's append runs ~0.1 s, over the perf gate's 50 ms floor.
        points = [
            ("sps", "adult", 2_000, 0.10),
            ("sps", "adult", 2_000, 0.01),
            ("dp-laplace", "census", 50_000, 0.10),
        ]
        chunk_rows = 1_000
    else:
        points = [
            ("sps", "adult", 50_000, 0.10),
            ("sps", "adult", 50_000, 0.05),
            ("sps", "adult", 50_000, 0.01),
            ("dp-laplace", "census", 50_000, 0.10),
            ("dp-laplace", "census", 50_000, 0.01),
        ]
        chunk_rows = 5_000
    return [
        Scenario(
            name=f"delta/{strategy}/{dataset}-{rows}/a{fraction * 100:g}pct",
            strategy=strategy,
            dataset=dataset,
            rows=rows,
            chunk_size=_CHUNK_SIZE,
            params={"append_fraction": fraction, "chunk_rows": chunk_rows},
        )
        for strategy, dataset, rows, fraction in points
    ]


def _write_rows(path: Path, header: list[str], rows: list[Any]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def run_delta_scenario(scenario: Scenario, ctx: Context) -> dict[str, Any]:
    """Benchmark one delta scenario against its full-re-publish twin."""
    sensitive = SENSITIVE[scenario.dataset]
    fraction = float(scenario.params["append_fraction"])
    chunk_rows = int(scenario.params["chunk_rows"])
    table = ctx.table(scenario.dataset, scenario.rows)
    header = list(table.schema.public_names) + [table.schema.sensitive_name]
    records = sorted(table.records())
    n_append = max(1, round(scenario.rows * fraction))

    stem = ctx.workdir / f"{scenario.strategy}-{scenario.dataset}-{scenario.rows}-a{fraction:g}"
    base_csv, append_csv, full_csv = (Path(f"{stem}-{part}.csv") for part in ("base", "append", "full"))
    _write_rows(base_csv, header, records[:-n_append])
    _write_rows(append_csv, header, records[-n_append:])
    _write_rows(full_csv, header, records)

    base_report = publish_base(
        base_csv,
        sensitive=sensitive,
        output=Path(f"{stem}-base-pub.csv"),
        strategy=scenario.strategy,
        rng=ctx.seed,
        chunk_size=scenario.chunk_size,
        chunk_rows=chunk_rows,
    )
    state = base_report.state
    assert state is not None
    delta_out = Path(f"{stem}-delta-out.csv")
    full_out = Path(f"{stem}-full-out.csv")

    # Writing to `output=` leaves the pristine base untouched, so the timed
    # callable is idempotent across warmup + repeats.
    def delta_once() -> Any:
        return delta_publish(state, append_csv, output=delta_out)

    def full_once() -> Any:
        return stream_publish(
            full_csv,
            sensitive=sensitive,
            strategy=scenario.strategy,
            rng=ctx.seed,
            chunk_size=scenario.chunk_size,
            chunk_rows=chunk_rows,
            output=full_out,
        )

    delta_report, delta_meas = time_callable(delta_once, ctx.timing)
    full_report, full_meas = time_callable(full_once, ctx.timing)
    # Both unaudited, or both audited with the same violation rate and verdict.
    delta_audit, full_audit = (
        None if r.audit is None else (r.audit.group_violation_rate, r.audit.is_private)
        for r in (delta_report, full_report)
    )

    ops = {
        "rows": scenario.rows,
        "rows_appended": n_append,
        "append_fraction": fraction,
        "published_records": delta_report.published_records,
        "n_groups": delta_report.n_groups,
        "groups_touched": delta_report.groups_touched,
        "n_chunks": delta_report.n_chunks,
        "n_chunks_dirty": delta_report.n_chunks_dirty,
        "dirty_fraction": delta_report.dirty_fraction,
        "mode": delta_report.mode,
        "rows_per_second": scenario.rows / delta_meas.best,
        "full_seconds_best": float(full_meas.best),
        "speedup_vs_full": float(full_meas.best / delta_meas.best),
    }
    return scenario.entry(
        delta_meas,
        ops,
        delta_report.timings,
        verdicts={
            "byte_identical": delta_out.read_bytes() == full_out.read_bytes(),
            "audits_agree": delta_audit == full_audit,
        },
    )
