"""The ``stream`` benchmark suite: out-of-core publishing at 1, 2 and 4 workers.

Each scenario publishes a synthetic CSV through
:func:`repro.stream.stream_publish` at one worker count and compares it
with the classic load-then-:func:`repro.publish` path.  Per point the
report records:

* **throughput** — rows/second of the streaming path, and
  ``speedup_vs_w1`` against the same data's ``workers=1`` point (read it
  against ``environment.cpu_count``);
* **peak tracked allocation** — ``tracemalloc`` peaks of both paths, in
  bytes.  Row counts come in ×10 growth pairs, so the report shows the
  streaming peak staying flat while the in-memory peak grows with ``n``;
* **byte identity** — the ``byte_identical`` verdict: the streamed CSV
  equals the in-memory published table's CSV bit for bit, at every worker
  count.

``docs/streaming.md`` reads the committed ``BENCH_stream.json`` for its
chunk-size and worker-count guides.
"""

from __future__ import annotations

import io
import tracemalloc
from collections.abc import Callable
from typing import Any

from repro.bench.scenarios import SENSITIVE, Context, Scenario
from repro.bench.timing import time_callable
from repro.dataset.loaders import read_csv, write_csv
from repro.pipeline import publish
from repro.stream import stream_publish

#: The worker-count axis every stream data point sweeps.
WORKER_AXIS = (1, 2, 4)

#: The verdicts every stream entry carries.
STREAM_VERDICTS = ("byte_identical",)


def stream_scenarios(tiny: bool = False) -> list[Scenario]:
    """Strategy-major, then rows ascending, then workers ascending.

    The ``workers=1`` point of each data point runs first, so the later
    points' ``speedup_vs_w1`` can read its time.
    """
    if tiny:
        # The 50k points run ~0.1 s, over the perf gate's 50 ms floor.
        points = [("sps", "adult", 5_000), ("sps", "adult", 50_000), ("dp-laplace", "adult", 2_000)]
        chunk_rows = 500
    else:
        points = [
            ("sps", "adult", 10_000),
            ("sps", "adult", 100_000),
            ("dp-laplace", "census", 10_000),
            ("dp-laplace", "census", 100_000),
            ("dp-gaussian", "census", 100_000),
        ]
        chunk_rows = 5_000
    return [
        Scenario(
            name=f"stream/{strategy}/{dataset}-{rows}/c256/r{chunk_rows}/w{workers}",
            strategy=strategy,
            dataset=dataset,
            rows=rows,
            chunk_size=256,
            workers=workers,
            params={"chunk_rows": chunk_rows},
        )
        for strategy, dataset, rows in points
        for workers in WORKER_AXIS
    ]


def _tracked_peak(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` once and return (result, peak tracemalloc bytes)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()


def run_stream_scenario(scenario: Scenario, ctx: Context) -> dict[str, Any]:
    """Benchmark one worker-count point against the in-memory publish."""
    sensitive = SENSITIVE[scenario.dataset]
    source = ctx.csv(scenario.dataset, scenario.rows)
    out_path = ctx.workdir / "stream-out.csv"

    def streaming_once() -> Any:
        return stream_publish(
            source,
            sensitive=sensitive,
            strategy=scenario.strategy,
            rng=ctx.seed,
            chunk_size=scenario.chunk_size,
            chunk_rows=int(scenario.params["chunk_rows"]),
            workers=scenario.workers,
            output=out_path,
        )

    def inmemory_once() -> str:
        table = read_csv(source, sensitive=sensitive)
        report = publish(table, strategy=scenario.strategy, rng=ctx.seed, chunk_size=scenario.chunk_size)
        buffer = io.StringIO()
        write_csv(report.published, buffer)
        return buffer.getvalue()

    report, measurement = time_callable(streaming_once, ctx.timing)
    _, stream_peak = _tracked_peak(streaming_once)
    point = (scenario.strategy, scenario.dataset, scenario.rows)
    inmemory_csv, inmemory_peak = ctx.once(("inmemory", *point), lambda: _tracked_peak(inmemory_once))
    if scenario.workers == 1:
        ctx.memo[("w1-best", *point)] = measurement.best

    ops: dict[str, Any] = {
        "rows": scenario.rows,
        "published_records": report.published_records,
        "n_groups": report.n_groups,
        "chunks_read": report.n_chunks,
        "rows_per_second": scenario.rows / measurement.best,
        "peak_tracked_streaming_bytes": int(stream_peak),
        "peak_tracked_inmemory_bytes": int(inmemory_peak),
    }
    w1_best = ctx.memo.get(("w1-best", *point))
    if w1_best is not None:
        # Omitted, not faked as 1.0, when a filter left out the w1 point.
        ops["speedup_vs_w1"] = w1_best / measurement.best
    return scenario.entry(
        measurement,
        ops,
        report.timings,
        verdicts={"byte_identical": out_path.read_bytes().decode("utf-8") == inmemory_csv},
    )
