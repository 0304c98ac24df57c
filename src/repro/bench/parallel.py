"""The ``parallel`` benchmark suite: worker-count scaling of the publishing engines.

Each scenario publishes the same synthetic CSV through
:func:`repro.stream.stream_publish` at a fixed seed while sweeping the
``workers`` axis (1, 2, 4) — the scheduler's thread pool against its own
sequential reference.  Per point the report records:

* **throughput** — rows/second (best of repeats, timed like every suite);
* **scaling** — ``speedup_vs_w1``, the ratio against the same strategy's
  ``workers=1`` point, i.e. the scaling curve;
* **byte identity** — whether the CSV produced at this worker count equals
  the ``workers=1`` CSV *and* the classic load-then-:func:`repro.publish`
  CSV bit for bit.  This is the suite's real verdict: it must be ``True``
  for every scenario on every machine.

The report carries ``environment.cpu_count``; read the scaling curve
against it — on a single-core runner the curve is flat-to-negative by
construction (pool overhead, nothing to schedule onto), and only
``byte_identical`` is meaningful there.  ``docs/streaming.md`` reads the
committed numbers for the worker-count tuning guide.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Any

from repro.bench.scenarios import Scenario
from repro.bench.timing import TimingSpec, time_callable
from repro.dataset.loaders import read_csv, write_csv
from repro.pipeline import publish
from repro.stream import stream_publish

_SENSITIVE = {"adult": "Income", "census": "Occupation"}

#: The worker-count axis every parallel scenario sweeps.
WORKER_AXIS = (1, 2, 4)


def parallel_scenarios(tiny: bool = False) -> list[Scenario]:
    """The parallel-suite scenario list: strategy × workers, workers ascending.

    Strategy-major order with ``workers=1`` first per strategy, so the
    baseline a later point is compared against always precedes it in the
    report (and in execution).
    """
    if tiny:
        points = [("sps", "adult", 2_000), ("dp-laplace", "adult", 2_000)]
        chunk_rows = 500
    else:
        points = [("sps", "adult", 45_222), ("dp-gaussian", "census", 100_000)]
        chunk_rows = 10_000
    return [
        Scenario(
            name=f"parallel/{strategy}/{dataset}-{rows}/c256/w{workers}",
            suite="parallel",
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


def run_parallel_scenario(
    scenario: Scenario,
    csv_path: Path,
    seed: int,
    timing: TimingSpec,
    workdir: Path,
    baselines: dict[tuple[str, str, int], dict[str, Any]],
) -> dict[str, Any]:
    """Benchmark one worker-count point and verify its bytes against the references.

    ``baselines`` accumulates, per ``(strategy, dataset, rows)``, the
    ``workers=1`` streamed CSV text, the in-memory published CSV text and
    the ``workers=1`` best time; the ``workers=1`` scenario of each strategy
    populates it (scenario order guarantees it runs first).
    """
    sensitive = _SENSITIVE[scenario.dataset]
    chunk_rows = int(scenario.params["chunk_rows"])
    out_path = workdir / f"{scenario.strategy}-{scenario.dataset}-w{scenario.workers}-out.csv"

    def once() -> Any:
        return stream_publish(
            csv_path,
            sensitive=sensitive,
            strategy=scenario.strategy,
            rng=seed,
            chunk_size=scenario.chunk_size,
            chunk_rows=chunk_rows,
            workers=scenario.workers,
            output=out_path,
        )

    report, measurement = time_callable(once, timing)
    produced = out_path.read_bytes().decode("utf-8")

    key = (scenario.strategy, scenario.dataset, scenario.rows)
    if key not in baselines:
        table = read_csv(csv_path, sensitive=sensitive)
        inmemory = publish(
            table, strategy=scenario.strategy, rng=seed, chunk_size=scenario.chunk_size
        )
        buffer = io.StringIO()
        write_csv(inmemory.published, buffer)
        baselines[key] = {"inmemory_csv": buffer.getvalue()}
    baseline = baselines[key]
    if scenario.workers == 1:
        baseline["w1_csv"] = produced
        baseline["w1_best"] = measurement.best

    byte_identical = (
        produced == baseline.get("w1_csv", produced)
        and produced == baseline["inmemory_csv"]
    )

    entry = scenario.to_json()
    entry["ops"] = {
        "rows": scenario.rows,
        "published_records": report.published_records,
        "n_groups": report.n_groups,
        "rows_per_second": scenario.rows / measurement.best,
        "byte_identical": bool(byte_identical),
    }
    if "w1_best" in baseline:
        entry["ops"]["speedup_vs_w1"] = baseline["w1_best"] / measurement.best
    # else: a scenario filter excluded the workers=1 point — omit the field
    # rather than report a fabricated 1.0 (byte_identical then compares
    # against the in-memory CSV only).
    entry["seconds"] = measurement.to_json()
    entry["stages"] = {stage: float(s) for stage, s in report.timings.items()}
    return entry
