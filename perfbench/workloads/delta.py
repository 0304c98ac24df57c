"""delta-census: chained ``delta_publish`` appends to a published census.

Set-up publishes the census CSV once with ``publish_base`` (dp-laplace).
Each op appends a small batch copied from a few existing records, so the
sensitive domain never grows, only a handful of kernel chunks turn dirty,
and most of an append is the splice that carries the clean chunks over.
"""

from __future__ import annotations

import csv
import filecmp
import shutil
from typing import Any

import numpy as np

from harness import DATASET_SEED, Op, TracedOp, median
from workloads.base import Workload, timed

STRATEGY = "dp-laplace"
#: Pool workers of the base publish (set-up) and of the reference publish
#: (check); appends run serially.
BASE_WORKERS = 2


def copied_rows(records: list[tuple[str, ...]], n_rows: int, n_groups: int, seed: int) -> list[list[str]]:
    """``n_rows`` rows copied round-robin from ``n_groups`` random records."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(records), size=n_groups, replace=False)
    return [list(records[int(picks[k % n_groups])]) for k in range(n_rows)]


class DeltaCensus(Workload):
    name = "delta-census"
    main_kind = "append"
    native = ("setup_s", "peak_rss_mb", "append_p50_s", "ops_per_s")
    layers = (
        "delta.splice_s",
        "delta.dirty_chunk_ratio",
        "delta.output_mb",
        "delta.state_save_s",
        "delta.state_mb",
    )
    maps_to = {
        "delta.splice": "delta-census append_p50_s",
        "delta.diff": "delta-census append_p50_s",
        "delta.finalize": "delta-census append_p50_s",
        "delta.other_stages": "delta-census append_p50_s",
        "delta.state_save": "delta-census append_p50_s; serve-mixed append_p50_s",
    }

    @property
    def load_shape(self) -> dict[str, int]:
        return {"client_threads": 1, "pool_workers": BASE_WORKERS}

    @property
    def rows_per_op(self) -> int:
        # An append re-publishes the whole dataset.
        return self.scale.census_rows

    def setup(self) -> None:
        from repro.dataset.census import generate_census
        from repro.dataset.loaders import write_csv
        from repro.delta import delta_publish, publish_base

        self._delta_publish = delta_publish
        self._publish_base = publish_base
        table = generate_census(self.scale.census_rows, seed=DATASET_SEED)
        self.sensitive = table.schema.sensitive_name
        self.records = table.records()
        self.source = self.ctx.work / "census.csv"
        self.published = self.ctx.work / "published.csv"
        write_csv(table, self.source)
        self.state = self.base_publish(self.source, self.published).state
        self.batches: list[list[list[str]]] = []
        self.append("warm-up")

    def base_publish(self, source: Any, output: Any) -> Any:
        return self._publish_base(
            source,
            sensitive=self.sensitive,
            output=output,
            strategy=STRATEGY,
            rng=self.ctx.seed_for("base"),
            workers=BASE_WORKERS,
        )

    def batch(self, i: int | str) -> list[list[str]]:
        return copied_rows(
            self.records, self.scale.append_rows, self.scale.append_groups, self.ctx.seed_for("append", i)
        )

    def append(self, i: int | str) -> Any:
        rows = self.batch(i)
        report = self._delta_publish(self.state, rows)
        self.batches.append(rows)
        self.state = report.state
        return report

    def step(self, i: int) -> Op:
        op, report = timed("append", self.append, i)
        op.detail.update(mode=report.mode, dirty=report.n_chunks_dirty, chunks=report.n_chunks)
        if report.mode != "delta":
            op.fail(f"append ran in {report.mode!r} mode")
        return op

    def check(self, ops: list[Op]) -> dict[str, Any]:
        """The spliced file must byte-equal one full publish of base + appends."""
        full_source = self.ctx.work / "full.csv"
        shutil.copyfile(self.source, full_source)
        with full_source.open("a", newline="") as handle:
            writer = csv.writer(handle)
            for rows in self.batches:
                writer.writerows(rows)
        reference = self.ctx.work / "reference.csv"
        self.base_publish(full_source, reference)
        identical = filecmp.cmp(reference, self.published, shallow=False)
        if not identical:
            for op in ops:
                op.fail("spliced output differs from a full publish of base + appends")
        return {
            "appends": len(self.batches),
            "dirty_chunks": [op.detail.get("dirty") for op in ops],
            "chunks": ops[0].detail.get("chunks") if ops else None,
            "spliced_equals_full_publish": identical,
        }

    # -- traced run --------------------------------------------------------- #
    def traced_step(self, i: int) -> TracedOp:
        from repro.obs import span

        state_path = self.ctx.work / "state.json"
        with span("bench.op", workload=self.name, op=i) as root:
            with span("delta.append") as sp_append:
                report = self.append(i)
            with span("delta.state_save") as sp_save:
                report.state.save(state_path)
        # The append's own span-derived stage timings, copied as-is; the
        # call's remainder is booked to "delta.other_stages".
        stages = {f"delta.{stage}": seconds for stage, seconds in report.timings.items()}
        main = {name: stages.pop(name, 0.0) for name in ("delta.splice", "delta.diff", "delta.finalize")}
        main["delta.other_stages"] = max(0.0, sp_append.duration - sum(main.values()))
        main["delta.state_save"] = sp_save.duration
        return TracedOp(
            wall=root.duration,
            layers=main,
            counts={
                "delta.dirty_chunk_ratio": report.n_chunks_dirty / report.n_chunks,
                "delta.output_mb": self.published.stat().st_size / 1e6,
                "delta.state_mb": state_path.stat().st_size / 1e6,
            },
        )

    def layer_values(self, traced: list[TracedOp]) -> dict[str, float]:
        def count(name: str) -> float:
            return median([op.counts[name] for op in traced])

        return {
            "delta.splice_s": median([op.layers["delta.splice"] for op in traced]),
            "delta.dirty_chunk_ratio": count("delta.dirty_chunk_ratio"),
            "delta.output_mb": count("delta.output_mb"),
            "delta.state_save_s": median([op.layers["delta.state_save"] for op in traced]),
            "delta.state_mb": count("delta.state_mb"),
        }
