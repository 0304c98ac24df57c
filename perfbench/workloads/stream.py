"""stream-census: repeated ``stream_publish`` of a census CSV to a CSV.

The out-of-core path ``repro-stream`` runs: read and index the CSV in
bounded chunks, run the dp-laplace kernel over seeded group chunks on two
pool workers, and render every published row to CSV.  dp-laplace does not
audit, so this workload isolates the CSV codec and the scheduler.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from harness import DATASET_SEED, Op, TracedOp, count_lines, median
from workloads.base import Workload, timed

STRATEGY = "dp-laplace"
WORKERS = 2


class StreamCensus(Workload):
    name = "stream-census"
    main_kind = "publish"
    cores = WORKERS
    native = ("setup_s", "peak_rss_mb", "rows_per_s", "ops_per_s")
    layers = (
        "stream.read_s",
        "stream.index_s",
        "parallel.kernel_s",
        "parallel.encode_s",
        "parallel.encoded_mb",
    )
    maps_to = {
        "stream.read": "stream-census rows_per_s",
        "stream.index": "stream-census rows_per_s",
        "parallel.kernel": "stream-census rows_per_s",
        "parallel.encode": "stream-census rows_per_s; delta-census append_p50_s",
    }

    @property
    def load_shape(self) -> dict[str, int]:
        return {"client_threads": 1, "pool_workers": WORKERS}

    @property
    def rows_per_op(self) -> int:
        return self.scale.census_rows

    def setup(self) -> None:
        from repro.dataset.census import generate_census
        from repro.dataset.loaders import write_csv
        from repro.stream import stream_publish

        self._stream_publish = stream_publish
        table = generate_census(self.scale.census_rows, seed=DATASET_SEED)
        self.sensitive = table.schema.sensitive_name
        self.source = self.ctx.work / "census.csv"
        write_csv(table, self.source)
        self.run_publish(self.ctx.work / "warmup.csv", self.ctx.seed_for("publish", 0))
        (self.ctx.work / "warmup.csv").unlink()

    def run_publish(self, output: Any, seed: int) -> Any:
        return self._stream_publish(
            self.source,
            sensitive=self.sensitive,
            strategy=STRATEGY,
            rng=seed,
            workers=WORKERS,
            output=output,
        )

    def step(self, i: int) -> Op:
        output = self.ctx.work / f"out-{i}.csv"
        op, report = timed("publish", self.run_publish, output, self.ctx.seed_for("publish", i))
        op.detail.update(output=output, published_records=report.published_records)
        return op

    def check(self, ops: list[Op]) -> dict[str, Any]:
        counts = []
        for op in ops:
            output = op.detail.get("output")
            if output is None or not output.exists():
                op.fail("no output file")
                continue
            rows = count_lines(output) - 1
            output.unlink()
            counts.append([rows, op.detail["published_records"]])
            if rows != op.detail["published_records"]:
                op.fail(f"output has {rows} rows, report says {op.detail['published_records']}")
        return {"rows_vs_published_records": counts}

    # -- traced run --------------------------------------------------------- #
    def traced_step(self, i: int) -> TracedOp:
        from repro.obs import span
        from repro.parallel.kernels import StrategyKernel, encode_block_csv
        from repro.parallel.scheduler import run_chunks
        from repro.pipeline.execution import DEFAULT_CHUNK_SIZE
        from repro.pipeline.strategy import get_strategy
        from repro.stream import ChunkedReader
        from repro.stream.index import IncrementalGroupIndex

        strategy = get_strategy(STRATEGY)
        resolved = strategy.resolve({})
        with span("bench.op", workload=self.name, op=i) as root:
            with span("stream.read") as sp_read:
                reader = ChunkedReader(self.source, self.sensitive)
                chunks = list(reader.chunks())
            with span("stream.index") as sp_index:
                index = IncrementalGroupIndex(reader.public_names or [], self.sensitive)
                for chunk in chunks:
                    index.update(chunk)
                schema, groups = index.finalize()
            spec = strategy.spec_for(SimpleNamespace(schema=schema), resolved)
            kernel = StrategyKernel(strategy, schema, spec, dict(resolved))
            with span("parallel.kernel") as sp_kernel:
                results = run_chunks(
                    groups, kernel, self.ctx.seed_for("publish", i), DEFAULT_CHUNK_SIZE, workers=WORKERS
                )
            with span("parallel.encode") as sp_encode:
                encoded = [encode_block_csv(schema, block) for block, _ in results]
        return TracedOp(
            wall=root.duration,
            layers={
                "stream.read": sp_read.duration,
                "stream.index": sp_index.duration,
                "parallel.kernel": sp_kernel.duration,
                "parallel.encode": sp_encode.duration,
            },
            counts={"parallel.encoded_mb": sum(len(e.text) for e in encoded) / 1e6},
        )

    def layer_values(self, traced: list[TracedOp]) -> dict[str, float]:
        def layer(name: str) -> float:
            return median([op.layers[name] for op in traced])

        return {
            "stream.read_s": layer("stream.read"),
            "stream.index_s": layer("stream.index"),
            "parallel.kernel_s": layer("parallel.kernel"),
            "parallel.encode_s": layer("parallel.encode"),
            "parallel.encoded_mb": median([op.counts["parallel.encoded_mb"] for op in traced]),
        }
