"""batch-census: repeated in-memory ``repro.publish(table, strategy="sps")``.

The paper's in-memory path on a CENSUS sample.  Each op publishes the same
table with a fresh seed and no group-index reuse, so every op pays the group
index, the audit and the SPS enforce.  No CSV is written: a codec change
must leave this workload unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Any

from harness import DATASET_SEED, Op, TracedOp, median
from workloads.base import Workload, timed


def table_digest(table: Any) -> str:
    """sha256 of a table's schema names and code matrix."""
    digest = hashlib.sha256()
    digest.update("\x1f".join(table.schema.attribute_names).encode())
    digest.update(table.codes.tobytes())
    return digest.hexdigest()


class BatchCensus(Workload):
    name = "batch-census"
    main_kind = "publish"
    native = ("setup_s", "peak_rss_mb", "rows_per_s", "ops_per_s")
    layers = (
        "dataset.group_index_s",
        "dataset.groups",
        "core.audit_s",
        "core.audit_groups_per_s",
        "pipeline.enforce_s",
    )
    maps_to = {
        "dataset.group_index": "batch-census rows_per_s",
        "core.audit": "batch-census rows_per_s; serve-mixed audit misses",
        "pipeline.enforce": "batch-census rows_per_s",
    }

    @property
    def rows_per_op(self) -> int:
        return self.scale.census_rows

    def setup(self) -> None:
        import repro
        from repro.dataset.census import generate_census

        self._publish = repro.publish
        self.table = generate_census(self.scale.census_rows, seed=DATASET_SEED)
        # Warm-up: op 0's seed, so its digest doubles as a determinism check.
        report = repro.publish(self.table, strategy="sps", rng=self.ctx.seed_for("publish", 0))
        self.warmup_digest = table_digest(report.published)

    def step(self, i: int) -> Op:
        op, report = timed(
            "publish", self._publish, self.table, strategy="sps", rng=self.ctx.seed_for("publish", i)
        )
        op.detail["published"] = report.published
        return op

    def check(self, ops: list[Op]) -> dict[str, Any]:
        digests = []
        for op in ops:
            published = op.detail.pop("published", None)
            if published is None or len(published) == 0:
                op.fail("no published rows")
                continue
            digests.append(table_digest(published))
        same_as_warmup = bool(digests) and digests[0] == self.warmup_digest
        if not same_as_warmup and ops:
            ops[0].fail("op 0 digest differs from the warm-up publish with the same seed")
        return {
            "digests": [d[:16] for d in digests],
            "op0_matches_warmup": same_as_warmup,
        }

    # -- traced run --------------------------------------------------------- #
    def traced_step(self, i: int) -> TracedOp:
        from repro.core.testing import audit_table
        from repro.dataset.groups import personal_groups
        from repro.obs import span
        from repro.pipeline import PublishPipeline
        from repro.pipeline.strategy import get_strategy

        strategy = get_strategy("sps")
        with span("bench.op", workload=self.name, op=i) as root:
            with span("dataset.group_index") as sp_index:
                groups = personal_groups(self.table)
            spec = strategy.spec_for(self.table, strategy.resolve({}))
            with span("core.audit") as sp_audit:
                audit_table(self.table, spec, groups=groups)
            with span("pipeline.enforce") as sp_enforce:
                (
                    PublishPipeline("sps")
                    .with_rng(self.ctx.seed_for("publish", i))
                    .with_groups(groups)
                    .with_audit(False)
                    .run(self.table)
                )
        return TracedOp(
            wall=root.duration,
            layers={
                "dataset.group_index": sp_index.duration,
                "core.audit": sp_audit.duration,
                "pipeline.enforce": sp_enforce.duration,
            },
            counts={"dataset.groups": float(len(groups))},
        )

    def layer_values(self, traced: list[TracedOp]) -> dict[str, float]:
        audit_s = median([op.layers["core.audit"] for op in traced])
        groups = median([op.counts["dataset.groups"] for op in traced])
        return {
            "dataset.group_index_s": median([op.layers["dataset.group_index"] for op in traced]),
            "dataset.groups": groups,
            "core.audit_s": audit_s,
            "core.audit_groups_per_s": groups / audit_s,
            "pipeline.enforce_s": median([op.layers["pipeline.enforce"] for op in traced]),
        }
