"""Quickstart: publish a table under (lambda, delta)-reconstruction privacy.

Generates a synthetic ADULT sample, publishes it through the strategy-first
pipeline (``repro.publish``), and shows that aggregate statistics survive
while the personal group of a single individual no longer supports accurate
reconstruction.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import repro


def main() -> None:
    # 1. The raw data: 20,000 ADULT-like records, Income is sensitive.
    table = repro.generate_adult(20_000, seed=20150323)
    print(f"raw data: {len(table)} records, "
          f"{table.schema.public_names} public, {table.schema.sensitive_name!r} sensitive")
    print(f"available strategies: {repro.available_strategies()}")

    # 2. One call runs the whole pipeline with the paper's default parameters:
    #    prepare -> generalize -> audit -> enforce (SPS) -> report.
    report = repro.publish(
        table,
        strategy="generalize+sps",
        lam=0.3,
        delta=0.3,
        retention_probability=0.5,
        rng=0,
    )

    # 3. The report carries the pre-publication audit: how exposed was the
    #    raw data under plain uniform perturbation?
    audit = report.audit
    print(f"before SPS: {audit.group_violation_rate:.1%} of personal groups violate "
          f"(0.3, 0.3)-reconstruction privacy, covering {audit.record_violation_rate:.1%} of records")
    print(f"published {len(report.published)} records; "
          f"{report.n_sampled_groups}/{len(report.records)} groups needed sampling")

    # 4. Aggregate reconstruction still works: the overall income distribution
    #    recovered from the published data matches the raw data closely.
    p = report.spec.retention_probability
    published_counts = report.published.sensitive_counts()
    estimate = repro.mle_frequencies(published_counts, p)
    truth = report.prepared.sensitive_frequencies()
    print("aggregate >50K frequency: "
          f"true {truth[1]:.4f} vs reconstructed {estimate[1]:.4f}")

    # 5. Personal reconstruction is blunted: the largest personal group now
    #    carries only ~s_g independent coin tosses.  The personal groups and
    #    the report's per-group records are aligned arrays, row for row.
    groups = repro.personal_groups(report.prepared)
    sizes = groups.sizes()
    biggest = int(sizes.argmax())
    records = report.records
    print(f"largest personal group: {sizes[biggest]} records "
          f"(top income share {groups.max_counts()[biggest] / sizes[biggest]:.2f}), "
          f"sampled down to {records.sample_sizes[biggest]} independent perturbations "
          f"(s_g = {records.thresholds[biggest]:.0f})")

    # 6. Per-stage wall-clock timings come with every report.
    stages = ", ".join(f"{stage} {seconds * 1000:.1f}ms"
                       for stage, seconds in report.timings.items())
    print(f"pipeline stages: {stages}")


if __name__ == "__main__":
    main()
