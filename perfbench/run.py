"""Run one perfbench workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-census --seed 1 --seconds 12 --trace 0

Prints a details object (environment, ops per kind, output checks, carried
metrics, host speed and raw metrics, and for ``--trace 1`` the layer report)
and, as the last line, the result object ``{"correct", "attempted",
"failed", "metrics"}``: every ``end_to_end`` metric of ``BENCHMARK.json``,
times and rates at the reference host speed (see ``harness.HostSpeed``),
with ``--trace 0``; every ``per_layer`` metric with ``--trace 1``.  Exits 2
without a result when the program under test (``src/repro``) is not next to
it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from harness import (
    SCALES,
    BenchError,
    Context,
    HostSpeed,
    at_reference_speed,
    end_to_end,
    environment,
    layer_report,
    load_declaration,
    op_counts,
    peak_rss_mb,
    result_line,
    scratch_dir,
    tracing_overhead,
    units,
)
from workloads import WORKLOADS


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    return parser.parse_args(argv)


def run_load(workload, ctx: Context, declared: dict[str, str]) -> tuple[dict, dict]:
    ctx.host.burst()  # the host speed of the set-up
    begin = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - begin
    ops, wall = workload.load()
    # Stop and wait for any server before reading peak memory, so that it
    # counts; the checks build their own references and must not.
    workload.close()
    rss_mb = peak_rss_mb()
    checks = workload.check(ops)
    values = end_to_end(
        ops=ops,
        wall=wall,
        setup_s=setup_s,
        rss_mb=rss_mb,
        main_kind=workload.main_kind,
        rows_per_op=workload.rows_per_op,
    )
    failed = sum(1 for op in ops if not op.ok)
    factor = ctx.host.factor()
    details = {
        "ops": op_counts(ops),
        "main_op_s": [op.seconds for op in ops if op.kind == workload.main_kind],
        "load_wall_s": wall,
        "checks": checks,
        "carried": [name for name in declared if name not in workload.native],
        "errors": sorted({op.error for op in ops if op.error})[:5],
        "host_speed": {"factor": factor, "width": ctx.host.width, "samples": ctx.host.samples},
        "raw_metrics": values,
    }
    result = result_line(
        declared,
        at_reference_speed(values, declared, factor),
        correct=failed == 0,
        attempted=len(ops),
        failed=failed,
    )
    return result, details


def run_trace(workload, ctx: Context, declared: dict[str, str]) -> tuple[dict, dict]:
    from repro.obs import Tracer, validate_trace, write_trace

    workload.setup()
    tracer = Tracer()
    plain, traced, values = workload.trace(tracer)
    trace_path = ctx.out / f"{ctx.workload}-seed{ctx.seed}.jsonl"
    write_trace(tracer, trace_path)
    n_spans = validate_trace(trace_path)
    report = layer_report(traced, workload.maps_to)
    report["tracing_overhead_s"] = tracing_overhead(plain, traced)
    report["trace"] = {"path": str(trace_path.relative_to(ctx.root)), "spans": n_spans}
    (ctx.out / f"{ctx.workload}-seed{ctx.seed}-layers.json").write_text(json.dumps(report, indent=2))
    # Layers this workload never calls report zero time / zero count.
    full = {name: 0.0 for name in declared}
    full.update(values)
    full["obs.tracing_overhead_s"] = report["tracing_overhead_s"]
    result = result_line(declared, full, correct=True, attempted=len(plain) + len(traced), failed=0)
    return result, {"layer_report": report}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'repro'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        declaration = load_declaration(root)
        section = "per_layer" if args.trace else "end_to_end"
        declared = units(declaration, section)
        work = scratch_dir(root, args.workload)
        out = root / ".perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        ctx = Context(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            scale=SCALES[args.scale],
            root=root,
            work=work,
            out=out,
        )
        workload = WORKLOADS[args.workload](ctx)
        ctx.host = HostSpeed(workload.cores)
        try:
            env = environment(ctx, workload.load_shape)
            runner = run_trace if args.trace else run_load
            result, details = runner(workload, ctx, declared)
        finally:
            workload.close()
            ctx.host.close()
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": env, **details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
