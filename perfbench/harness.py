"""Shared machinery of the perfbench workloads.

Everything a workload needs besides its own calls into ``repro``: the run
context (seed, duration, scale, scratch directory), seeded per-op seeds, the
closed timing loop, the host-speed calibration, the statistics rules, peak
memory, the environment record, the end-to-end metric assembly and the
traced-run layer report.

Statistics rules (pinned by ``perfbench/tests``):

* a median comes from at least :data:`MEDIAN_SAMPLES` ops of the
  workload's main op kind: the load keeps going past ``--seconds`` until it
  has them;
* any other percentile is reported only when at least ten samples lie
  beyond it (``n * (1 - q) >= 10``), otherwise :func:`tail_percentile`
  raises — a workload that needs the percentile keeps running until it has
  the samples;
* latencies are taken over successful ops; failed and refused ops are
  counted, never timed;
* a workload that runs its load in blocks (``Op.block``) reports, for a
  median latency, each block's median averaged over the blocks (weighted by
  their ops) — see :func:`block_median`.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Minimum samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Fewest ops of its main kind a run's medians come from.  A census op takes
#: seconds, so a run of ``run_seconds`` alone would hold only two or three.
MEDIAN_SAMPLES = 4

#: Seed of the synthetic census and adult samples.  Like the paper's fixed
#: datasets, the data is the same in every run; the workload seed drives
#: everything a user varies (publish seeds, appended rows, op order).
DATASET_SEED = 0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, too few cores, ...)."""


# ---------------------------------------------------------------------- #
# Scale and run context
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scale:
    """Input sizes of every workload.

    ``full`` is what ``BENCHMARK.json`` runs; ``tiny`` keeps the same shapes
    at sizes the benchmark's own tests can afford.
    """

    name: str
    census_rows: int
    adult_rows: int
    #: Rows per delta-census append, copied from ``append_groups`` records.
    append_rows: int
    append_groups: int
    #: Rows per serve-mixed append (same construction).
    serve_append_rows: int
    #: Repetitions of the serve traced-run probes.
    probe_repeats: int


SCALES = {
    "full": Scale("full", 100_000, 20_000, 20, 4, 8, 10),
    "tiny": Scale("tiny", 3_000, 2_000, 8, 2, 4, 3),
}


# ---------------------------------------------------------------------- #
# Host speed
# ---------------------------------------------------------------------- #
#: Median seconds of :func:`calibration_kernel` on the reference host (a
#: 2-vCPU x86-64 VM, Python 3.11, numpy 2.4).  End-to-end times and rates
#: are reported at that host speed.
REFERENCE_CALIBRATION_S = 0.09

#: Samples a run takes together before its set-up and after each op.  The
#: host switches between speed modes up to 1.6x apart that last a second or
#: more; a few samples per gap place the gap in its mode, where one sample
#: alone is often an outlier.
BURST = 5


def calibration_kernel() -> float:
    """Seconds of a fixed mix of numpy and interpreter work.

    It calls nothing in ``repro``, so no change to the program moves it;
    only the speed of the host does.
    """
    begin = time.perf_counter()
    for _ in range(3):
        values = np.sin(np.arange(500_000, dtype=float))
        values.sort()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - begin


def _kernel_on_request(conn: Any) -> None:
    """Helper-process loop: run the kernel per request until sent ``None``."""
    while conn.recv() is not None:
        conn.send(calibration_kernel())


class HostSpeed:
    """Calibration samples taken through one run.

    The 2-vCPU host this benchmark was tuned on swings in speed by 15-20%
    over tens of seconds, alike for the program and for the calibration
    kernel (correlation 0.8-0.92 between their medians over 4-second
    windows), so every run is measured at whatever speed the host had then.
    Scaling the run's times by ``REFERENCE_CALIBRATION_S`` over the run's
    median sample reports them at one host speed; it halved the variation
    of repeated sps publishes (coefficient of variation 0.12 -> 0.07).  Raw
    values are printed in the run's details.

    ``width`` is the number of cores the workload's timed op keeps busy.  A
    sample runs the kernel on that many cores at once (the parent plus
    ``width - 1`` helper processes) and reports the harmonic mean of the
    copies' times: the time of work shared out over those cores, as a pool
    shares its chunks.  So it sees what such an op sees: with one core taken
    by another program, a one-core sample still finds a free core while a
    two-core op slows by 40%.  Helpers are plain processes (no threads in
    this one, so the program's own pools start as they would for a user);
    :meth:`close` stops and waits for them.
    """

    def __init__(self, width: int = 1) -> None:
        self.width = width
        self.samples: list[float] = []
        self._helpers: list[tuple[Any, Any]] = []

    def sample(self) -> float:
        """Take one sample; returns the wall seconds it took."""
        if len(self._helpers) < self.width - 1:
            self._start_helpers()
        begin = time.perf_counter()
        for conn, _ in self._helpers:
            conn.send(True)
        times = [calibration_kernel()]
        times += [conn.recv() for conn, _ in self._helpers]
        self.samples.append(len(times) / sum(1.0 / t for t in times))
        return time.perf_counter() - begin

    def burst(self) -> float:
        """Take :data:`BURST` samples; returns the wall seconds they took."""
        return sum(self.sample() for _ in range(BURST))

    def _start_helpers(self) -> None:
        context = multiprocessing.get_context("fork")
        for _ in range(self.width - 1 - len(self._helpers)):
            parent, child = context.Pipe()
            proc = context.Process(target=_kernel_on_request, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._helpers.append((parent, proc))

    def close(self) -> None:
        """Stop the helper processes and wait for each (idempotent)."""
        helpers, self._helpers = self._helpers, []
        for conn, proc in helpers:
            try:
                conn.send(None)
            except OSError:
                pass  # already gone
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()

    def factor(self) -> float:
        """Reference over measured speed: below 1 on a slower host."""
        return REFERENCE_CALIBRATION_S / median(self.samples)


def at_reference_speed(values: dict[str, float], units: dict[str, str], factor: float) -> dict[str, float]:
    """Scale times (unit ``s``) by ``factor`` and rates (``1/s``) by its inverse."""
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {name: value * scale.get(units[name], 1.0) for name, value in values.items()}


@dataclass
class Context:
    """One benchmark run: what to run, where, and with which inputs."""

    workload: str
    seed: int
    seconds: float
    scale: Scale
    root: Path
    work: Path
    out: Path
    host: HostSpeed = field(default_factory=HostSpeed)

    def seed_for(self, *tags: Any) -> int:
        """A 31-bit seed derived from the workload seed and ``tags``."""
        return op_seed(self.seed, *tags)

    def src(self) -> Path:
        return self.root / "src"


def op_seed(seed: int, *tags: Any) -> int:
    """Deterministic 31-bit seed for ``(seed, *tags)`` (tags hashed stably)."""
    words = [int(seed)]
    for tag in tags:
        if isinstance(tag, int) and tag >= 0:
            words.append(tag)
        else:
            words.append(int.from_bytes(hashlib.sha256(str(tag).encode()).digest()[:4], "big"))
    return int(np.random.SeedSequence(words).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------- #
# Ops and statistics
# ---------------------------------------------------------------------- #
@dataclass
class Op:
    """One timed operation of a workload's load."""

    kind: str
    seconds: float
    ok: bool = True
    refused: bool = False
    #: Block of the load this op ran in (see :func:`block_median`).
    block: int = 0
    error: str = ""
    #: Whatever the output checks need (digests, bodies, row counts...).
    detail: dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.ok = False
        if not self.error:
            self.error = reason


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(np.median(np.asarray(values, dtype=float)))


def block_median(ops: list[Op]) -> float:
    """The median seconds of ``ops`` per block, averaged over the blocks.

    Blocks are weighted by their op count; ops of one block give the plain
    median.  On a host whose speed swings by half within seconds, a pooled
    median of short ops jumps between the fast and the slow mode with the
    share of ops each got; a block (a few seconds of one op mix) sees one
    mode, and the average over blocks moves smoothly with that share.
    """
    blocks: dict[int, list[float]] = {}
    for op in ops:
        blocks.setdefault(op.block, []).append(op.seconds)
    total = sum(len(sample) for sample in blocks.values())
    return sum(len(sample) * median(sample) for sample in blocks.values()) / total


def tail_percentile(values: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile, only when ten samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < TAIL_SAMPLES:
        raise ValueError(f"p{round(q * 100)} of {n} samples has {n - rank} beyond it, needs {TAIL_SAMPLES}")
    return float(sorted(values)[rank - 1])


def closed_loop(
    seconds: float, step: Callable[[int], Op], host: HostSpeed
) -> tuple[list[Op], float]:
    """Run ``step(i)`` until ``seconds`` passed and at least
    :data:`MEDIAN_SAMPLES` ops ran, with a burst of host-speed samples
    after each.

    Returns the ops and the loop's wall-clock seconds without the samples.
    ``step`` times its own call; an exception it raises is recorded as a
    failed op.
    """
    ops: list[Op] = []
    calibrating = 0.0
    start = time.perf_counter()
    i = 0
    while i < MEDIAN_SAMPLES or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        try:
            ops.append(step(i))
        except Exception as exc:  # a failed op is data, not a crash
            ops.append(Op("error", time.perf_counter() - begin, ok=False, error=repr(exc)))
        calibrating += host.burst()
        i += 1
    return ops, time.perf_counter() - start - calibrating


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for descendant.

    A child counts only once it has been waited for: stop servers first.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def count_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #
def git_commit(root: Path) -> str | None:
    """The checkout's commit, or ``None`` when it is not a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over ``src/**/*.py`` (names and bytes) — identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(ctx: Context, load: dict[str, int]) -> dict[str, Any]:
    """Runtime environment, seed, code identity and the load shape of a run.

    Refuses (``BenchError``) a load that asks for more threads, connections
    or pool workers than this machine has cores.
    """
    from repro.obs import runtime_environment

    cpus = len(os.sched_getaffinity(0))
    for what, count in load.items():
        if count > cpus:
            raise BenchError(f"{what}={count} exceeds the {cpus} available cores; refusing to start")
    return {
        **runtime_environment(),
        "nproc": cpus,
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "scale": ctx.scale.name,
        "git_commit": git_commit(ctx.root),
        "source_digest": source_digest(ctx.src()),
        "load": dict(load),
    }


# ---------------------------------------------------------------------- #
# End-to-end metrics
# ---------------------------------------------------------------------- #
#: Per-op-kind median latency metrics: (metric, op kind).
LATENCY_METRICS = (
    ("append_p50_s", "append"),
    ("audit_p50_s", "audit"),
    ("publish_p50_s", "publish"),
    ("csv_p50_s", "csv"),
)


def end_to_end(
    *,
    ops: list[Op],
    wall: float,
    setup_s: float,
    rss_mb: float,
    main_kind: str,
    rows_per_op: int,
) -> dict[str, float]:
    """Every end-to-end metric of one run.

    A latency metric whose op kind the workload does not run is *carried*:
    it reports the median of the workload's main op kind (the only op the
    user of that path waits for), and ``rows_per_s`` is always
    ``rows_per_op`` over that median.  The benchmark contract requires every
    metric on every run; each workload's ``native`` tuple says which values
    are its own measurements.
    """
    by_kind: dict[str, list[Op]] = {}
    for op in ops:
        if op.ok:
            by_kind.setdefault(op.kind, []).append(op)
    main = block_median(by_kind[main_kind])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "rows_per_s": rows_per_op / main,
        "ops_per_s": sum(1 for op in ops if op.ok) / wall,
    }
    for name, kind in LATENCY_METRICS:
        sample = by_kind.get(kind)
        metrics[name] = block_median(sample) if sample else main
    return metrics


def op_counts(ops: list[Op]) -> dict[str, dict[str, int]]:
    """Attempted / failed / refused per op kind."""
    counts: dict[str, dict[str, int]] = {}
    for op in ops:
        entry = counts.setdefault(op.kind, {"attempted": 0, "failed": 0, "refused": 0})
        entry["attempted"] += 1
        entry["failed"] += 0 if op.ok else 1
        entry["refused"] += 1 if op.refused else 0
    return counts


# ---------------------------------------------------------------------- #
# Traced runs: layer report
# ---------------------------------------------------------------------- #
@dataclass
class TracedOp:
    """One decomposed op of a traced run.

    ``layers`` maps a layer name to the seconds spent in it during this op;
    the layers of one op are disjoint calls (or disjoint stages copied from
    a report's ``timings``), so each value is that layer's self time and
    ``wall - sum(layers)`` is the residual the benchmark's spans do not
    cover.
    """

    wall: float
    layers: dict[str, float]
    counts: dict[str, float] = field(default_factory=dict)


def layer_report(
    traced: list[TracedOp], maps_to: dict[str, str]
) -> dict[str, Any]:
    """Per-layer self time, share, count and mapped metric over traced ops."""
    total_wall = sum(op.wall for op in traced)
    layers: dict[str, dict[str, Any]] = {}
    for op in traced:
        for name, seconds in op.layers.items():
            entry = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += seconds
            entry["calls"] += 1
    covered = sum(entry["self_s"] for entry in layers.values())
    for name, entry in layers.items():
        entry["share"] = entry["self_s"] / total_wall if total_wall else 0.0
        entry["maps_to"] = maps_to.get(name, "")
    return {
        "ops": len(traced),
        "op_wall_s": total_wall,
        "residual_s": total_wall - covered,
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])),
    }


def alternate(
    seconds: float, step: Callable[[int, bool], TracedOp]
) -> tuple[list[TracedOp], list[TracedOp]]:
    """Alternate untraced and traced calls of ``step(i, traced)``.

    Returns ``(untraced, traced)``; the pairs run until ``seconds`` passed
    (at least one pair), so the tracing overhead compares ops measured under
    the same conditions.
    """
    plain: list[TracedOp] = []
    traced: list[TracedOp] = []
    start = time.perf_counter()
    i = 0
    while not traced or time.perf_counter() - start < seconds:
        plain.append(step(i, False))
        traced.append(step(i + 1, True))
        i += 2
    return plain, traced


def tracing_overhead(plain: list[TracedOp], traced: list[TracedOp]) -> float:
    """Median traced op wall minus median untraced op wall (may be negative)."""
    return median([op.wall for op in traced]) - median([op.wall for op in plain])


# ---------------------------------------------------------------------- #
# Result assembly
# ---------------------------------------------------------------------- #
def load_declaration(root: Path) -> dict[str, Any]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found; run from the repository root")
    return json.loads(path.read_text())


def units(declaration: dict[str, Any], section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in declaration[section]}


def result_line(
    declared: dict[str, str],
    values: dict[str, float],
    *,
    correct: bool,
    attempted: int,
    failed: int,
) -> dict[str, Any]:
    """The final stdout line: exactly the declared metrics, each with its unit."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise BenchError(f"metric mismatch: missing {missing}, undeclared {extra}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }


def scratch_dir(root: Path, workload: str) -> Path:
    path = root / ".perfbench" / f"work-{workload}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
