"""The incremental (delta) re-publish engine.

The paper's group-wise publishing model makes appends cheap: published
output is a pure function of the ordered personal-group list, the seed and
the chunk size, and each kernel chunk draws from its own spawned generator
(``SeedSequence(seed).spawn(n)[i]`` depends only on ``i``, never on ``n``).
So when rows are appended, only the chunks whose group slice actually
changed need their kernels re-run — every other chunk's bytes are already
sitting in the published CSV and are copied as byte ranges, each checked
against the CRC32 the state recorded for it, not recomputed.

:func:`publish_base` runs the streaming engine once and captures a
:class:`~repro.delta.state.DeltaState`; :func:`delta_publish` merges
appended rows into the stored counts (via an
:class:`~repro.stream.index.IncrementalGroupIndex` over the *appended rows
only* — the delta-determinism lint rule ``RPR007`` statically forbids
full-table re-indexing here) by locating each appended group's position in
the sorted stored groups, takes the dirty chunks from those positions,
regenerates exactly those chunks through the scheduler's run dispatch
(:func:`~repro.parallel.scheduler.iter_run_results`, handed the dirty chunk
ids, so each chunk draws from the same generator as in a full publish), and
splices
the result together atomically (temp file + ``os.replace``, so a failure at
any point leaves the previously published file untouched).

Determinism contract (pinned by ``tests/test_delta.py`` and the hypothesis
suite in ``tests/test_delta_properties.py``): for every strategy declaring
``delta_capable`` and any ``(seed, chunk_rows, workers, append split)``,
``delta_publish(published_base, appended)`` is byte-identical to a full
publish of ``base + appended`` — CSV bytes, audit and per-chunk RNG streams.
When the append grows the **sensitive** domain, every chunk's draws change
(the perturbation matrix dimension ``m`` changes); the engine then falls
back to regenerating all chunks — loudly, via a warning log and
``report.mode == "full"`` — rather than silently diverging.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import os
import threading
import zlib
from collections.abc import Callable, Iterator, Sequence
from contextlib import closing
from functools import partial
from pathlib import Path
from typing import IO, Any, cast

import numpy as np

from repro.core.sps import SPSRecords
from repro.core.testing import PrivacyAudit, audit_groups
from repro.dataset.groups import GroupCounts, _row_codes
from repro.dataset.schema import Attribute, Schema
from repro.delta.report import DeltaReport
from repro.delta.state import DeltaState
from repro.obs.metrics import (
    DELTA_GROUPS_TOUCHED,
    DELTA_ROWS_APPENDED,
    PUBLISH_RUNS,
    ROWS_PUBLISHED,
)
from repro.obs.trace import span
from repro.parallel.scheduler import iter_run_results
from repro.pipeline.execution import DEFAULT_CHUNK_ROWS, DEFAULT_CHUNK_SIZE
from repro.pipeline.strategy import PublishStrategy, get_strategy
from repro.stream.engine import (
    _audited,
    _chunk_kernel,
    _CsvSink,
    _index_source,
    _run,
    _spec_for,
)
from repro.stream.reader import ChunkedReader

_log = logging.getLogger("repro.delta")

#: Optional progress callback: small JSON-ready dicts with a ``phase`` key.
ProgressCallback = Callable[[dict[str, Any]], None]


class DeltaUnsupportedError(ValueError):
    """The strategy declares no incremental re-publish support.

    Raised by :func:`publish_base` (and re-checked by :func:`delta_publish`)
    for strategies with ``delta_capable = False`` — e.g. ``uniform``, whose
    draws walk one global row spool, or ``generalize+sps``, where one
    appended row can re-key every group.  Use a full re-publish
    (:func:`repro.publish` / :func:`repro.stream.stream_publish`) instead.
    """


def _require_delta_capable(strategy: PublishStrategy) -> None:
    if not strategy.delta_capable:
        raise DeltaUnsupportedError(
            f"strategy {strategy.name!r} declares delta_capable = False: its "
            "published bytes are not a per-chunk function of the group "
            "counts, so an append cannot be spliced incrementally; re-publish "
            "in full with repro.publish or repro.stream.stream_publish"
        )


def _require_output_path(output: Any) -> Path:
    if output is None or hasattr(output, "write"):
        raise ValueError(
            "delta publishing requires a CSV output *path*: the splice step "
            "re-reads the published file and atomically replaces it"
        )
    return Path(output)


def publish_base(
    source: str | Path | IO[str],
    *,
    sensitive: str,
    output: str | Path,
    strategy: str | PublishStrategy = "sps",
    rng: Any = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    workers: int = 1,
    audit: bool = True,
    overwrite: bool = True,
    delimiter: str = ",",
    progress: ProgressCallback | None = None,
    **params: Any,
) -> DeltaReport:
    """Publish ``source`` once and capture the state future appends need.

    This *is* a :func:`repro.stream.stream_publish` run (so its CSV is
    byte-identical to it, and hence to :func:`repro.publish`, for the same
    ``(seed, chunk_size)``), labelled ``delta_base`` on the delta path.  On
    top of it, the returned report's ``state`` records the schema, the
    group counts and the chunk index the sink recorded (row count, byte
    length and CRC32 per chunk), which make :func:`delta_publish` possible.  ``overwrite=False`` refuses, with
    :class:`FileExistsError`, to replace a file that exists when the output
    is moved into place.

    Raises :class:`DeltaUnsupportedError` for strategies that declare
    ``delta_capable = False``.
    """
    strategy = get_strategy(strategy) if isinstance(strategy, str) else strategy
    _require_delta_capable(strategy)
    target = _require_output_path(output)
    if workers <= 0:
        raise ValueError("workers must be positive")
    run = _run(
        strategy, source, sensitive, rng, chunk_size, chunk_rows, int(workers),
        audit, target, False, overwrite, delimiter, progress, False, params,
        root_name="delta_base", path="delta", unsupported=DeltaUnsupportedError,
        crc32=True,
    )
    report = run.report
    sink = run.sink
    chunk_counts = tuple(sink.chunk_counts)
    state = DeltaState(
        strategy=strategy.name,
        params=dict(report.params),
        seed=report.seed,
        chunk_size=int(chunk_size),
        chunk_rows=int(chunk_rows),
        n_rows=report.n_rows,
        sensitive=sensitive,
        header=tuple(run.header),
        schema=report.schema,
        groups=run.groups,
        chunk_row_counts=chunk_counts,
        output=str(target),
        chunk_bytes=tuple(sink.chunk_bytes),
        chunk_crc32=tuple(sink.chunk_crc32),
    )
    return DeltaReport(
        mode="base",
        strategy=strategy.name,
        params=dict(report.params),
        seed=report.seed,
        chunk_size=int(chunk_size),
        chunk_rows=int(chunk_rows),
        workers=int(workers),
        n_rows=report.n_rows,
        rows_appended=0,
        n_groups=report.n_groups,
        groups_touched=0,
        n_chunks=len(chunk_counts),
        n_chunks_dirty=len(chunk_counts),
        published_records=report.published_records,
        schema=report.schema,
        spec=report.spec,
        audit=report.audit,
        records=report.records,
        timings=report.timings,
        output=str(target),
        state=state,
    )


def _read_appended(
    state: DeltaState,
    appended: Any,
    delimiter: str,
    notify: ProgressCallback,
    workers: int,
) -> tuple[Schema, GroupCounts, int]:
    """Index the appended rows (only them): their schema, groups and row count.

    Raises :class:`~repro.dataset.schema.SchemaError` naming the source and
    line for ragged rows, a missing sensitive column, an empty batch, or a
    header that does not match the published dataset's.
    """
    if isinstance(appended, ChunkedReader):
        reader = appended
    elif isinstance(appended, (str, Path)) or hasattr(appended, "read"):
        reader = ChunkedReader(
            cast("str | Path | IO[str]", appended), state.sensitive,
            chunk_rows=state.chunk_rows, delimiter=delimiter,
        )
    elif hasattr(appended, "fetchone"):
        # A DB-API cursor: rows stream straight out of the database in the
        # published dataset's column order.
        reader = ChunkedReader.from_cursor(
            iter(cast("Iterator[Sequence[object]]", appended)), state.header,
            state.sensitive, chunk_rows=state.chunk_rows,
        )
    else:
        reader = ChunkedReader.from_rows(
            cast(Sequence[Sequence[str]], appended), state.header,
            state.sensitive, chunk_rows=state.chunk_rows,
        )
    index, _, _ = _index_source(
        reader, notify, phase="append_read", header=state.header, workers=workers
    )
    appended_schema, appended_groups = index.finalize()
    return appended_schema, appended_groups, index.n_rows


def _merge(
    base_schema: Schema,
    base: GroupCounts,
    appended_schema: Schema,
    appended: GroupCounts,
) -> tuple[Schema, GroupCounts, np.ndarray, np.ndarray]:
    """Fold appended groups into the base groups by position.

    Returns the union schema (each column's sorted union domain: what a full
    publish of all rows infers), the merged groups, and for each appended
    group its position in the merged groups and whether it is new there.
    Both sides' codes are mapped onto the union's domains with
    ``np.searchsorted``, except in a column whose domain already is the
    union's, which keeps its codes; one ``searchsorted`` of the appended
    keys' row codes into the base's then places every appended group.  The
    cells merge the same way, as ``(merged group, SA code)`` codes: cells
    that exist are summed, new ones go in with ``np.insert``, and nothing
    of the base is sorted or, without new groups or cells, copied.
    """
    pairs = list(zip(
        (*base_schema.public, base_schema.sensitive),
        (*appended_schema.public, appended_schema.sensitive),
        strict=True,
    ))
    domains = [np.array(sorted({*a.values, *b.values}), dtype=object) for a, b in pairs]
    attributes = [
        a if a.size == len(d) else Attribute(a.name, tuple(d))
        for (a, _), d in zip(pairs, domains, strict=True)
    ]
    union = Schema(public=attributes[:-1], sensitive=attributes[-1])
    m = union.sensitive_domain_size

    def onto(schema: Schema, groups: GroupCounts) -> GroupCounts:
        # The union holds a column's own values, so the same size means the
        # same domain.  Both domains are sorted, so the other maps are
        # increasing: keys stay unique and sorted without a re-sort.
        *key_maps, sa_map = (
            None if attr.size == len(domain)
            else np.searchsorted(domain, np.array(attr.values, dtype=object))
            for attr, domain in zip((*schema.public, schema.sensitive), domains, strict=True)
        )
        keys = groups.keys
        if any(code_map is not None for code_map in key_maps):
            keys = np.stack([
                column if code_map is None else code_map[column]
                for code_map, column in zip(key_maps, keys.T, strict=True)
            ], axis=1)
        codes = groups.codes if sa_map is None else sa_map[groups.codes]
        return GroupCounts(keys, groups.offsets, codes, groups.n, m)

    base, appended = onto(base_schema, base), onto(appended_schema, appended)
    at, found = _locate(base.keys, appended.keys, [attr.size for attr in union.public])
    new = ~found
    # Each appended group's merged position: its insertion point in the base
    # plus the new groups inserted ahead of it; each base group's, its index
    # plus the new groups inserted at or before it.
    positions = at + np.cumsum(new) - new
    shifted = np.arange(len(base)) + np.searchsorted(at[new], np.arange(len(base)), side="right")
    keys = np.insert(base.keys, at[new], appended.keys[new], axis=0) if new.any() else base.keys
    # Both cell lists are sorted and unique by (merged group, SA code).
    base_cells = np.repeat(shifted, np.diff(base.offsets)) * m + base.codes
    added_cells = np.repeat(positions, np.diff(appended.offsets)) * m + appended.codes
    cell_at, cell_found = _search(base_cells, added_cells)
    summed = base.n.copy()
    summed[cell_at[cell_found]] += appended.n[cell_found]
    cell_new = ~cell_found
    if not cell_new.any():
        # No new cell means no new group: the base's cell layout stands.
        return union, GroupCounts(keys, base.offsets, base.codes, summed, m), positions, new
    cells = np.insert(base_cells, cell_at[cell_new], added_cells[cell_new])
    n = np.insert(summed, cell_at[cell_new], appended.n[cell_new])
    cell_groups, codes = np.divmod(cells, m)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(cell_groups, minlength=len(keys)))))
    return union, GroupCounts(keys, offsets, codes, n, m), positions, new


def _locate(
    keys: np.ndarray, probes: np.ndarray, radices: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Where each of the sorted, unique ``probes`` rows goes in sorted, unique ``keys``.

    Returns each probe's insertion point in ``keys`` and whether the key
    there equals it.  Rows are compared as mixed-radix codes over
    ``radices``; where their product overflows ``int64``, as their ranks in
    the lexicographically sorted distinct rows of both sets together.
    """
    key_codes, probe_codes = _row_codes(keys, radices), _row_codes(probes, radices)
    if key_codes is None or probe_codes is None:
        _, ranks = np.unique(np.concatenate((keys, probes)), axis=0, return_inverse=True)
        key_codes, probe_codes = ranks[: len(keys)], ranks[len(keys) :]
    return _search(key_codes, probe_codes)


def _search(values: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``probes``' insertion point in the sorted ``values``, and whether it is there."""
    at = np.searchsorted(values, probes)
    found = at < len(values)
    found[found] = values[at[found]] == probes[found]
    return at, found


def _dirty_chunks(
    positions: np.ndarray, new: np.ndarray, n_groups: int, chunk_size: int
) -> set[int]:
    """Chunk indices whose merged group slice differs from the base slice.

    ``positions`` are the appended groups' merged positions and ``new``
    marks the ones the base lacked.  A count change dirties only its own
    chunk, while an insertion shifts every later position and therefore
    (correctly) dirties every chunk from its own on — those chunks' kernel
    inputs really did change.  Because keys are unique and sorted, this is
    exactly what a position-wise compare of base and merged groups finds.
    """
    dirty = set((positions // chunk_size).tolist())
    if new.any():
        dirty.update(range(int(positions[new][0]) // chunk_size, -(-n_groups // chunk_size)))
    return dirty


def _tampered(path: Path, detail: str) -> ValueError:
    return ValueError(
        f"published base {path} {detail}; was it modified outside the delta engine?"
    )


def _check_base(base: IO[bytes], path: Path, header: bytes, chunk_bytes: int) -> None:
    """Check the published base's total size and header bytes.

    Together with the CRC32 of each clean chunk the splice copies, this
    refuses a base file that was truncated, extended or edited since its
    delta state recorded it.
    """
    expected = len(header) + chunk_bytes
    size = os.fstat(base.fileno()).st_size
    if size != expected:
        raise _tampered(path, f"has {size} bytes, the delta state records {expected}")
    if base.read(len(header)) != header:
        raise _tampered(path, "has a header the delta state does not record")


def _copy_clean(
    base: int,
    path: Path,
    state: DeltaState,
    starts: Sequence[int],
    first: int,
    stop: int,
    out: int,
    at: int,
) -> None:
    """Copy the base's clean chunks ``first..stop`` to ``out`` from offset ``at``.

    The caller copies the first half of the chunks and one helper thread
    the second, each with :func:`_copy_chunks`.  The copy is I/O and CRC32
    work, which releases the GIL, so it takes the helper whatever the
    ``workers`` of the append.  A failure on the helper reaches the caller
    as it was raised, and the helper is joined before this returns or
    raises, so it never writes to a descriptor its caller has closed.
    """
    shift = at - starts[first]
    mid = first + (stop - first + 1) // 2
    if mid == stop:
        _copy_chunks(base, path, state, starts, first, stop, out, shift)
        return
    failure: list[BaseException] = []

    def helper() -> None:
        try:
            _copy_chunks(base, path, state, starts, mid, stop, out, shift)
        except BaseException as exc:  # re-raised on the caller's thread below
            failure.append(exc)

    thread = threading.Thread(target=helper, name="repro-splice-copy")
    thread.start()
    try:
        _copy_chunks(base, path, state, starts, first, mid, out, shift)
    finally:
        thread.join()
    if failure:
        raise failure[0]


def _copy_chunks(
    base: int,
    path: Path,
    state: DeltaState,
    starts: Sequence[int],
    first: int,
    stop: int,
    out: int,
    shift: int,
) -> None:
    """Copy chunks ``first..stop`` of the base to ``out``, each ``shift`` bytes on, CRC-checked.

    Each chunk is read with ``os.preadv`` into one chunk-sized buffer,
    checked against its recorded CRC32 and written with ``os.pwrite``: all
    three release the GIL, and no file position is shared, so two threads
    can copy side by side.  A short read (a base truncated since
    :func:`_check_base`) fails the check like an edit does.  No ``mmap``:
    a mapped base truncated under it would kill the process with
    ``SIGBUS`` instead of raising.
    """
    buffer = memoryview(bytearray(max(state.chunk_bytes[first:stop])))
    for i in range(first, stop):
        nbytes = state.chunk_bytes[i]
        data = buffer[:nbytes]
        if (
            os.preadv(base, [data], starts[i]) != nbytes
            or zlib.crc32(data) != state.chunk_crc32[i]
        ):
            raise _tampered(path, f"chunk {i} fails its CRC32 check")
        at, written = starts[i] + shift, 0
        while written < nbytes:
            written += os.pwrite(out, data[written:], at + written)


def delta_publish(
    state: DeltaState,
    appended: Any,
    *,
    output: str | Path | None = None,
    workers: int = 1,
    audit: bool = True,
    delimiter: str = ",",
    progress: ProgressCallback | None = None,
) -> DeltaReport:
    """Incrementally re-publish a dataset after appending rows.

    Parameters
    ----------
    state:
        The :class:`DeltaState` a previous :func:`publish_base` /
        :func:`delta_publish` produced.  Never mutated; the successor state
        is on the returned report.
    appended:
        The appended rows: a CSV path (same header as the base), an open
        text stream, a DB-API cursor yielding rows in the base header's
        column order (``ChunkedReader.from_cursor`` drains it with bounded
        memory), a pre-built :class:`~repro.stream.reader.ChunkedReader`,
        or an in-memory list of rows in the base header's column order (no
        header row).
    output:
        Optional new path for the spliced CSV; by default the published
        file named by ``state.output`` is replaced atomically in place.
    workers:
        Fan dirty-chunk regeneration out over this many threads through the
        shared scheduler; byte-identity is preserved at any worker count.
        The copy of the clean chunks does not count against it: the caller
        and always one helper thread each copy half of every span of clean
        chunks, whose reads, CRC32s and writes release the GIL.  The base
        is read, never mapped, so a base truncated mid-copy raises the
        "modified outside the delta engine" error instead of ``SIGBUS``.
    audit:
        Re-audit from the merged counts (no row re-read — ``O(groups)``).
    delimiter:
        Field delimiter of an appended CSV source.
    progress:
        Optional callback receiving ``{"phase": ..., ...}`` dicts.

    The published bytes, the audit and the per-chunk RNG streams are
    identical to a full publish of ``base + appended`` with the state's
    ``(seed, chunk_size)``.  A failure at any point leaves the previously
    published file untouched (the splice writes a temp file and renames).
    """
    strategy = get_strategy(state.strategy)
    _require_delta_capable(strategy)
    if workers <= 0:
        raise ValueError("workers must be positive")
    n_chunks_base = -(-len(state.groups) // state.chunk_size)
    recorded = {
        len(index) for index in (state.chunk_row_counts, state.chunk_bytes, state.chunk_crc32)
    }
    if recorded != {n_chunks_base}:
        raise ValueError(
            f"delta state is inconsistent: {len(state.groups)} groups at "
            f"chunk_size {state.chunk_size} imply {n_chunks_base} chunks, but "
            f"the chunk index records {sorted(recorded)}"
        )
    timings: dict[str, float] = {}
    notify = progress or (lambda event: None)

    with span(
        "delta_publish", kind="publish", path="delta", strategy=state.strategy
    ) as root:
        with span("prepare", kind="stage") as sp:
            resolved = strategy.resolve(state.params)
            base_path = Path(state.output)
            target = base_path if output is None else _require_output_path(output)
        timings["prepare"] = sp.duration
        root.set(seed=state.seed, chunk_size=state.chunk_size, workers=workers)

        with span("append_read", kind="stage") as sp:
            appended_schema, appended_groups, rows_appended = _read_appended(
                state, appended, delimiter, notify, workers
            )
        timings["append_read"] = sp.duration

        with span("diff", kind="stage") as sp:
            base_schema = state.schema
            new_schema, merged, positions, new = _merge(
                base_schema, state.groups, appended_schema, appended_groups
            )
            n_chunks_new = -(-len(merged) // state.chunk_size)
            sa_grew = new_schema.sensitive.values != base_schema.sensitive.values
            if sa_grew:
                # The SA domain is the dimension of the perturbation matrix:
                # every chunk's draws change, so regenerate everything — the
                # loud full fallback, still byte-identical to a full publish.
                mode = "full"
                dirty = set(range(n_chunks_new))
                _log.warning(
                    "append grew the sensitive domain (%d -> %d values); "
                    "falling back to full regeneration of all %d chunks",
                    len(base_schema.sensitive.values),
                    len(new_schema.sensitive.values),
                    n_chunks_new,
                )
            else:
                mode = "delta"
                dirty = _dirty_chunks(positions, new, len(merged), state.chunk_size)
            sp.set(n_chunks=n_chunks_new, n_chunks_dirty=len(dirty), mode=mode)
        timings["diff"] = sp.duration
        notify({
            "phase": "diff",
            "mode": mode,
            "n_chunks": n_chunks_new,
            "n_chunks_dirty": len(dirty),
        })

        spec = _spec_for(strategy, new_schema, resolved)

        with span("audit", kind="stage", ran=audit and strategy.audits) as sp:
            privacy_audit: PrivacyAudit | None = None
            if audit and strategy.audits and spec is not None:
                privacy_audit = audit_groups(spec, merged, state.n_rows + rows_appended)
        timings["audit"] = sp.duration

        with span("splice", kind="stage") as sp:
            kernel = _chunk_kernel(
                strategy, new_schema, spec, resolved, DeltaUnsupportedError
            )
            records: list[SPSRecords | None] = []
            writer = _CsvSink(target, new_schema, crc32=True)
            dirty_ids = sorted(dirty)
            regen = iter_run_results(
                _audited(merged, privacy_audit), kernel, state.seed, state.chunk_size,
                workers=workers, chunks=dirty_ids, codec=writer.codec, crc32=True,
            )
            # Where each base chunk starts in the published base.
            starts = list(itertools.accumulate(state.chunk_bytes, initial=len(writer.header)))
            try:
                with closing(regen), base_path.open("rb") as base:
                    _check_base(base, base_path, writer.header, starts[-1] - starts[0])
                    i = 0
                    while i < n_chunks_new:
                        if i in dirty:
                            # Dirty ids run consecutively, so the next run
                            # starts here: write its chunks at this offset.
                            run = next(regen)
                            records.append(run.records)
                            writer.write_run(run)
                            i += len(run.chunk_rows)
                        else:
                            # Clean chunks exist only below the base's chunk
                            # count: an insertion dirties every chunk after it.
                            later = bisect.bisect(dirty_ids, i)
                            stop = dirty_ids[later] if later < len(dirty_ids) else n_chunks_new
                            writer.copy_chunks(
                                state.chunk_row_counts[i:stop],
                                state.chunk_bytes[i:stop],
                                state.chunk_crc32[i:stop],
                                partial(
                                    _copy_clean, base.fileno(), base_path, state, starts, i, stop
                                ),
                            )
                            i = stop
                        notify({
                            "phase": "splice",
                            "chunks_done": i,
                            "n_chunks": n_chunks_new,
                            "published_records": writer.records_written,
                        })
            except BaseException:
                writer.abort()
                raise
        timings["splice"] = sp.duration

        with span("flush", kind="stage") as sp:
            writer.close()
        timings["flush"] = sp.duration
        notify({"phase": "done", "published_records": writer.records_written})

        timings["finalize"] = max(0.0, root.elapsed() - sum(timings.values()))
        root.set(
            rows_appended=rows_appended,
            n_chunks_dirty=len(dirty),
            published_records=writer.records_written,
        )

    PUBLISH_RUNS.inc(path="delta", strategy=state.strategy)
    ROWS_PUBLISHED.inc(writer.records_written, strategy=state.strategy)
    DELTA_GROUPS_TOUCHED.inc(len(appended_groups), strategy=state.strategy)
    DELTA_ROWS_APPENDED.inc(rows_appended, strategy=state.strategy)
    new_state = DeltaState(
        strategy=state.strategy,
        params=dict(resolved),
        seed=state.seed,
        chunk_size=state.chunk_size,
        chunk_rows=state.chunk_rows,
        n_rows=state.n_rows + rows_appended,
        sensitive=state.sensitive,
        header=state.header,
        schema=new_schema,
        groups=merged,
        chunk_row_counts=tuple(writer.chunk_counts),
        output=str(target),
        chunk_bytes=tuple(writer.chunk_bytes),
        chunk_crc32=tuple(writer.chunk_crc32),
    )
    return DeltaReport(
        mode=mode,
        strategy=state.strategy,
        params=dict(resolved),
        seed=state.seed,
        chunk_size=state.chunk_size,
        chunk_rows=state.chunk_rows,
        workers=int(workers),
        n_rows=state.n_rows + rows_appended,
        rows_appended=rows_appended,
        n_groups=len(merged),
        groups_touched=len(appended_groups),
        n_chunks=n_chunks_new,
        n_chunks_dirty=len(dirty),
        published_records=writer.records_written,
        schema=new_schema,
        spec=spec,
        audit=privacy_audit,
        records=SPSRecords.concat(records),
        timings=timings,
        output=str(target),
        state=new_state,
    )
