"""A run of chunks against its chunks one by one.

Every group-path scheduler task publishes a run of consecutive chunks in one
kernel call, each chunk drawing from its own spawned generator.  The run
length is execution-only, so for ``sps``, ``dp-laplace`` and ``dp-gaussian``
one run of ``k`` chunks must give the block, the records and the per-chunk
row counts of ``k`` one-chunk calls, and leave every chunk's generator where
its one-chunk call leaves it.

The generated runs hold all-zero count rows, groups with ``s_g < 1`` (the
keep-one-record branch), chunks with no sampled group (no sampling or
scaling draw), chunk sizes 1-300, run lengths 1-20 and a short last chunk.
The property runs 100 derandomized examples by default and 1000 with ``CI``
set.  The delta splice runs its dirty chunks through the same run dispatch,
so a splice of scattered dirty chunks is checked at every run length too.
"""

import csv
import dataclasses
import io
import os
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.parallel.scheduler as scheduler  # noqa: E402
from repro.core.criterion import PrivacySpec  # noqa: E402
from repro.core.sps import SPSRecords  # noqa: E402
from repro.dataset.census import generate_census  # noqa: E402
from repro.dataset.groups import GroupCounts  # noqa: E402
from repro.dataset.loaders import write_csv  # noqa: E402
from repro.dataset.schema import Attribute, Schema  # noqa: E402
from repro.dataset.table import code_dtype  # noqa: E402
from repro.delta import delta_publish, publish_base  # noqa: E402
from repro.parallel.kernels import StrategyKernel  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.pipeline.execution import chunk_rng, chunk_rngs  # noqa: E402
from repro.pipeline.strategy import get_strategy  # noqa: E402
from repro.stream import stream_publish  # noqa: E402
from sps_records import assert_records_equal  # noqa: E402

settings.register_profile(
    "runs-ci", derandomize=True, max_examples=1000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "runs", derandomize=True, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
runs_profile = settings.get_profile("runs-ci" if os.environ.get("CI") else "runs")

STRATEGIES = ["sps", "dp-laplace", "dp-gaussian"]

#: ``(lam, delta, p)``: the paper's defaults, a loose and a strict spec, and
#: one whose ``s_g`` is below 1 for every non-empty group.
SPECS = [(0.3, 0.3, 0.5), (1.0, 0.9, 0.8), (0.1, 0.1, 0.2), (2.0, 0.99, 0.8)]


@st.composite
def group_runs(draw):
    """``(groups, bounds, m)``: a run of chunks of generated count rows."""
    chunk_size = draw(st.integers(1, 300))
    n_chunks = draw(st.integers(1, 20))
    last = draw(st.integers(1, chunk_size))
    m = draw(st.integers(2, 5))
    # A quiet chunk holds only all-zero rows: nothing in it is sampled.
    quiet = draw(st.lists(st.booleans(), min_size=n_chunks, max_size=n_chunks))
    source = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = (n_chunks - 1) * chunk_size + last
    bounds = np.append(np.arange(0, n_groups, chunk_size), n_groups)
    counts = np.zeros((n_groups, m), dtype=np.int64)
    for chunk, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:], strict=True)):
        if quiet[chunk]:
            continue
        # Per group: an all-zero row, a small one, or a large one with a
        # dominant value (the groups most specs sample).
        kinds = source.choice(3, size=stop - start, p=[0.2, 0.5, 0.3])
        rows = counts[start:stop]
        small = kinds == 1
        rows[small] = source.integers(0, 4, size=(int(small.sum()), m))
        large = np.flatnonzero(kinds == 2)
        rows[large] = source.integers(0, 40, size=(large.size, m))
        rows[large, source.integers(0, m, size=large.size)] = source.integers(
            50, 2000, size=large.size
        )
    keys = np.stack([np.arange(n_groups) // 7, np.arange(n_groups) % 7], axis=1)
    return GroupCounts.from_dense(keys, counts), bounds, m


def _kernel(name, m, spec_params):
    strategy = get_strategy(name)
    schema = Schema(
        public=(Attribute("A", tuple(map(str, range(7)))), Attribute("B", tuple("abcdefg"))),
        sensitive=Attribute("S", tuple(map(str, range(m)))),
    )
    lam, delta, p = spec_params
    spec = PrivacySpec(lam=lam, delta=delta, retention_probability=p, domain_size=m)
    return StrategyKernel(strategy, schema, spec, strategy.resolve({}))


def _assert_run_equals_its_chunks(kernel, groups, bounds, seed):
    rngs = chunk_rngs(seed, len(bounds) - 1)
    block, records, chunk_rows = kernel.run(groups, rngs, bounds)[:3]

    alone = chunk_rngs(seed, len(bounds) - 1)
    chunks = [
        kernel(groups[start:stop], rng)
        for start, stop, rng in zip(bounds[:-1], bounds[1:], alone, strict=True)
    ]
    assert block.dtype == code_dtype(kernel.schema)
    assert np.array_equal(block, np.concatenate([chunk for chunk, _ in chunks]))
    assert chunk_rows.tolist() == [len(chunk) for chunk, _ in chunks]
    if records is None:
        assert all(chunk_records is None for _, chunk_records in chunks)
    else:
        joined = SPSRecords.concat(chunk_records for _, chunk_records in chunks)
        assert_records_equal(records, joined)
    # Each chunk drew exactly what its one-chunk call drew, and no more.
    for run_rng, alone_rng in zip(rngs, alone, strict=True):
        assert run_rng.bit_generator.state == alone_rng.bit_generator.state
    return records


class TestRunEqualsChunks:
    @pytest.mark.parametrize("name", STRATEGIES)
    @runs_profile
    @given(
        run=group_runs(),
        spec_params=st.sampled_from(SPECS),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_one_run_publishes_what_its_chunks_publish(self, name, run, spec_params, seed):
        groups, bounds, m = run
        _assert_run_equals_its_chunks(_kernel(name, m, spec_params), groups, bounds, seed)

    def test_keep_one_record_and_quiet_chunks_in_one_run(self):
        # Chunk 0 is all zeros (no draw but phases 2-3 of nothing), chunk 1
        # has s_g < 1 everywhere, chunk 2 is short.
        counts = np.array([[0, 0], [0, 0], [5, 0], [0, 9], [4, 1], [6, 0], [3, 3]])
        groups = GroupCounts.from_dense(np.arange(14).reshape(7, 2), counts)
        bounds = np.array([0, 2, 4, 6, 7])
        records = _assert_run_equals_its_chunks(
            _kernel("sps", 2, (2.0, 0.99, 0.8)), groups, bounds, 5
        )
        assert records.sampled.tolist() == [False, False, True, True, True, True, True]
        assert (records.sample_sizes[records.sampled] == 1).all()

    def test_a_run_needs_one_generator_per_chunk(self):
        kernel = _kernel("sps", 2, SPECS[0])
        groups = GroupCounts.from_dense(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="one generator per chunk"):
            kernel.run(groups, chunk_rngs(1, 1), np.array([0, 1, 3]))

    def test_selected_chunks_run_split_at_gaps_and_at_run_chunks(self, monkeypatch):
        # Ten chunks of three groups; chunks 0-2, 5-6 and 9 are selected.
        # At RUN_CHUNKS = 2 the tasks are 0-1, 2, 5-6 and 9, and chunk c
        # draws from chunk_rng(seed, c) whatever its place in the list.
        monkeypatch.setattr(scheduler, "RUN_CHUNKS", 2)
        source = np.random.default_rng(8)
        keys = np.stack([np.arange(30) // 7, np.arange(30) % 7], axis=1)
        groups = GroupCounts.from_dense(keys, source.integers(0, 9, size=(30, 3)))
        kernel = _kernel("sps", 3, SPECS[0])
        selected = [0, 1, 2, 5, 6, 9]
        with Tracer() as tracer:
            results = list(scheduler.iter_run_results(
                groups, kernel, seed=4, chunk_size=3, chunks=selected,
            ))
        tasks = [
            (span.attributes["first_chunk"], span.attributes["n_chunks"])
            for span in tracer.spans if span.name == "chunk"
        ]
        assert tasks == [(0, 2), (2, 1), (5, 2), (9, 1)]
        blocks = []
        for result in results:
            offsets = np.append(0, np.cumsum(result.chunk_rows))
            blocks += [result.block[a:b] for a, b in zip(offsets[:-1], offsets[1:], strict=True)]
        assert len(blocks) == len(selected)
        for chunk, block in zip(selected, blocks, strict=True):
            alone, _ = kernel(groups[chunk * 3 : (chunk + 1) * 3], chunk_rng(4, chunk))
            assert np.array_equal(block, alone)


def _rows_in_chunks(state, chunks):
    """One row per chunk repeating the chunk's first group with an existing SA value.

    Each row only adds to its group's counts, so exactly ``chunks`` are dirty.
    """
    schema = state.schema
    rows = []
    for chunk in chunks:
        key = state.groups.keys[chunk * state.chunk_size]
        values = {
            attribute.name: attribute.values[code]
            for attribute, code in zip(schema.public, key, strict=True)
        }
        values[schema.sensitive_name] = schema.sensitive.values[0]
        rows.append([values[column] for column in state.header])
    return rows


def _published_facts(report):
    """The published bytes and the chunk index its delta state records."""
    state = report.state
    return (
        Path(report.output).read_bytes(),
        state.chunk_row_counts,
        state.chunk_bytes,
        state.chunk_crc32,
    )


class TestRunLengthIsExecutionOnly:
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_bytes_and_chunk_facts_at_any_run_length(self, name, tmp_path, monkeypatch):
        # The append dirties chunks 2-5, which cross a run boundary at
        # RUN_CHUNKS = 3, and chunk 9 alone: the splice must pair every run's
        # blocks with the right chunk ids.
        table = generate_census(3_000, seed=2)
        source, everything = tmp_path / "census.csv", tmp_path / "all.csv"
        write_csv(table, source)

        def publish(path, output, workers=1):
            return publish_base(
                path, sensitive=table.schema.sensitive_name, output=tmp_path / output,
                strategy=name, rng=11, chunk_size=16, workers=workers,
            )

        dirty = [2, 3, 4, 5, 9]
        appended = _rows_in_chunks(publish(source, "first.csv").state, dirty)
        everything.write_bytes(source.read_bytes())
        with everything.open("a", newline="") as handle:
            csv.writer(handle).writerows(appended)
        full = publish(everything, "full.csv")
        dirty_groups = np.concatenate([np.arange(c * 16, (c + 1) * 16) for c in dirty])
        published = {}
        for run_chunks in (1, 3, 16):
            monkeypatch.setattr(scheduler, "RUN_CHUNKS", run_chunks)
            for workers in (1, 2):
                base = publish(source, f"out-{run_chunks}-{workers}.csv", workers)
                published[run_chunks, workers] = _published_facts(base)
                delta = delta_publish(
                    base.state, appended,
                    output=tmp_path / f"delta-{run_chunks}-{workers}.csv", workers=workers,
                )
                assert delta.mode == "delta" and delta.n_chunks_dirty == len(dirty)
                assert _published_facts(delta) == _published_facts(full)
                if full.records is None:
                    assert delta.records is None
                    continue
                for column in dataclasses.fields(SPSRecords):
                    assert np.array_equal(
                        getattr(delta.records, column.name),
                        getattr(full.records, column.name)[dirty_groups],
                    )
        first = published[1, 1]
        assert len(first[1]) == -(-base.n_groups // 16) > 16
        assert all(value == first for value in published.values())

    def test_stream_to_a_text_stream_at_any_run_length(self, monkeypatch):
        table = generate_census(2_000, seed=2)
        text = io.StringIO()
        write_csv(table, text)
        outputs = []
        for run_chunks in (1, 5):
            monkeypatch.setattr(scheduler, "RUN_CHUNKS", run_chunks)
            sink = io.StringIO()
            report = stream_publish(
                io.StringIO(text.getvalue()), sensitive=table.schema.sensitive_name,
                strategy="sps",
                rng=3, chunk_size=8, output=sink,
            )
            outputs.append((sink.getvalue(), report.records))
        assert outputs[0][0] == outputs[1][0]
        assert_records_equal(outputs[0][1], outputs[1][1])
