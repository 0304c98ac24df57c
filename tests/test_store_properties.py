"""Property tests: documents round-trip through every storage connector.

For arbitrary JSON documents, tables, job records and delta states,
hypothesis asserts the value read back from a store equals the value
written — in memory and on a file.  Because
:func:`repro.store.base.encode_value` canonises at the transaction boundary,
both are held to the *same* round-trip.

Profiles mirror ``tests/test_delta_properties.py``: CI runs the
``derandomize=True`` profile for reproducible runs; locally hypothesis keeps
its randomized search.
"""

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.delta.state import DeltaState  # noqa: E402
from repro.dataset.adult import generate_adult  # noqa: E402
from repro.service.models import (  # noqa: E402
    JobRecord,
    JobSpec,
    table_from_json,
    table_to_json,
)
from repro.store import open_store  # noqa: E402

settings.register_profile("ci", derandomize=True, max_examples=25, deadline=None)
settings.register_profile("local", max_examples=50, deadline=None)
settings.load_profile(
    "ci" if os.environ.get("CI") else os.environ.get("HYPOTHESIS_PROFILE", "local")
)

# JSON-safe scalars: ints within the exact-float window, finite floats, text.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.", min_size=1, max_size=12
)


@contextmanager
def _fresh_backends():
    """One in-memory and one file store over a per-example scratch directory.

    hypothesis shares pytest fixtures across examples, so each example gets
    its own temporary directory instead of ``tmp_path``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        yield [
            open_store(None),
            open_store(base / "prop.db"),
        ]


@given(key=names, value=documents)
def test_documents_round_trip_identically_through_every_backend(key, value):
    canonical = json.loads(json.dumps(value))
    with _fresh_backends() as backends:
        for connector in backends:
            connector.open()
            connector.put("docs", key, value)
            assert connector.get("docs", key).value == canonical
            connector.close()


@given(n=st.integers(min_value=1, max_value=60), seed=st.integers(0, 50))
def test_tables_round_trip_through_every_backend(n, seed):
    table = generate_adult(n, seed=seed)
    with _fresh_backends() as backends:
        for connector in backends:
            connector.open()
            connector.put("datasets", "t", table_to_json(table))
            restored = table_from_json(connector.get("datasets", "t").value)
            assert restored == table
            connector.close()


job_specs = st.builds(
    JobSpec,
    dataset=names,
    backend=st.sampled_from(["sps", "uniform", "dp-laplace"]),
    params=st.dictionaries(names, st.floats(0.01, 1.0, allow_nan=False), max_size=3),
    seed=st.integers(0, 2**31),
    chunk_size=st.integers(1, 10_000),
    max_workers=st.integers(1, 16),
)


@given(spec=job_specs, status=st.sampled_from(["completed", "failed", "interrupted"]))
def test_job_records_round_trip_through_every_backend(spec, status):
    record = JobRecord(job_id="job-0042", spec=spec, status=status)
    with _fresh_backends() as backends:
        for connector in backends:
            connector.open()
            connector.put("jobs", record.job_id, record.to_json())
            restored = JobRecord.from_json(connector.get("jobs", record.job_id).value)
            assert restored == record
            connector.close()


def _v3_document(fields, chunk_bytes, chunk_crc32):
    """A ``state_version`` 3 document of value-keyed groups and a chunk index.

    ``fields["groups"]`` holds ``[[NA values], {SA value: n}]`` pairs (counts
    of a repeated key add up); each domain is the sorted set of values its
    column takes, as a publish records it.
    """
    merged = {}
    for key, counts in fields["groups"]:
        cell = merged.setdefault(tuple(key), {})
        for value, n in counts.items():
            cell[value] = cell.get(value, 0) + n
    keys = sorted(merged)
    domains = [sorted(set(column)) for column in zip(*keys)]
    sensitive = sorted({value for counts in merged.values() for value in counts})
    cells = [
        (group, sensitive.index(value), merged[key][value])
        for group, key in enumerate(keys)
        for value in sorted(merged[key])
    ]
    group, code, n = (list(column) for column in zip(*cells))
    document = {name: value for name, value in fields.items() if name != "chunk_row_counts"}
    document.update(
        state_version=3,
        groups={
            "domains": [*domains, sensitive],
            "keys": [[domain.index(value) for value in column]
                     for domain, column in zip(domains, zip(*keys))],
            "counts": {"group": group, "code": code, "n": n},
        },
        chunks={"rows": fields["chunk_row_counts"], "bytes": chunk_bytes, "crc32": chunk_crc32},
    )
    return document


def _with_chunk_index(fields):
    """A ``DeltaState`` of ``fields`` plus a chunk index of matching length."""
    n = len(fields["chunk_row_counts"])
    return st.tuples(
        st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
        st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n),
    ).map(lambda index: DeltaState.from_json(_v3_document(fields, *index)))


# States are built from their JSON documents, as a reader of a stored state
# does; a published dataset always holds at least one group.
delta_states = st.fixed_dictionaries({
    "strategy": st.sampled_from(["sps", "dp-laplace"]),
    "params": st.dictionaries(names, st.floats(0.01, 1.0, allow_nan=False), max_size=2),
    "seed": st.integers(0, 2**31),
    "chunk_size": st.integers(1, 500),
    "chunk_rows": st.integers(1, 500),
    "n_rows": st.integers(1, 10_000),
    "sensitive": st.just("Disease"),
    "header": st.just(["City", "Disease"]),
    "groups": st.lists(
        st.tuples(
            st.tuples(st.sampled_from(["athens", "bergen", "cairo"])),
            st.dictionaries(
                st.sampled_from(["cold", "flu"]), st.integers(1, 99),
                min_size=1, max_size=2,
            ),
        ),
        min_size=1,
        max_size=4,
    ),
    "chunk_row_counts": st.lists(st.integers(0, 50), max_size=6),
    "output": st.just("published.csv"),
}).flatmap(_with_chunk_index)


@given(state=delta_states)
def test_delta_states_round_trip_through_every_backend(state):
    with _fresh_backends() as backends:
        for connector in backends:
            connector.open()
            connector.put("deltas", "living", state.to_json())
            restored = DeltaState.from_json(connector.get("deltas", "living").value)
            assert restored == state
            connector.close()


# Any text values (commas, quotes, non-ASCII, empty) over two public columns.
values = st.text(max_size=6)
v2_delta_states = st.fixed_dictionaries({
    "strategy": st.sampled_from(["sps", "dp-laplace"]),
    "params": st.just({}),
    "seed": st.integers(0, 2**31),
    "chunk_size": st.integers(1, 500),
    "chunk_rows": st.integers(1, 500),
    "n_rows": st.integers(1, 10_000),
    "sensitive": st.just("Disease"),
    "header": st.just(["City", "Disease", "Job"]),
    "groups": st.dictionaries(
        st.tuples(values, values),
        st.dictionaries(values, st.integers(1, 10**6), min_size=1, max_size=3),
        min_size=1,
        max_size=8,
    ).map(lambda groups: [[list(key), counts] for key, counts in groups.items()]),
    "chunk_row_counts": st.lists(st.integers(0, 10**6), max_size=6),
    "output": st.just("published.csv"),
}).flatmap(_with_chunk_index)


@given(state=v2_delta_states)
def test_v2_delta_states_round_trip_through_json_and_every_backend(state):
    document = json.loads(json.dumps(state.to_json()))
    assert document["state_version"] == 3
    assert DeltaState.from_json(document) == state
    with _fresh_backends() as backends:
        for connector in backends:
            connector.open()
            connector.put("deltas", "living", state.to_json())
            restored = DeltaState.from_json(connector.get("deltas", "living").value)
            assert restored == state
            connector.close()
