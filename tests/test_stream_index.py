"""The stream read at any ``chunk_rows`` and ``workers``, against the in-memory read.

:func:`repro.stream.engine._index_source` reads a source in chunks: at
``workers > 1`` each chunk's key lookup and pair reduction run on the pool
while the caller splits the next chunk and absorbs results in chunk order,
and chunk pair tables are folded into the running table geometrically.
None of that may show in a result.  A hypothesis property writes CSVs whose
values first appear in later chunks, whose fields are 1-8, 9-16 and over 16
bytes long (``uint64``, ``V16`` and ``V24`` keys) and which may hold one
quoted or non-ASCII row mid-file (so the byte split declines that chunk),
and checks that the schema, the groups and the published bytes equal
:func:`read_csv` + :func:`personal_groups` and the in-memory publish at
``chunk_rows`` in {1, 2, 7, n} and ``workers`` in {1, 2}.

The property runs 25 derandomized examples by default and 300 with ``CI``
set.  A deterministic guard checks that the read sorts ``O(rows log
chunks)`` pairs, with no timing involved.
"""

import csv
import io
import math
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.dataset.groups import personal_groups  # noqa: E402
from repro.dataset.loaders import read_csv, write_csv  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.pipeline import publish  # noqa: E402
from repro.stream import ChunkedReader, stream_publish  # noqa: E402
from repro.stream.engine import _index_source  # noqa: E402

settings.register_profile(
    "stream-index-ci", derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "stream-index", derandomize=True, max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
index_profile = settings.get_profile(
    "stream-index-ci" if os.environ.get("CI") else "stream-index"
)

# Per column, values of 1-8, 9-16 and over 16 bytes: the split keys each
# column's fields as uint64, V16 or V24 words by its longest field.
_LENGTHS = {"short": (1, 8), "medium": (9, 16), "long": (17, 24)}
# Values that make the byte split decline a chunk: a quoted delimiter, and
# non-ASCII text.
_ODD = ["a,b", "Zürich", "naïve-value-over-16-bytes"]


@st.composite
def csv_sources(draw):
    """A CSV's bytes, its sensitive column and its number of rows.

    Row ``i`` draws each value from the first ``i + 1`` values of its
    column's pool, so values keep first appearing in later chunks.  The
    last row shows a second sensitive value: every strategy needs two.
    """
    width = draw(st.integers(2, 4))
    header = [f"c{i}" for i in range(width)]
    sensitive = draw(st.sampled_from(header))
    pools = []
    for _ in header:
        low, high = _LENGTHS[draw(st.sampled_from(sorted(_LENGTHS)))]
        text = st.text(alphabet="abcxyz019", min_size=low, max_size=high)
        pools.append(draw(st.lists(text, min_size=2, max_size=6, unique=True)))
    n = draw(st.integers(2, 30))
    rows = [
        [pool[draw(st.integers(0, min(i, len(pool) - 1)))] for pool in pools]
        for i in range(n)
    ]
    at = header.index(sensitive)
    rows[-1][at] = pools[at][1]
    if n > 2 and draw(st.booleans()):
        # One odd row mid-file: its chunk goes to csv.reader.
        rows[n // 2][draw(st.integers(0, width - 1))] = draw(st.sampled_from(_ODD))
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header, *rows]
    )
    return buffer.getvalue().encode("utf-8"), sensitive, n


def _published_csv(table) -> str:
    buffer = io.StringIO()
    write_csv(table, buffer)
    return buffer.getvalue()


@given(source=csv_sources(), strategy=st.sampled_from(["sps", "dp-laplace", "uniform"]))
@index_profile
def test_read_is_independent_of_chunk_rows_and_workers(source, strategy):
    body, sensitive, n = source
    table = read_csv(io.BytesIO(body), sensitive=sensitive)
    expected_groups = personal_groups(table)
    expected_bytes = _published_csv(publish(table, strategy=strategy, rng=5, chunk_size=3).published)
    for chunk_rows in sorted({1, 2, 7, n}):
        for workers in (1, 2):
            reader = ChunkedReader(io.BytesIO(body), sensitive, chunk_rows=chunk_rows)
            index, _, _ = _index_source(reader, lambda event: None, workers=workers)
            schema, groups = index.finalize()
            assert schema == table.schema
            assert groups == expected_groups
            assert index.n_rows == n
            sink = io.StringIO()
            stream_publish(
                io.BytesIO(body), sensitive=sensitive, strategy=strategy, rng=5,
                chunk_size=3, chunk_rows=chunk_rows, workers=workers, output=sink,
            )
            assert sink.getvalue() == expected_bytes, (chunk_rows, workers)


def test_provisional_codes_and_pair_count_agree_across_workers():
    # The row spool keeps provisional codes; they are assigned in chunk
    # order however the lookups were scheduled.
    rng = np.random.default_rng(3)
    rows = [[f"v{a}", f"w{b:02d}", f"s{c}"] for a, b, c in rng.integers(0, 40, (500, 3))]
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows([["a", "b", "s"], *rows])
    body = buffer.getvalue().encode()
    seen = {}
    for workers in (1, 2, 3):
        reader = ChunkedReader(io.BytesIO(body), "s", chunk_rows=23)
        index, spool, _ = _index_source(
            reader, lambda event: None, spool_rows=True, workers=workers
        )
        try:
            blocks = np.concatenate([block for block, _ in spool.replay()])
        finally:
            spool.close()
        seen[workers] = (blocks.tolist(), index.n_pairs, index.pairs_sorted)
    assert seen[1] == seen[2] == seen[3]
    assert seen[1][1] == len({tuple(row) for row in rows})


@pytest.mark.parametrize("workers", [1, 2])
def test_read_sorts_rows_times_log_chunks_pairs(tmp_path, workers):
    # Every pair distinct, so the running table grows with each chunk:
    # re-sorting it for every chunk would sort ~chunks / 2 times the rows.
    chunk_rows, n_chunks = 32, 80
    n = chunk_rows * n_chunks
    source = tmp_path / "distinct.csv"
    source.write_text("id,s\n" + "".join(f"r{i},s{i % 3}\n" for i in range(n)))
    with Tracer() as tracer:
        stream_publish(
            source, sensitive="s", strategy="dp-laplace", rng=1,
            chunk_rows=chunk_rows, workers=workers,
        )
    read = next(record for record in tracer.spans if record.name == "read")
    assert read.attributes["chunks"] == n_chunks
    bound = (2 * math.ceil(math.log2(n_chunks)) + 2) * n
    assert n <= read.attributes["pairs_sorted"] <= bound
