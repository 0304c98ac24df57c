"""repro.stream — out-of-core streaming publishing with bounded memory.

The group-wise publishing model of the paper is naturally streamable: every
group-based strategy's output is a pure function of the ordered personal
groups, not of the materialised table.  This package exploits that:

* :class:`~repro.stream.reader.ChunkedReader` walks a CSV source in
  bounded-size row chunks;
* :class:`~repro.stream.index.IncrementalGroupIndex` merges per-chunk
  ``(NA key, SA value)`` counts into the exact schema and
  :class:`~repro.dataset.groups.GroupCounts` the in-memory
  :func:`~repro.dataset.groups.personal_groups` would produce;
* :func:`~repro.stream.engine.stream_publish` drives the strategies' own
  chunk kernels over the finalized groups and streams the published rows to
  a CSV sink, so a dataset larger than RAM publishes with peak memory
  proportional to ``chunk_rows``, not ``n``.

For a fixed seed and ``chunk_size`` the streamed output is byte-identical to
``repro.publish`` on the fully loaded table — the determinism contract
``tests/test_stream.py`` pins for every registered strategy.  The
``repro-stream`` console script (:mod:`repro.stream.cli`) is the command-line
front end; ``repro.publish(source=..., streaming=True)`` and the service's
``stream=true`` job mode reach the same engine.
"""

from repro.pipeline.execution import DEFAULT_CHUNK_ROWS
from repro.stream.engine import ProgressCallback, stream_publish
from repro.stream.index import IncrementalGroupIndex
from repro.stream.reader import ChunkedReader
from repro.stream.report import StreamReport

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "ChunkedReader",
    "IncrementalGroupIndex",
    "ProgressCallback",
    "StreamReport",
    "stream_publish",
]
