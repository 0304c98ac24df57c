"""Legacy JSON snapshots: read-only, for migration to SQLite.

Before SQLite became the only file store, the service persisted everything
as one JSON document — the version-1 layout (``{"version": 1, "datasets":
..., "jobs": ..., "next_job_id": ...}``) or the namespaced version-2 layout
(``{"store_version": 2, "namespaces": ..., "counters": ...}``).  This module
only reads those files: :func:`load_snapshot_store` parses one into a
:class:`~repro.store.memory.MemoryConnector`, which
:func:`repro.store.migrate_json_to_sqlite` then copies into a SQLite store
with :func:`~repro.store.base.copy_store`.  Nothing writes JSON snapshots
any more.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.store.base import COUNTER_JOB_IDS, NS_DATASETS, NS_JOBS, StoreError
from repro.store.memory import MemoryConnector

#: Format version of the namespaced snapshot document.
SNAPSHOT_VERSION = 2


def parse_snapshot(
    payload: dict[str, Any],
) -> tuple[dict[str, dict[str, tuple[int, Any]]], dict[str, int]]:
    """Normalise a snapshot document into ``(namespaces, counters)``.

    Accepts both the namespaced version-2 layout and the legacy version-1
    layout (datasets/jobs/next_job_id at the top level), migrating the
    latter forward: datasets become the ``datasets`` namespace keyed by
    name, job records the ``jobs`` namespace keyed by job id, and
    ``next_job_id`` seeds the job-id counter.
    """
    if not isinstance(payload, dict):
        raise StoreError("snapshot must be a JSON object")
    if payload.get("store_version") == SNAPSHOT_VERSION:
        namespaces: dict[str, dict[str, tuple[int, Any]]] = {}
        for namespace, entries in payload.get("namespaces", {}).items():
            bucket: dict[str, tuple[int, Any]] = {}
            for key, stored in entries.items():
                bucket[str(key)] = (int(stored["version"]), stored["value"])
            namespaces[str(namespace)] = bucket
        counters = {
            str(name): int(value)
            for name, value in payload.get("counters", {}).items()
        }
        return namespaces, counters
    version = payload.get("version", payload.get("store_version"))
    if version != 1:
        raise StoreError(f"unsupported snapshot version {version!r}")
    datasets = {
        str(name): (1, table_data)
        for name, table_data in payload.get("datasets", {}).items()
    }
    jobs: dict[str, tuple[int, Any]] = {}
    for job_data in payload.get("jobs", []):
        jobs[str(job_data["job_id"])] = (1, job_data)
    counters = {}
    next_job_id = payload.get("next_job_id")
    if next_job_id is not None:
        counters[COUNTER_JOB_IDS] = max(0, int(next_job_id) - 1)
    return (
        {name: bucket for name, bucket in ((NS_DATASETS, datasets), (NS_JOBS, jobs)) if bucket},
        counters,
    )


def load_snapshot_store(path: str | Path) -> MemoryConnector:
    """Read a JSON snapshot into a new, open in-memory connector.

    Documents keep their stored versions and counters their values, so a
    :func:`~repro.store.base.copy_store` of the result is an exact
    migration.
    """
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"cannot read snapshot {target}: {exc}") from exc
    namespaces, counters = parse_snapshot(payload)
    memory = MemoryConnector().open()
    with memory.transaction(write=True) as txn:
        for namespace, bucket in namespaces.items():
            for key, (version, value) in bucket.items():
                txn.restore(namespace, key, value, version)
        for name, value in counters.items():
            txn.set_counter(name, value)
    return memory


def is_json_snapshot(path: str | Path) -> bool:
    """Whether ``path`` exists and plausibly holds a JSON snapshot."""
    target = Path(path)
    if not target.is_file():
        return False
    try:
        with target.open("rb") as handle:
            head = handle.read(64).lstrip()
    except OSError:
        return False
    return head.startswith(b"{")
