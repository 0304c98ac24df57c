"""Test-side equality of :class:`~repro.core.sps.SPSRecords`: every field, array by array."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.core.sps import SPSRecords


def assert_records_equal(actual: SPSRecords | None, expected: SPSRecords | None) -> None:
    """Assert two record sets hold the same groups: equal values in every column."""
    assert (actual is None) == (expected is None)
    if actual is None or expected is None:
        return
    for column in fields(SPSRecords):
        np.testing.assert_array_equal(
            getattr(actual, column.name), getattr(expected, column.name), err_msg=column.name
        )


def record_rows(records: SPSRecords) -> list[tuple]:
    """One ``(key, size, s_g, sampled, sample size, published size)`` tuple per group."""
    return list(zip(
        map(tuple, records.keys.tolist()), records.sizes.tolist(), records.thresholds.tolist(),
        records.sampled.tolist(), records.sample_sizes.tolist(), records.published_sizes.tolist(),
        strict=True,
    ))
