"""Tabular dataset substrate.

The paper operates on a table ``D`` with several public attributes ``NA`` and
one sensitive attribute ``SA`` (Section 3.1).  This package provides:

* :mod:`repro.dataset.schema` — attribute domains and the ``NA``/``SA`` split;
* :mod:`repro.dataset.table` — an integer-encoded, numpy-backed table;
* :mod:`repro.dataset.groups` — personal and aggregate group partitioning
  (Section 3.2);
* :mod:`repro.dataset.adult` / :mod:`repro.dataset.census` — synthetic
  generators calibrated to the two data sets used in the paper's evaluation;
* :mod:`repro.dataset.loaders` — CSV import/export for user-supplied data.
"""

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.dataset.groups import GroupCounts
from repro.dataset.groups import aggregate_group, personal_groups
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.loaders import read_csv, write_csv

__all__ = [
    "Attribute",
    "Schema",
    "Table",
    "GroupCounts",
    "personal_groups",
    "aggregate_group",
    "generate_adult",
    "generate_census",
    "read_csv",
    "write_csv",
]
