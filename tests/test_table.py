"""Unit tests for repro.dataset.table."""

import io

import numpy as np
import pytest

import repro
from repro.analysis.learning import NaiveBayesOnReconstruction
from repro.core.criterion import PrivacySpec
from repro.core.testing import audit_table
from repro.dataset import table as table_module
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.groups import personal_groups
from repro.dataset.loaders import write_csv
from repro.dataset.schema import Attribute, Schema, SchemaError
from repro.dataset.table import Table


class TestConstruction:
    def test_from_records_roundtrip(self, disease_schema):
        records = [("male", "eng", "d0"), ("female", "artist", "d9")]
        table = Table.from_records(disease_schema, records)
        assert len(table) == 2
        assert table.records() == records

    def test_empty_table(self, disease_schema):
        table = Table.from_records(disease_schema, [])
        assert len(table) == 0
        assert table.sensitive_counts().sum() == 0

    def test_codes_are_read_only(self, small_table):
        with pytest.raises(ValueError):
            small_table.codes[0, 0] = 1

    def test_wrong_column_count_rejected(self, disease_schema):
        with pytest.raises(SchemaError):
            Table(disease_schema, np.zeros((3, 2), dtype=np.int64))

    def test_out_of_domain_code_rejected(self, disease_schema):
        codes = np.zeros((1, 3), dtype=np.int64)
        codes[0, 2] = 99
        with pytest.raises(SchemaError):
            Table(disease_schema, codes)

    def test_negative_code_rejected(self, disease_schema):
        codes = np.zeros((1, 3), dtype=np.int64)
        codes[0, 0] = -1
        with pytest.raises(SchemaError):
            Table(disease_schema, codes)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    @pytest.mark.parametrize("column,name", [(0, "Gender"), (1, "Job"), (2, "Disease")])
    def test_code_outside_domain_names_the_attribute(self, disease_schema, dtype, column, name):
        size = (2, 3, 10)[column]
        for bad in (-1, size):
            codes = np.zeros((4, 3), dtype=dtype)
            codes[2, column] = bad
            with pytest.raises(SchemaError, match=f"code {bad} out of range for attribute '{name}'"):
                Table(disease_schema, codes)
        codes = np.zeros((4, 3), dtype=dtype)
        codes[2, column] = size - 1
        assert Table(disease_schema, codes).codes[2, column] == size - 1


class TestAccessorsAndCounting:
    def test_match_public_single_condition(self, small_table):
        mask = small_table.match_public({"Job": "eng"})
        assert mask.sum() == 12

    def test_match_public_multiple_conditions(self, small_table):
        mask = small_table.match_public({"Gender": "male", "Job": "eng"})
        assert mask.sum() == 8

    def test_count_with_sensitive_value(self, small_table):
        assert small_table.count({"Gender": "male", "Job": "eng"}, "d0") == 6
        assert small_table.count({"Gender": "male", "Job": "eng"}, "d1") == 2
        assert small_table.count({"Gender": "male", "Job": "eng"}, "d5") == 0

    def test_sensitive_counts_whole_table(self, small_table):
        counts = small_table.sensitive_counts()
        assert counts[0] == 8  # d0
        assert counts[3] == 3  # d3
        assert counts.sum() == len(small_table)

    def test_sensitive_counts_masked(self, small_table):
        mask = small_table.match_public({"Gender": "female"})
        counts = small_table.sensitive_counts(mask)
        assert counts[0] == 2 and counts[2] == 2

    def test_sensitive_frequencies_sum_to_one(self, small_table):
        freqs = small_table.sensitive_frequencies()
        assert freqs.sum() == pytest.approx(1.0)

    def test_sensitive_frequencies_empty_selection(self, small_table):
        mask = np.zeros(len(small_table), dtype=bool)
        assert small_table.sensitive_frequencies(mask).sum() == 0.0


class TestDerivation:
    def test_with_sensitive_codes_keeps_public(self, small_table):
        new_sensitive = np.zeros(len(small_table), dtype=np.int64)
        published = small_table.with_sensitive_codes(new_sensitive)
        assert np.array_equal(published.public_codes, small_table.public_codes)
        assert published.sensitive_counts()[0] == len(small_table)

    def test_with_sensitive_codes_wrong_length_rejected(self, small_table):
        with pytest.raises(SchemaError):
            small_table.with_sensitive_codes(np.zeros(3, dtype=np.int64))

    def test_select_by_mask(self, small_table):
        mask = small_table.match_public({"Job": "lawyer"})
        subset = small_table.select(mask)
        assert len(subset) == 3
        assert all(record[1] == "lawyer" for record in subset.records())

    def test_concat(self, small_table):
        doubled = small_table.concat(small_table)
        assert len(doubled) == 2 * len(small_table)

    def test_concat_schema_mismatch_rejected(self, small_table, binary_schema):
        other = Table.from_records(binary_schema, [("a", "low")])
        with pytest.raises(SchemaError):
            small_table.concat(other)

    def test_equality(self, small_table):
        same = Table(small_table.schema, small_table.codes)
        assert small_table == same
        different = small_table.with_sensitive_codes(
            np.zeros(len(small_table), dtype=np.int64)
        )
        assert small_table != different


def _schema_with_widest(size):
    return Schema(
        [Attribute("A", tuple(f"a{i}" for i in range(size)))], Attribute("S", ("x", "y"))
    )


def _csv(table):
    out = io.StringIO()
    write_csv(table, out)
    return out.getvalue()


class TestCompactCodes:
    @pytest.mark.parametrize("generate", [generate_census, generate_adult])
    def test_census_and_adult_codes_are_int8(self, generate):
        assert generate(500, seed=1).codes.dtype == np.int8

    @pytest.mark.parametrize("size, dtype", [(128, np.int8), (129, np.int16)])
    def test_widest_domain_picks_the_dtype(self, size, dtype):
        table = Table(_schema_with_widest(size), [[size - 1, 1], [0, 0]])
        assert table.codes.dtype == dtype
        assert table.codes.tolist() == [[size - 1, 1], [0, 0]]
        assert table.records()[0] == (f"a{size - 1}", "y")

    def test_code_past_a_narrow_dtype_is_refused_not_wrapped(self):
        schema = _schema_with_widest(128)
        with pytest.raises(SchemaError):
            Table(schema, np.array([[256, 0]], dtype=np.int64))
        table = Table(schema, [[5, 0]])
        with pytest.raises(SchemaError):
            table.with_sensitive_codes(np.array([256]))

    @pytest.mark.parametrize("generate", [generate_census, generate_adult])
    def test_int64_twin_gives_equal_indexes_audits_and_csv(self, monkeypatch, generate):
        compact = generate(3000, seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(table_module, "code_dtype", lambda schema: np.dtype(np.int64))
            wide = Table(compact.schema, compact.codes)
        assert wide.codes.dtype == np.int64 and compact.codes.dtype == np.int8
        assert wide == compact

        assert personal_groups(compact) == personal_groups(wide)

        spec = PrivacySpec(0.3, 0.3, 0.5, compact.schema.sensitive_domain_size)
        compact_audit, wide_audit = audit_table(compact, spec), audit_table(wide, spec)
        assert np.array_equal(compact_audit.thresholds, wide_audit.thresholds)
        assert np.array_equal(compact_audit.private, wide_audit.private)

        assert _csv(compact) == _csv(wide)
        assert repro.publish(compact, strategy="sps", rng=3).published == repro.publish(
            wide, strategy="sps", rng=3
        ).published

        # code * m + sa overflows int8 on census (77 ages, m = 50) unless widened.
        records = [record[:-1] for record in compact.records()[:50]]
        assert np.array_equal(
            NaiveBayesOnReconstruction(0.5).fit(compact).predict_proba(records),
            NaiveBayesOnReconstruction(0.5).fit(wide).predict_proba(records),
        )
