"""The incremental re-publish engine and its byte-identity contract.

The load-bearing example-based suite for :mod:`repro.delta` (the property
harness lives in ``tests/test_delta_properties.py``): for every
``delta_capable`` strategy and any append split, splicing the appended rows
through :func:`repro.delta.delta_publish` must equal a full re-publish of
``base + appended`` bit for bit — published CSV bytes, audit results and
per-chunk RNG streams — at any ``chunk_rows`` and any worker count.  The
fault-injection tests pin the atomicity half of the contract: a failure at
any point of the splice leaves the previously published file untouched.
"""

import csv
import dataclasses
import errno
import io
import json
import logging
import os
from pathlib import Path

import pytest

import repro
from repro.dataset.schema import SchemaError
from repro.delta import (
    DeltaState,
    DeltaUnsupportedError,
    StaleDeltaStateError,
    delta_publish,
    publish_base,
)
from repro.delta.cli import main as delta_cli_main
from repro.obs.metrics import DELTA_GROUPS_TOUCHED, DELTA_ROWS_APPENDED
from repro.pipeline.params import ParamError
from repro.pipeline.strategy import (
    SPSStrategy,
    register_strategy,
    unregister_strategy,
)
from repro.stream import ChunkedReader, stream_publish

SEED = 7
CHUNK_SIZE = 8
CHUNK_ROWS = 400


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        writer.writerows(rows)


@pytest.fixture(scope="module")
def adult():
    """(header, records) of a small adult table, file column order."""
    table = repro.generate_adult(1200, seed=11)
    header = list(table.schema.public_names) + [table.schema.sensitive_name]
    return header, [list(row) for row in table.records()]


def _split_publish(
    tmp_path,
    header,
    records,
    n_append,
    *,
    strategy="sps",
    seed=SEED,
    chunk_size=CHUNK_SIZE,
    chunk_rows=CHUNK_ROWS,
    workers=1,
    sensitive="Income",
):
    """Publish base, delta-splice the tail, full-publish everything.

    Returns ``(delta_bytes, full_bytes, delta_report, full_report)``.
    """
    base_csv = tmp_path / "base.csv"
    append_csv = tmp_path / "append.csv"
    full_csv = tmp_path / "full.csv"
    _write_csv(base_csv, header, records[:-n_append])
    _write_csv(append_csv, header, records[-n_append:])
    _write_csv(full_csv, header, records)

    published = tmp_path / "published.csv"
    base_report = publish_base(
        base_csv, sensitive=sensitive, output=published, strategy=strategy,
        rng=seed, chunk_size=chunk_size, chunk_rows=chunk_rows,
    )
    assert base_report.mode == "base" and base_report.state is not None
    delta_report = delta_publish(base_report.state, append_csv, workers=workers)

    full_out = tmp_path / "full_published.csv"
    full_report = stream_publish(
        full_csv, sensitive=sensitive, strategy=strategy, rng=seed,
        chunk_size=chunk_size, chunk_rows=chunk_rows, output=full_out,
    )
    return published.read_bytes(), full_out.read_bytes(), delta_report, full_report


# --------------------------------------------------------------------- #
# Byte identity: delta == full, for every capable strategy
# --------------------------------------------------------------------- #


class TestByteIdentity:
    @pytest.mark.parametrize("strategy", ["sps", "dp-laplace", "dp-gaussian"])
    def test_delta_equals_full_publish(self, adult, tmp_path, strategy):
        header, records = adult
        delta_bytes, full_bytes, delta_report, full_report = _split_publish(
            tmp_path, header, records, 120, strategy=strategy
        )
        assert delta_bytes == full_bytes
        assert delta_report.mode == "delta"
        assert delta_report.rows_appended == 120
        assert delta_report.n_rows == len(records)
        if strategy == "sps":
            assert delta_report.audit is not None and full_report.audit is not None
            assert (
                delta_report.audit.group_violation_rate
                == full_report.audit.group_violation_rate
            )
            assert delta_report.audit.is_private == full_report.audit.is_private
        else:
            # DP strategies have no per-group audit on either path.
            assert delta_report.audit is None and full_report.audit is None

    @pytest.mark.parametrize("workers", [1, 3])
    def test_workers_never_change_bytes(self, adult, tmp_path, workers):
        header, records = adult
        delta_bytes, full_bytes, _, _ = _split_publish(
            tmp_path, header, records, 90, workers=workers
        )
        assert delta_bytes == full_bytes

    @pytest.mark.parametrize("chunk_rows", [97, 1000])
    def test_chunk_rows_never_changes_bytes(self, adult, tmp_path, chunk_rows):
        header, records = adult
        delta_bytes, full_bytes, _, _ = _split_publish(
            tmp_path, header, records, 75, chunk_rows=chunk_rows
        )
        assert delta_bytes == full_bytes

    def test_in_memory_rows_equal_csv_append(self, adult, tmp_path):
        header, records = adult
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, header, records[:-60])
        published = tmp_path / "published.csv"
        report = publish_base(
            base_csv, sensitive="Income", output=published,
            rng=SEED, chunk_size=CHUNK_SIZE,
        )
        # An in-memory batch (no header row, base column order) and a CSV
        # source of the same rows splice to the same bytes.
        rows_out = tmp_path / "rows.csv"
        delta_publish(report.state, records[-60:], output=rows_out)
        append_csv = tmp_path / "append.csv"
        _write_csv(append_csv, header, records[-60:])
        csv_out = tmp_path / "from-csv.csv"
        delta_publish(report.state, append_csv, output=csv_out)
        assert rows_out.read_bytes() == csv_out.read_bytes()

    def test_chained_appends_equal_one_full_publish(self, adult, tmp_path):
        header, records = adult
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, header, records[:-100])
        published = tmp_path / "published.csv"
        report = publish_base(
            base_csv, sensitive="Income", output=published,
            rng=SEED, chunk_size=CHUNK_SIZE,
        )
        state = report.state
        # Two successive appends, each advancing the state in place.
        first = delta_publish(state, records[-100:-40])
        second = delta_publish(first.state, records[-40:])
        assert second.state.n_rows == len(records)

        full_csv = tmp_path / "full.csv"
        _write_csv(full_csv, header, records)
        full_out = tmp_path / "full_published.csv"
        stream_publish(
            full_csv, sensitive="Income", strategy="sps", rng=SEED,
            chunk_size=CHUNK_SIZE, output=full_out,
        )
        assert published.read_bytes() == full_out.read_bytes()

    def test_successor_state_round_trips_through_json(self, adult, tmp_path):
        header, records = adult
        _, _, delta_report, _ = _split_publish(tmp_path, header, records, 50)
        state = delta_report.state
        assert DeltaState.from_json(state.to_json()) == state
        path = tmp_path / "state.json"
        state.save(path)
        assert DeltaState.load(path) == state


# --------------------------------------------------------------------- #
# A state written before 8.0.0 is refused, with the re-base named
# --------------------------------------------------------------------- #

#: ``publish_base`` output of release 4.0.0 (seed 11, chunk_size 4) over
#: ``base.csv``: ``state_version`` 1 documents plus the published CSVs.
STATE_4_0_0 = Path(__file__).parent / "data" / "delta_state_4_0_0"
#: The same sps base published by release 7.0.0: a ``state_version`` 2
#: document (its published CSV equals the 4.0.0 one).
STATE_7_0_0 = Path(__file__).parent / "data" / "delta_state_7_0_0"

STALE_STATES = {
    "4.0.0-sps": STATE_4_0_0 / "state_sps.json",
    "4.0.0-dp-laplace": STATE_4_0_0 / "state_dp-laplace.json",
    "7.0.0-sps": STATE_7_0_0 / "state_sps.json",
}


def _base_rows():
    with (STATE_4_0_0 / "base.csv").open(newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


class TestStatesBefore800:
    @pytest.mark.parametrize("path", list(STALE_STATES.values()), ids=list(STALE_STATES))
    def test_file_state_refused_with_rebase_hint(self, path):
        document = json.loads(path.read_text())
        assert document["state_version"] in (1, 2)
        with pytest.raises(StaleDeltaStateError, match="publish_base") as refused:
            DeltaState.load(path)
        assert "repro-delta init" in str(refused.value)
        assert refused.value.document == document
        assert isinstance(refused.value, ValueError)

    def test_cli_append_to_stale_state_exits_2(self, tmp_path, capsys):
        appended = tmp_path / "new.csv"
        _write_csv(appended, ["City", "Job", "Disease"], [["athens", "clerk", "flu"]])
        state = tmp_path / "state.json"
        state.write_bytes((STATE_7_0_0 / "state_sps.json").read_bytes())
        assert delta_cli_main(["append", str(appended), "--state", str(state)]) == 2
        assert "repro-delta init" in capsys.readouterr().err
        assert state.read_bytes() == (STATE_7_0_0 / "state_sps.json").read_bytes()

    def test_v2_state_would_splice_two_draw_layouts(self, tmp_path):
        # Why the refusal exists: read as current, the 7.0.0 state's clean
        # chunks keep their old bytes while the dirty one is re-drawn, and
        # the splice no longer equals a full re-publish.
        document = json.loads((STATE_7_0_0 / "state_sps.json").read_text())
        document["state_version"] = 3
        published = tmp_path / "published.csv"
        published.write_bytes((STATE_7_0_0 / "published_sps.csv").read_bytes())
        document["output"] = str(published)
        state = DeltaState.from_json(document)
        header, rows = _base_rows()
        last_group = state.groups.keys[-1].tolist()
        appended = [[attr.values[code] for attr, code in zip(state.schema.public, last_group)]
                    + [state.schema.sensitive.values[0]]]
        report = delta_publish(state, appended)
        assert report.n_chunks_dirty < report.n_chunks

        full_csv = tmp_path / "full.csv"
        _write_csv(full_csv, header, rows + appended)
        expected = tmp_path / "expected.csv"
        stream_publish(
            full_csv, sensitive=state.sensitive, strategy="sps", rng=state.seed,
            chunk_size=state.chunk_size, output=expected,
        )
        assert published.read_bytes() != expected.read_bytes()

    @pytest.mark.parametrize("strategy", ["sps", "dp-laplace"])
    def test_rebased_state_appends_like_a_full_publish(self, tmp_path, strategy):
        stale = json.loads((STATE_4_0_0 / f"state_{strategy}.json").read_text())
        output = tmp_path / "published.csv"
        report = publish_base(
            STATE_4_0_0 / "base.csv", sensitive=stale["sensitive"], output=output,
            strategy=strategy, rng=stale["seed"], chunk_size=stale["chunk_size"],
            chunk_rows=stale["chunk_rows"],
        )
        saved = tmp_path / "state.json"
        report.state.save(saved)
        assert json.loads(saved.read_text())["state_version"] == 3
        appended = [["athens", "clerk", "flu"], ["oslo", "clerk", "cold"]]
        delta_publish(DeltaState.load(saved), appended)

        header, rows = _base_rows()
        full_csv = tmp_path / "full.csv"
        _write_csv(full_csv, header, rows + appended)
        expected = tmp_path / "expected.csv"
        stream_publish(
            full_csv, sensitive=stale["sensitive"], strategy=strategy, rng=stale["seed"],
            chunk_size=stale["chunk_size"], output=expected,
        )
        assert output.read_bytes() == expected.read_bytes()

    def test_stale_states_in_sqlite_store_refused_through_service(self, tmp_path):
        from repro.serve.router import ServiceRouter
        from repro.service.engine import AnonymizationService
        from repro.store import NS_DELTAS, open_store

        published = tmp_path / "published.csv"
        published.write_bytes((STATE_4_0_0 / "published_sps.csv").read_bytes())
        path = tmp_path / "service.db"
        store = open_store(path)
        stored = {}
        for name, fixture in (("old", STATE_4_0_0), ("older7", STATE_7_0_0)):
            document = json.loads((fixture / "state_sps.json").read_text())
            document["output"] = str(published)
            store.put(NS_DELTAS, name, document)
            stored[name] = store.get(NS_DELTAS, name)
        store.close()

        appended = [["athens", "clerk", "flu"], ["oslo", "clerk", "cold"]]
        service = AnonymizationService(snapshot_path=path)  # starts despite them
        try:
            fresh = tmp_path / "fresh.csv"
            service.publish_delta_base(
                "fresh", STATE_4_0_0 / "base.csv", "Disease", "sps", fresh, seed=11,
                chunk_size=4,
            )
            router = ServiceRouter(service)
            for name in stored:
                body = json.dumps({"rows": appended}).encode()
                result = router.handle(
                    "POST", f"/datasets/{name}/rows", io.BytesIO(body), len(body)
                )
                assert result.status == 400
                assert "repro-delta init" in json.loads(result.body)["error"]
            failed = [record for record in service.jobs.records() if record.status == "failed"]
            assert [record.spec.dataset for record in failed] == list(stored)
            assert all("publish_base" in record.error for record in failed)
            assert failed[0].spec.rows_appended == 2 and failed[0].spec.delta

            record = service.append_rows("fresh", rows=appended)
            assert record.status == "completed" and record.metadata["mode"] == "delta"
        finally:
            service.close()

        store = open_store(path)
        try:
            for name, before in stored.items():
                after = store.get(NS_DELTAS, name)
                assert (after.value, after.version) == (before.value, before.version)
        finally:
            store.close()
        assert published.read_bytes() == (STATE_4_0_0 / "published_sps.csv").read_bytes()


#: ``publish_base`` output of release 20.0.0, whose groups were a dense
#: count matrix, over the 4.0.0 ``base.csv`` (seed 11, chunk_size 4): an sps
#: base at (0.7, 0.7, 0.9), where 13 of its 14 groups are sampled, and a
#: dp-laplace base.  Both are ``state_version`` 3 documents.
STATE_20_0_0 = Path(__file__).parent / "data" / "delta_state_20_0_0"


class TestStatesFrom2000:
    @pytest.mark.parametrize("strategy", ["sps", "dp-laplace"])
    def test_state_resaves_unchanged_and_appends_like_a_full_publish(self, tmp_path, strategy):
        path = STATE_20_0_0 / f"state_{strategy}.json"
        state = DeltaState.load(path)
        resaved = tmp_path / "resaved.json"
        state.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()

        published = tmp_path / "published.csv"
        published.write_bytes((STATE_20_0_0 / f"published_{strategy}.csv").read_bytes())
        # One row lands in an existing group, one opens a new group.
        appended = [["athens", "clerk", "flu"], ["oslo", "clerk", "cold"]]
        report = delta_publish(dataclasses.replace(state, output=str(published)), appended)
        assert report.mode == "delta" and report.n_chunks_dirty < report.n_chunks

        header, rows = _base_rows()
        full_csv = tmp_path / "full.csv"
        _write_csv(full_csv, header, rows + appended)
        expected = tmp_path / "expected.csv"
        stream_publish(
            full_csv, sensitive=state.sensitive, strategy=strategy, rng=state.seed,
            chunk_size=state.chunk_size, output=expected, **state.params,
        )
        assert published.read_bytes() == expected.read_bytes()


# --------------------------------------------------------------------- #
# Dirty-chunk resolution and the loud full fallback
# --------------------------------------------------------------------- #

_TINY_HEADER = ["City", "Disease"]


def _tiny_rows(cities, diseases, repeat=4):
    return [[c, d] for c in cities for d in diseases for _ in range(repeat)]


class TestDirtyChunks:
    def _base(self, tmp_path, rows, chunk_size=1):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, rows)
        return publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "published.csv",
            rng=3, chunk_size=chunk_size,
        )

    def test_key_localized_append_leaves_most_chunks_clean(self, adult, tmp_path):
        # Appending rows for one key range must not dirty the whole output.
        rows = _tiny_rows("abcdefgh", ["flu", "cold"])
        report = self._base(tmp_path, rows)  # 8 groups, chunk_size=1
        appended = [["h", "flu"], ["h", "cold"]]
        delta = delta_publish(report.state, appended)
        assert delta.mode == "delta"
        assert delta.n_chunks == 8
        assert delta.n_chunks_dirty == 1
        assert delta.groups_touched == 1

    def test_new_group_dirties_insertion_point_onward(self, tmp_path):
        rows = _tiny_rows("aceg", ["flu", "cold"])
        report = self._base(tmp_path, rows)  # groups a, c, e, g
        # "b" inserts at position 1: chunks 1.. shift, chunk 0 stays clean.
        delta = delta_publish(report.state, [["b", "flu"]])
        assert delta.mode == "delta"
        assert delta.n_chunks == 5
        assert 0 < delta.n_chunks_dirty < delta.n_chunks

    @pytest.mark.parametrize(
        ("appended", "n_dirty"),
        [
            # "a" goes in at position 0 and shifts everything; "z" lands past the end.
            ([["a", "flu"], ["z", "cold"], ["d", "flu"]], 3),
            # Only the last chunk changes: "e" grows and "z" joins it.
            ([["z", "cold"], ["e", "flu"]], 1),
        ],
        ids=["first-and-past-the-end", "past-the-end"],
    )
    def test_inserted_groups_at_both_ends_equal_a_full_publish(
        self, tmp_path, appended, n_dirty
    ):
        rows = _tiny_rows("cde", ["flu", "cold"])
        report = self._base(tmp_path, rows, chunk_size=2)  # chunks [c, d], [e]
        delta = delta_publish(report.state, appended)
        assert delta.mode == "delta"
        assert delta.n_chunks_dirty == n_dirty
        full_csv = tmp_path / "full.csv"
        _write_csv(full_csv, _TINY_HEADER, rows + appended)
        full_out = tmp_path / "full_published.csv"
        stream_publish(
            full_csv, sensitive="Disease", strategy="sps", rng=3,
            chunk_size=2, output=full_out,
        )
        assert Path(report.state.output).read_bytes() == full_out.read_bytes()

    def test_new_sensitive_value_falls_back_to_full(self, tmp_path, caplog, monkeypatch):
        rows = _tiny_rows("abcd", ["flu", "cold"])
        report = self._base(tmp_path, rows)
        # A CLI test running earlier may have left the "repro" logger
        # non-propagating (configure_cli_logging does); caplog listens on
        # the root logger, so restore propagation for the capture.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level("WARNING", logger="repro.delta"):
            delta = delta_publish(report.state, [["a", "covid"]])
        assert delta.mode == "full"
        assert delta.n_chunks_dirty == delta.n_chunks
        assert any("sensitive domain" in r.message for r in caplog.records)
        # The fallback is loud but still byte-identical to a full publish.
        full_csv = tmp_path / "full.csv"
        _write_csv(full_csv, _TINY_HEADER, rows + [["a", "covid"]])
        full_out = tmp_path / "full_published.csv"
        stream_publish(
            full_csv, sensitive="Disease", strategy="sps", rng=3,
            chunk_size=1, output=full_out,
        )
        assert Path(report.state.output).read_bytes() == full_out.read_bytes()


# --------------------------------------------------------------------- #
# Stance flag and error surfaces
# --------------------------------------------------------------------- #


class TestStanceAndErrors:
    @pytest.mark.parametrize("strategy", ["uniform", "generalize+sps"])
    def test_non_capable_strategy_refused(self, tmp_path, strategy):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        with pytest.raises(DeltaUnsupportedError, match="delta_capable"):
            publish_base(
                base_csv, sensitive="Disease", output=tmp_path / "out.csv",
                strategy=strategy, rng=1,
            )

    def test_output_must_be_a_path(self, tmp_path):
        with pytest.raises(ValueError, match="path"):
            publish_base(
                io.StringIO("City,Disease\na,flu\n"), sensitive="Disease",
                output=io.StringIO(), rng=1,
            )

    def test_state_version_rejected(self, adult, tmp_path):
        header, records = adult
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, header, records[:200])
        report = publish_base(
            base_csv, sensitive="Income", output=tmp_path / "out.csv", rng=1
        )
        payload = report.state.to_json()
        payload["state_version"] = 99
        with pytest.raises(ValueError, match="version"):
            DeltaState.from_json(payload)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda groups: groups["domains"][0].reverse(),  # unsorted domain
            lambda groups: groups["keys"][0].__setitem__(0, 99),  # code off the domain
            lambda groups: groups["keys"][0].__setitem__(1, groups["keys"][0][0]),  # repeated key
            lambda groups: groups["counts"]["n"].__setitem__(0, 0),  # an empty cell
            lambda groups: groups["counts"]["code"].__setitem__(0, 7),  # SA code off the domain
            lambda groups: groups["counts"]["group"].pop(),  # ragged count lists
        ],
        ids=["domain", "key-code", "duplicate-key", "zero-count", "sa-code", "ragged"],
    )
    def test_corrupt_v2_groups_rejected(self, tmp_path, corrupt):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcd", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv", rng=1
        )
        payload = report.state.to_json()
        assert DeltaState.from_json(payload) == report.state
        corrupt(payload["groups"])
        with pytest.raises(ValueError, match="corrupt delta state"):
            DeltaState.from_json(payload)

    @pytest.mark.parametrize(
        "keys",
        [
            [[0, 1, 0, 1], [0, 0, 1, 1]],  # out of order in the first column
            [[0, 0, 1, 1], [1, 0, 0, 1]],  # out of order in the second column only
            [[0, 0, 1, 1], [0, 0, 0, 1]],  # a repeated key
        ],
        ids=["first-column", "second-column", "repeated"],
    )
    def test_unsorted_or_repeated_keys_refused(self, tmp_path, keys):
        base_csv = tmp_path / "base.csv"
        rows = [[city, job, sa] for city in "ab" for job in "xy" for sa in ("flu", "cold")]
        _write_csv(base_csv, ["City", "Job", "Disease"], rows)
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv", rng=1
        )
        payload = report.state.to_json()
        assert payload["groups"]["keys"] == [[0, 0, 1, 1], [0, 1, 0, 1]]
        payload["groups"]["keys"] = keys
        with pytest.raises(ValueError, match="the group keys are not unique and sorted"):
            DeltaState.from_json(payload)

    def test_inconsistent_state_rejected(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcd", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv",
            rng=1, chunk_size=1,
        )
        broken = dataclasses.replace(
            report.state, chunk_row_counts=report.state.chunk_row_counts[:-1]
        )
        with pytest.raises(ValueError, match="inconsistent"):
            delta_publish(broken, [["a", "flu"]])

    def test_tampered_base_file_detected(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcd", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv",
            rng=1, chunk_size=1,
        )
        published = Path(report.state.output)
        lines = published.read_bytes().splitlines(keepends=True)
        published.write_bytes(b"".join(lines[:-2]))  # drop two published rows
        with pytest.raises(ValueError, match="modified outside the delta engine"):
            delta_publish(report.state, [["a", "flu"]])

    def _dp_base(self, tmp_path):
        """A 24-row dp-laplace base, one group per chunk: (state, published path)."""
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abc", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv",
            strategy="dp-laplace", rng=1, chunk_size=1,
        )
        return report.state, Path(report.state.output)

    def test_tampered_clean_chunk_detected(self, tmp_path):
        # A same-length edit keeps every row count and the file size; only
        # the checksum of the clean chunk it lands in can tell.
        state, published = self._dp_base(tmp_path)
        original = published.read_bytes()
        assert b"a,flu" in original
        forged = original.replace(b"a,flu", b"a,hiv", 1)
        published.write_bytes(forged)
        with pytest.raises(ValueError, match="modified outside the delta engine"):
            delta_publish(state, [["c", "flu"]])  # dirties chunk 2, not chunk 0
        assert published.read_bytes() == forged
        assert _no_temp_leftovers(tmp_path)

    def test_bytes_appended_to_base_file_detected(self, tmp_path):
        state, published = self._dp_base(tmp_path)
        extended = published.read_bytes() + b"a,flu\r\n"
        published.write_bytes(extended)
        with pytest.raises(ValueError, match="modified outside the delta engine"):
            delta_publish(state, [["c", "flu"]])
        assert published.read_bytes() == extended
        assert _no_temp_leftovers(tmp_path)

    def test_failed_state_save_keeps_previous_state_file(self, tmp_path, monkeypatch):
        state, _ = self._dp_base(tmp_path)
        path = tmp_path / "state.json"
        state.save(path)
        previous = path.read_bytes()
        successor = delta_publish(state, [["c", "flu"]]).state

        class HalfWrite:
            """A file handle whose write stores half its data, then fails."""

            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                self._handle.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = Path.open

        def open_failing_writes(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            return handle if "r" in mode else HalfWrite(handle)

        monkeypatch.setattr(Path, "open", open_failing_writes)
        with pytest.raises(OSError, match="No space left"):
            successor.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert DeltaState.load(path) == state
        assert _no_temp_leftovers(tmp_path)

    def test_appended_header_mismatch_detected(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv", rng=1
        )
        wrong = tmp_path / "wrong.csv"
        _write_csv(wrong, ["Town", "Disease"], [["a", "flu"]])
        with pytest.raises(SchemaError, match="does not match the published"):
            delta_publish(report.state, wrong)

    def test_appended_repeated_header_name_refused_at_the_header(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv", rng=1
        )
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("City,City,Disease\na,a,flu\nb,flu\n")
        with pytest.raises(SchemaError, match=rf"{repeated}: header .* repeats column"):
            delta_publish(report.state, repeated)

    def test_workers_must_be_positive(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv", rng=1
        )
        with pytest.raises(ValueError, match="workers"):
            delta_publish(report.state, [["a", "flu"]], workers=0)

    def test_report_summary_is_json_ready(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv", rng=1
        )
        delta = delta_publish(report.state, [["a", "flu"]])
        summary = json.loads(json.dumps(delta.summary()))
        assert summary["mode"] == "delta"
        assert summary["rows_appended"] == 1
        assert summary["audit"]["is_private"] in (True, False)


# --------------------------------------------------------------------- #
# Fault injection: every failure leaves the published base untouched
# --------------------------------------------------------------------- #


class _ExplodingDeltaStrategy(SPSStrategy):
    """Strategy whose kernel raises on demand.

    Armed through an environment variable so the *base* publish succeeds
    and only the later delta splice explodes.
    """

    name = "sps-delta-exploding"

    def chunk_publisher(self, schema, spec, resolved):
        inner = super().chunk_publisher(schema, spec, resolved)

        def run_fn(run, rngs, bounds):
            mode = os.environ.get("REPRO_TEST_DELTA_EXPLODE")
            if mode == "raise":
                raise OSError("disk full")
            return inner(run, rngs, bounds)

        return run_fn


@pytest.fixture()
def exploding_strategy():
    strategy = _ExplodingDeltaStrategy()
    register_strategy(strategy)
    try:
        yield strategy
    finally:
        unregister_strategy(strategy.name)


def _no_temp_leftovers(directory: Path) -> bool:
    return not [p for p in directory.iterdir() if p.suffix == ".tmp" or ".tmp" in p.name]


class TestFaultInjection:
    def _exploding_base(self, tmp_path, exploding_strategy, monkeypatch):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcdefgh", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "published.csv",
            strategy=exploding_strategy, rng=3, chunk_size=1,
        )
        return report.state, Path(report.state.output).read_bytes()

    def test_kernel_failure_leaves_base_intact(
        self, tmp_path, exploding_strategy, monkeypatch
    ):
        state, base_bytes = self._exploding_base(
            tmp_path, exploding_strategy, monkeypatch
        )
        monkeypatch.setenv("REPRO_TEST_DELTA_EXPLODE", "raise")
        with pytest.raises(OSError, match="disk full"):
            delta_publish(state, [["h", "flu"]])
        assert Path(state.output).read_bytes() == base_bytes
        assert _no_temp_leftovers(tmp_path)

    def test_kernel_failure_on_worker_threads_leaves_base_intact(
        self, tmp_path, exploding_strategy, monkeypatch
    ):
        state, base_bytes = self._exploding_base(
            tmp_path, exploding_strategy, monkeypatch
        )
        monkeypatch.setenv("REPRO_TEST_DELTA_EXPLODE", "raise")
        # Appending new trailing groups dirties several chunks, so the splice
        # fans out over the thread pool; the failure raised on a pool thread
        # reaches the caller and the splice never reaches the rename.
        appended = [["x", "flu"], ["y", "cold"], ["z", "flu"], ["z", "cold"]]
        with pytest.raises(OSError, match="disk full"):
            delta_publish(state, appended, workers=2)
        assert Path(state.output).read_bytes() == base_bytes
        assert _no_temp_leftovers(tmp_path)

    def test_sink_write_failure_mid_splice_leaves_base_intact(
        self, tmp_path, monkeypatch
    ):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcdefgh", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "published.csv",
            rng=3, chunk_size=1,
        )
        base_bytes = Path(report.state.output).read_bytes()

        from repro.delta import engine as engine_module

        def exploding_write(self, run):
            raise OSError("sink write failed")

        monkeypatch.setattr(
            engine_module._CsvSink, "write_run", exploding_write
        )
        with pytest.raises(OSError, match="sink write failed"):
            delta_publish(report.state, [["h", "flu"]])
        assert Path(report.state.output).read_bytes() == base_bytes
        assert _no_temp_leftovers(tmp_path)

    def test_schema_incompatible_append_leaves_base_intact(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "published.csv",
            rng=3,
        )
        base_bytes = Path(report.state.output).read_bytes()
        with pytest.raises(SchemaError, match="appended rows, line 3"):
            delta_publish(report.state, [["a", "flu"], ["ragged"]])
        assert Path(report.state.output).read_bytes() == base_bytes
        assert _no_temp_leftovers(tmp_path)

    def test_overwrite_false_never_clobbers_a_file_created_mid_run(self, tmp_path):
        # The no-clobber decision is made when the output is moved into
        # place, not by an exists() check up front: a file that appears
        # while the base publish is reading must survive, byte for byte.
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcd", ["flu", "cold"]))
        out = tmp_path / "published.csv"
        foreign = b"someone else's file\n"

        def create_target(event):
            if event["phase"] == "read" and not out.exists():
                out.write_bytes(foreign)

        with pytest.raises(FileExistsError):
            publish_base(
                base_csv, sensitive="Disease", output=out, rng=3,
                overwrite=False, progress=create_target,
            )
        assert out.read_bytes() == foreign
        assert _no_temp_leftovers(tmp_path)


# --------------------------------------------------------------------- #
# Split copy: clean chunks copied by the caller and one helper thread
# --------------------------------------------------------------------- #


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("workers", [1, 2])
class TestSplitCopy:
    """A clean span is split by chunk count: the helper copies its second half."""

    def _dp_base(self, tmp_path, cities="abcdefgh"):
        """A dp-laplace base, one group (city) per chunk: (state, base rows, published path)."""
        base_csv = tmp_path / "base.csv"
        rows = _tiny_rows(cities, ["flu", "cold"])
        _write_csv(base_csv, _TINY_HEADER, rows)
        report = publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "out.csv",
            strategy="dp-laplace", rng=1, chunk_size=1,
        )
        return report.state, rows, Path(report.state.output)

    def test_edit_in_last_clean_chunk_refused_with_its_number(self, tmp_path, workers):
        state, _, published = self._dp_base(tmp_path)
        original = published.read_bytes()
        # Appending to "a" dirties chunk 0 only, so chunks 1-7 are one clean
        # span and chunk 7, the file's last rows, is in the helper's half.
        last = original.rindex(b"\r\n", 0, len(original) - 2) + 2
        assert original[last:].startswith(b"h,")
        forged = original[:last] + b"H" + original[last + 1:]
        published.write_bytes(forged)
        with pytest.raises(ValueError, match="chunk 7 fails its CRC32 check"):
            delta_publish(state, [["a", "flu"]], workers=workers)
        assert published.read_bytes() == forged
        assert _no_temp_leftovers(tmp_path)

    def test_base_truncated_after_its_size_check_refused(self, tmp_path, workers, monkeypatch):
        from repro.delta import engine as engine_module

        state, _, published = self._dp_base(tmp_path)
        checked = engine_module._check_base

        def check_then_truncate(base, path, header, chunk_bytes):
            checked(base, path, header, chunk_bytes)
            os.truncate(path, path.stat().st_size - 3)

        monkeypatch.setattr(engine_module, "_check_base", check_then_truncate)
        with pytest.raises(ValueError, match="chunk 7 fails its CRC32 check"):
            delta_publish(state, [["a", "flu"]], workers=workers)
        assert _no_temp_leftovers(tmp_path)

    def test_helper_write_failure_leaves_no_temp_file_or_descriptor(
        self, tmp_path, workers, monkeypatch
    ):
        import threading

        from repro.utils.files import RELEASER

        state, _, published = self._dp_base(tmp_path)
        base_bytes = published.read_bytes()
        real_pwrite = os.pwrite
        helper_writes = []

        def pwrite(fd, data, offset):
            if threading.current_thread().name == "repro-splice-copy":
                helper_writes.append(offset)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_pwrite(fd, data, offset)

        RELEASER.join()
        before = _open_fds()
        monkeypatch.setattr(os, "pwrite", pwrite)
        with pytest.raises(OSError, match="No space left"):
            delta_publish(state, [["a", "flu"]], workers=workers)
        monkeypatch.undo()
        assert helper_writes
        assert _open_fds() == before
        assert published.read_bytes() == base_bytes
        assert _no_temp_leftovers(tmp_path)

    def test_chunk_index_after_split_copies_equals_a_full_base(self, tmp_path, workers):
        state, rows, published = self._dp_base(tmp_path, cities="abcdefghijkl")
        # Dirties chunks 2, 6 and 10: clean spans [0, 2), [3, 6), [7, 10), [11].
        appended = [["c", "flu"], ["g", "cold"], ["k", "flu"]]
        events = []
        successor = delta_publish(
            state, appended, workers=workers, progress=events.append
        ).state
        full_csv = tmp_path / "full.csv"
        _write_csv(full_csv, _TINY_HEADER, rows + appended)
        full = publish_base(
            full_csv, sensitive="Disease", output=tmp_path / "full_out.csv",
            strategy="dp-laplace", rng=1, chunk_size=1,
        ).state
        assert successor.chunk_row_counts == full.chunk_row_counts
        assert successor.chunk_bytes == full.chunk_bytes
        assert successor.chunk_crc32 == full.chunk_crc32
        assert published.read_bytes() == (tmp_path / "full_out.csv").read_bytes()
        done = [event["chunks_done"] for event in events if event["phase"] == "splice"]
        assert done == sorted(done) and done[-1] == 12
        assert all(event["n_chunks"] == 12 for event in events if event["phase"] == "splice")


# --------------------------------------------------------------------- #
# Base publish observability: one stream run under the delta labels
# --------------------------------------------------------------------- #


class TestBaseObservability:
    def _publish(self, tmp_path, **kwargs):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcdefgh", ["flu", "cold"]))
        return publish_base(
            base_csv, sensitive="Disease", output=tmp_path / "published.csv",
            rng=3, **kwargs,
        )

    def test_root_span_is_delta_base_on_the_delta_path(self, tmp_path):
        from repro.obs import Tracer

        with Tracer() as tracer:
            self._publish(tmp_path)
        roots = [r for r in tracer.spans if r.attributes.get("kind") == "publish"]
        assert [r.name for r in roots] == ["delta_base"]
        assert roots[0].attributes["path"] == "delta"

    def test_counts_one_delta_run_and_no_stream_run(self, tmp_path):
        from repro.obs.metrics import PUBLISH_RUNS

        before = {
            path: PUBLISH_RUNS.value(path=path, strategy="sps")
            for path in ("delta", "stream")
        }
        self._publish(tmp_path)
        assert PUBLISH_RUNS.value(path="delta", strategy="sps") == before["delta"] + 1
        assert PUBLISH_RUNS.value(path="stream", strategy="sps") == before["stream"]

    def test_timings_sum_to_total_seconds(self, tmp_path):
        report = self._publish(tmp_path)
        assert all(value >= 0.0 for value in report.timings.values())
        assert report.total_seconds == pytest.approx(sum(report.timings.values()))
        assert report.summary()["total_seconds"] == report.total_seconds

    def test_n_chunks_counts_kernel_chunks_not_ingestion_chunks(self, tmp_path):
        # 64 rows in 16-row ingestion chunks = 4 reads; 8 groups at 3 per
        # kernel chunk = 3 kernel chunks.
        events = []
        report = self._publish(
            tmp_path, chunk_rows=16, chunk_size=3, progress=events.append
        )
        assert max(e["chunks_read"] for e in events if e["phase"] == "read") == 4
        assert report.n_groups == 8
        assert report.n_chunks == report.n_chunks_dirty == 3
        assert len(report.state.chunk_row_counts) == 3
        assert sum(report.state.chunk_row_counts) == report.published_records

    def test_every_base_keyword_is_a_reserved_engine_option(self):
        import inspect

        from repro.stream.engine import ENGINE_OPTIONS

        named = {
            name
            for name, parameter in inspect.signature(publish_base).parameters.items()
            if parameter.kind is not inspect.Parameter.VAR_KEYWORD
        }
        assert named <= ENGINE_OPTIONS


# --------------------------------------------------------------------- #
# ChunkedReader.from_rows — the append source (regression, satellite #3)
# --------------------------------------------------------------------- #


class TestFromRows:
    def test_ragged_row_names_source_and_line(self):
        reader = ChunkedReader.from_rows(
            [["a", "flu"], ["ragged"]], _TINY_HEADER, sensitive="Disease"
        )
        with pytest.raises(SchemaError, match=r"appended rows.*line 3"):
            list(reader.chunks())

    def test_missing_sensitive_column_names_source(self):
        reader = ChunkedReader.from_rows(
            [["a", "b"]], ["City", "Town"], sensitive="Disease"
        )
        with pytest.raises(SchemaError, match="appended rows"):
            list(reader.chunks())

    def test_empty_batch_names_source(self):
        reader = ChunkedReader.from_rows([], _TINY_HEADER, sensitive="Disease")
        with pytest.raises(SchemaError, match="appended rows"):
            list(reader.chunks())

    def test_custom_label_used_in_errors(self):
        reader = ChunkedReader.from_rows(
            [["only"]], _TINY_HEADER, sensitive="Disease", label="POST body"
        )
        with pytest.raises(SchemaError, match="POST body"):
            list(reader.chunks())

    def test_rows_round_trip_like_a_file(self):
        reader = ChunkedReader.from_rows(
            [["a", "flu"], ["b", "cold"]], _TINY_HEADER,
            sensitive="Disease", chunk_rows=1,
        )
        assert [len(chunk) for chunk in reader.chunks()] == [1, 1]
        assert reader.public_names == ["City"]


# --------------------------------------------------------------------- #
# Delta metrics
# --------------------------------------------------------------------- #


class TestPublishWiring:
    @pytest.fixture()
    def base_state(self, adult, tmp_path):
        header, records = adult
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, header, records[:-80])
        report = publish_base(
            base_csv, sensitive="Income", output=tmp_path / "published.csv",
            rng=SEED, chunk_size=CHUNK_SIZE,
        )
        return report.state, records[-80:]

    def test_metrics_count_touched_groups_and_rows(self, base_state, tmp_path):
        state, appended = base_state
        groups_before = DELTA_GROUPS_TOUCHED.value(strategy="sps")
        rows_before = DELTA_ROWS_APPENDED.value(strategy="sps")
        report = delta_publish(state, appended, output=tmp_path / "m.csv")
        assert (
            DELTA_GROUPS_TOUCHED.value(strategy="sps") - groups_before
            == report.groups_touched
        )
        assert DELTA_ROWS_APPENDED.value(strategy="sps") - rows_before == 80

    def test_publish_takes_the_retired_append_keywords_as_strategy_params(
        self, base_state, tmp_path
    ):
        # The 17.0.0 upgrade path: an append goes through delta_publish.
        state, appended = base_state
        with pytest.raises(ParamError, match=r"\['append', 'delta_state'\]"):
            repro.publish(
                source=tmp_path / "base.csv", sensitive="Income",
                append=appended, delta_state=state,
            )


def test_audit_block_is_the_same_on_every_path(tmp_path):
    """``repro.publish``, ``stream_publish`` and a delta base print one audit block."""
    from repro.dataset.census import generate_census
    from repro.dataset.loaders import read_csv, write_csv
    from repro.service.models import AuditSummary

    table = generate_census(3_000, seed=4)
    source = tmp_path / "census.csv"
    write_csv(table, source)
    sensitive = table.schema.sensitive_name
    # A spec under which 13 of the 2,800 groups violate, so no count is zero.
    params = {"lam": 0.7, "delta": 0.7, "retention_probability": 0.9}
    in_memory = repro.publish(
        read_csv(source, sensitive=sensitive), strategy="sps", rng=SEED, **params
    )
    streamed = stream_publish(source, sensitive=sensitive, strategy="sps", rng=SEED, **params)
    base = publish_base(
        source, sensitive=sensitive, output=tmp_path / "out.csv", strategy="sps", rng=SEED,
        **params,
    )
    block = in_memory.summary()["audit"]
    assert block == {
        "n_groups": 2800,
        "n_violating_groups": 13,
        "group_violation_rate": 13 / 2800,
        "record_violation_rate": in_memory.audit.record_violation_rate,
        "is_private": False,
    }
    assert 0 < block["record_violation_rate"] < 1
    for report in (streamed, base):
        audit = report.summary()["audit"]
        assert audit == block
        assert [type(value) for value in audit.values()] == [int, int, float, float, bool]
    summary = AuditSummary.from_audit(base.audit).to_json()
    assert summary == {**block, "total_records": 3_000}
    assert AuditSummary.from_json(json.loads(json.dumps(summary))).to_json() == summary


# --------------------------------------------------------------------- #
# Service layer: delta datasets as jobs
# --------------------------------------------------------------------- #


class TestServiceDelta:
    @pytest.fixture()
    def service_base(self, tmp_path):
        from repro.service.engine import AnonymizationService

        service = AnonymizationService()
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcd", ["flu", "cold"]))
        out = tmp_path / "published.csv"
        record = service.publish_delta_base(
            "living", base_csv, "Disease", "sps", out, seed=3, chunk_size=2
        )
        return service, record, out

    def test_delta_base_job_records_spec_and_state(self, service_base):
        service, record, out = service_base
        assert record.status == "completed"
        assert record.spec.delta is True
        assert record.spec.rows_appended == 0
        assert record.metadata["mode"] == "base"
        assert out.exists()
        assert "living" in service.deltas

    def test_append_rows_runs_incremental_job(self, service_base):
        service, _, out = service_base
        before = out.read_bytes()
        n_rows = service.deltas["living"].n_rows
        record = service.append_rows("living", rows=[["d", "flu"], ["d", "cold"]])
        assert record.status == "completed"
        assert record.spec.delta is True
        assert record.spec.rows_appended == 2
        assert record.metadata["mode"] == "delta"
        assert record.metadata["rows_appended"] == 2
        # The job timeline carries the delta phases, in order.
        phases = [event["event"] for event in record.events]
        assert phases.index("append_read") < phases.index("diff") < phases.index("splice")
        assert phases[-1] == "completed"
        # The published CSV advanced atomically and the state chained.
        assert out.read_bytes() != before
        assert service.deltas["living"].n_rows == n_rows + 2

    def test_append_from_source_path_records_row_count(self, service_base, tmp_path):
        service, _, _ = service_base
        append_csv = tmp_path / "append.csv"
        _write_csv(append_csv, _TINY_HEADER, [["d", "flu"], ["d", "cold"], ["e", "flu"]])
        record = service.append_rows("living", source=append_csv)
        assert record.status == "completed"
        # A source append only knows its row count after the read; the spec
        # is backfilled so HTTP clients see it, same as a rows= append.
        assert record.spec.rows_appended == 3
        assert record.spec.source == str(append_csv)
        assert record.metadata["rows_appended"] == 3

    def test_append_to_unknown_dataset_is_not_found(self, service_base):
        from repro.service.registry import NotFoundError

        service, _, _ = service_base
        with pytest.raises(NotFoundError, match="nope"):
            service.append_rows("nope", rows=[["a", "flu"]])

    def test_duplicate_delta_name_requires_replace(self, service_base, tmp_path):
        from repro.service.registry import ServiceError

        service, _, _ = service_base
        base_csv = tmp_path / "base2.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        with pytest.raises(ServiceError, match="already exists"):
            service.publish_delta_base(
                "living", base_csv, "Disease", "sps", tmp_path / "out2.csv"
            )

    @pytest.mark.parametrize(
        "params",
        [
            {"audit": False},
            {"delimiter": ";"},
            {"workers": 3},
        ],
    )
    def test_engine_option_in_params_rejected(self, service_base, tmp_path, params):
        # Each of these used to bind a publish_base keyword (or, for
        # workers, collide into a TypeError and a 500) instead of reaching
        # the strategy's parameter validation.
        from repro.serve.router import ServiceRouter
        from repro.service.registry import ServiceError

        service, _, _ = service_base
        base_csv = tmp_path / "base2.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        out = tmp_path / "out2.csv"
        n_jobs = len(service.jobs)
        with pytest.raises(ServiceError, match="stream-job options"):
            service.publish_delta_base(
                "other", base_csv, "Disease", "sps", out, params=params
            )
        body = json.dumps({
            "delta": True, "name": "other", "source": str(base_csv),
            "sensitive": "Disease", "backend": "sps", "output": str(out),
            "params": params,
        }).encode()
        result = ServiceRouter(service).handle(
            "POST", "/publish", io.BytesIO(body), len(body)
        )
        assert result.status == 400
        assert "stream-job options" in json.loads(result.body)["error"]
        assert "other" not in service.deltas
        assert len(service.jobs) == n_jobs
        assert not out.exists()

    def test_retired_parallel_backend_key_reaches_strategy_validation(
        self, service_base, tmp_path
    ):
        # parallel_backend is no longer an engine keyword (9.0.0), so the
        # key is an unknown strategy parameter like any other.
        from repro.serve.router import ServiceRouter

        service, _, _ = service_base
        base_csv = tmp_path / "base2.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        out = tmp_path / "out2.csv"
        body = json.dumps({
            "delta": True, "name": "other", "source": str(base_csv),
            "sensitive": "Disease", "backend": "sps", "output": str(out),
            "params": {"parallel_backend": "thread"},
        }).encode()
        result = ServiceRouter(service).handle(
            "POST", "/publish", io.BytesIO(body), len(body)
        )
        assert result.status == 400
        error = json.loads(result.body)["error"]
        assert "does not accept parameters ['parallel_backend']" in error
        assert "other" not in service.deltas
        assert not out.exists()

    def test_failed_append_marks_job_failed(self, service_base):
        from repro.service.registry import ServiceError

        service, _, out = service_base
        before = out.read_bytes()
        with pytest.raises(ServiceError):
            service.append_rows("living", rows=[["ragged"]])
        failed = [r for r in service.jobs.records() if r.status == "failed"]
        assert failed and failed[-1].error
        assert out.read_bytes() == before  # base survives the failed splice

    def test_delta_spec_round_trips_through_json(self, service_base):
        from repro.service.models import JobSpec

        _, record, _ = service_base
        payload = json.loads(json.dumps(record.spec.to_json()))
        assert payload["delta"] is True
        restored = JobSpec.from_json(payload)
        assert restored.delta is True
        assert restored.sensitive == "Disease"
        assert restored.rows_appended == 0


class TestServiceDeltaHttp:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.serve import ServingFrontend
        from repro.service.engine import AnonymizationService

        service = AnonymizationService()
        with ServingFrontend(service, port=0) as frontend:
            yield frontend.base_url, tmp_path

    @staticmethod
    def _post_json(url, payload):
        import urllib.request

        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)

    def test_delta_lifecycle_over_http(self, server):
        import urllib.error

        url, tmp_path = server
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcd", ["flu", "cold"]))
        out = tmp_path / "published.csv"
        status, job = self._post_json(f"{url}/publish", {
            "delta": True, "name": "living", "source": str(base_csv),
            "sensitive": "Disease", "backend": "sps", "output": str(out),
            "seed": 3, "chunk_size": 2,
        })
        assert status == 201
        assert job["spec"]["delta"] is True
        assert job["status"] == "completed"

        status, appended = self._post_json(f"{url}/datasets/living/rows", {
            "rows": [["d", "flu"], ["d", "cold"]],
        })
        assert status == 201
        assert appended["status"] == "completed"
        assert appended["metadata"]["mode"] == "delta"
        assert appended["spec"]["rows_appended"] == 2

        # Unknown dataset -> 404; malformed rows -> 400.
        with pytest.raises(urllib.error.HTTPError) as not_found:
            self._post_json(f"{url}/datasets/nope/rows", {"rows": [["a", "flu"]]})
        assert not_found.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as bad:
            self._post_json(f"{url}/datasets/living/rows", {"rows": "a,flu"})
        assert bad.value.code == 400


# --------------------------------------------------------------------- #
# The repro-delta CLI
# --------------------------------------------------------------------- #


class TestCli:
    def test_init_then_append_end_to_end(self, tmp_path, capsys):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("abcd", ["flu", "cold"]))
        append_csv = tmp_path / "append.csv"
        _write_csv(append_csv, _TINY_HEADER, [["d", "flu"], ["d", "cold"]])
        state_path = tmp_path / "state.json"
        out = tmp_path / "published.csv"

        code = delta_cli_main([
            "init", str(base_csv), "--sensitive", "Disease",
            "--seed", "3", "--chunk-size", "2",
            "--output", str(out), "--state", str(state_path),
        ])
        assert code == 0
        base_summary = json.loads(capsys.readouterr().out)
        assert base_summary["mode"] == "base"
        assert state_path.exists() and out.exists()
        n_rows_base = base_summary["n_rows"]

        code = delta_cli_main([
            "append", str(append_csv), "--state", str(state_path),
        ])
        assert code == 0
        delta_summary = json.loads(capsys.readouterr().out)
        assert delta_summary["mode"] == "delta"
        assert delta_summary["rows_appended"] == 2
        # The state file advances so the next append chains off this one.
        saved = DeltaState.load(state_path)
        assert saved.n_rows == n_rows_base + 2

    def test_init_significance_is_a_strategy_parameter_error(self, tmp_path, capsys):
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu", "cold"]))
        out, state_path = tmp_path / "out.csv", tmp_path / "state.json"
        assert delta_cli_main([
            "init", str(base_csv), "--sensitive", "Disease", "--significance", "0.05",
            "--output", str(out), "--state", str(state_path),
        ]) == 2
        assert "does not accept parameters ['significance']" in capsys.readouterr().err
        assert not out.exists() and not state_path.exists()

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        assert delta_cli_main([
            "init", str(tmp_path / "missing.csv"), "--sensitive", "Disease",
            "--output", str(tmp_path / "out.csv"), "--state", str(state_path),
        ]) == 2
        # Unsupported strategy stance is a refusal, not a crash.
        base_csv = tmp_path / "base.csv"
        _write_csv(base_csv, _TINY_HEADER, _tiny_rows("ab", ["flu"]))
        assert delta_cli_main([
            "init", str(base_csv), "--sensitive", "Disease",
            "--strategy", "uniform",
            "--output", str(tmp_path / "out.csv"), "--state", str(state_path),
        ]) == 2
