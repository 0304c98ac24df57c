"""Tests for the strategy-first publishing pipeline (repro.pipeline)."""

import numpy as np
import pytest

from repro.core.testing import audit_table
from repro.dataset.groups import expand_counts, group_block, personal_groups
from repro.dataset.table import code_dtype
from repro.pipeline import (
    ParamError,
    ParamSpec,
    PublishPipeline,
    PublishReport,
    PublishStrategy,
    UnknownStrategyError,
    available_strategies,
    get_strategy,
    publish,
    register_strategy,
    strategy_descriptions,
    unregister_strategy,
)
from repro.delta.cli import build_parser as delta_parser
from repro.pipeline.params import cli_params
from repro.service.cli import build_parser as service_parser
from repro.service.engine import AnonymizationService
from repro.stream.cli import build_parser as stream_parser

BUILTIN_STRATEGIES = {"sps", "uniform", "dp-laplace", "dp-gaussian", "generalize+sps"}


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert BUILTIN_STRATEGIES <= set(available_strategies())

    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    def test_round_trip_by_name(self, name):
        strategy = get_strategy(name)
        assert strategy.name == name
        assert name in strategy_descriptions()
        assert isinstance(strategy.params, tuple)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(UnknownStrategyError, match="unknown strategy"):
            get_strategy("no-such-strategy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(get_strategy("sps"))

    def test_descriptions_expose_typed_specs(self):
        descriptions = strategy_descriptions()
        lam = next(s for s in descriptions["sps"]["params"] if s["name"] == "lam")
        assert lam["kind"] == "float"
        assert lam["default"] == 0.3
        assert descriptions["generalize+sps"]["generalizes"] is True
        assert descriptions["dp-laplace"]["audits"] is False


class TestTypedParams:
    def test_float_param_keeps_float_type(self):
        spec = ParamSpec.floating("x", 0.5)
        assert spec.coerce(1) == 1.0
        assert isinstance(spec.coerce(1), float)

    def test_int_param_preserves_int_type(self):
        spec = ParamSpec.integer("n", 4, minimum=1)
        assert spec.coerce(7) == 7
        assert isinstance(spec.coerce(7), int)
        assert isinstance(spec.coerce(7.0), int)

    def test_int_param_rejects_fractional_and_bool(self):
        spec = ParamSpec.integer("n", 4)
        with pytest.raises(ParamError, match="must be an integer"):
            spec.coerce(2.5)
        with pytest.raises(ParamError, match="must be an integer"):
            spec.coerce(True)

    def test_float_param_rejects_non_numbers(self):
        spec = ParamSpec.floating("x", 0.5)
        for bad in (None, "abc", True, float("nan")):
            with pytest.raises(ParamError, match="must be a number"):
                spec.coerce(bad)

    def test_numeric_strings_accepted_for_http_compatibility(self):
        # 1.1.x coerced str params with float(); keep accepting them.
        assert ParamSpec.floating("x", 0.5).coerce("0.3") == 0.3
        assert ParamSpec.integer("n", 1).coerce("7") == 7
        assert isinstance(ParamSpec.integer("n", 1).coerce("7"), int)
        with pytest.raises(ParamError, match="must be an integer"):
            ParamSpec.integer("n", 1).coerce("2.5")

    def test_range_violations_have_clear_errors(self):
        with pytest.raises(ParamError, match=r"lambda.*\(0, inf\)"):
            get_strategy("sps").resolve({"lam": -1.0})
        with pytest.raises(ParamError, match=r"delta.*\(0, 1\)"):
            get_strategy("sps").resolve({"delta": 1.0})
        with pytest.raises(ParamError, match=r"\(0, 1\]"):
            get_strategy("sps").resolve({"retention_probability": 0.0})

    def test_unknown_params_rejected(self):
        with pytest.raises(ParamError, match="does not accept parameters"):
            get_strategy("sps").resolve({"typo": 1.0})

    def test_bad_default_fails_at_declaration(self):
        with pytest.raises(ParamError):
            ParamSpec.floating("x", -1.0, minimum=0.0)

    def test_defaults_are_coerced_to_declared_type(self):
        assert ParamSpec.integer("n", 2.0).default == 2
        assert isinstance(ParamSpec.integer("n", 2.0).default, int)
        assert isinstance(ParamSpec.floating("x", 1).default, float)


class TestPublishEntryPoint:
    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    def test_every_strategy_publishes(self, skewed_binary_table, name):
        report = publish(skewed_binary_table, strategy=name, rng=7, chunk_size=2)
        assert isinstance(report, PublishReport)
        assert report.strategy == name
        assert len(report.published) > 0
        assert report.published.schema.sensitive_name == "Income"
        assert report.total_seconds >= 0.0
        assert set(report.timings) == {
            "prepare", "generalize", "group_index", "audit", "enforce", "report"
        }
        # The report stage is the residual, so the stages sum to the total.
        assert report.total_seconds == pytest.approx(sum(report.timings.values()))

    def test_audit_runs_for_auditing_strategies(self, skewed_binary_table):
        report = publish(skewed_binary_table, strategy="sps", rng=1)
        reference = audit_table(skewed_binary_table, report.spec)
        assert report.audit.group_violation_rate == reference.group_violation_rate
        assert publish(skewed_binary_table, strategy="dp-laplace", rng=1).audit is None

    def test_audit_can_be_skipped(self, skewed_binary_table):
        report = publish(skewed_binary_table, strategy="sps", rng=1, audit=False)
        assert report.audit is None

    def test_unaudited_whole_table_strategy_skips_group_index(
        self, skewed_binary_table, monkeypatch
    ):
        from repro.pipeline import pipeline as pipeline_module

        def boom(table):
            raise AssertionError("group index should not be built")

        monkeypatch.setattr(pipeline_module, "personal_groups", boom)
        report = publish(skewed_binary_table, strategy="uniform", rng=1, audit=False)
        assert len(report.published) == len(skewed_binary_table)
        # With the audit on, the index is required again.
        with pytest.raises(AssertionError, match="group index"):
            publish(skewed_binary_table, strategy="uniform", rng=1)

    def test_row_stream_strategy_replays_the_table_without_a_temp_file(
        self, skewed_binary_table, monkeypatch
    ):
        import tempfile

        def refuse(*args, **kwargs):
            raise AssertionError("in-memory publish opened a temp file")

        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        report = publish(skewed_binary_table, strategy="uniform", rng=1, workers=2)
        assert len(report.published) == len(skewed_binary_table)

    def test_deterministic_for_fixed_seed(self, skewed_binary_table):
        a = publish(skewed_binary_table, strategy="sps", rng=9, chunk_size=2)
        b = publish(skewed_binary_table, strategy="sps", rng=9, chunk_size=2)
        assert np.array_equal(a.published.codes, b.published.codes)
        assert a.seed == b.seed == 9

    def test_generator_rng_is_deterministic(self, skewed_binary_table):
        a = publish(skewed_binary_table, strategy="sps", rng=np.random.default_rng(3))
        b = publish(skewed_binary_table, strategy="sps", rng=np.random.default_rng(3))
        assert np.array_equal(a.published.codes, b.published.codes)

    def test_sps_report_carries_group_records(self, skewed_binary_table):
        report = publish(skewed_binary_table, strategy="sps", rng=5)
        assert len(report.records) == len(personal_groups(skewed_binary_table))
        assert report.summary()["n_sampled_groups"] == report.n_sampled_groups
        assert int(report.records.published_sizes.sum()) == len(report.published)
        assert report.spec.domain_size == skewed_binary_table.schema.sensitive_domain_size

    def test_counts_come_from_the_record_arrays(self, skewed_binary_table, tmp_path):
        """summary() and job metadata count from the record arrays."""
        from repro.dataset.loaders import write_csv
        from repro.service.engine import _report_metadata
        from repro.stream import stream_publish

        write_csv(skewed_binary_table, tmp_path / "data.csv")
        reports = [
            publish(skewed_binary_table, strategy="sps", rng=5),
            stream_publish(tmp_path / "data.csv", sensitive="Income", rng=5),
        ]
        for report in reports:
            summary, metadata = report.summary(), _report_metadata(report)
            n_sampled = int(report.records.sampled.sum())
            assert summary["n_sampled_groups"] == metadata["n_sampled_groups"] == n_sampled
            assert metadata["n_groups"] == len(report.records) == 3
            assert report.n_sampled_groups == n_sampled == report.audit.n_violating_groups

    def test_generalize_strategy_reports_domains(self, skewed_binary_table):
        report = publish(skewed_binary_table, strategy="generalize+sps", rng=6)
        assert report.generalization is not None
        assert report.metadata["generalized_domains"]["Group"]["before"] == 3

    def test_dp_report_has_no_spec_or_records(self, skewed_binary_table):
        report = publish(skewed_binary_table, strategy="dp-laplace", rng=5)
        assert report.spec is None and report.records is None
        assert "n_sampled_groups" not in report.summary()
        assert report.summary()["strategy"] == "dp-laplace"

    def test_generalization_rejected_for_non_generalizing_strategy(
        self, skewed_binary_table
    ):
        from repro.generalization.merging import generalize_table

        generalization = generalize_table(skewed_binary_table)
        with pytest.raises(ValueError, match="no generalize stage"):
            publish(skewed_binary_table, strategy="sps", generalization=generalization)

    def test_raw_groups_rejected_for_generalizing_strategy(self, skewed_binary_table):
        # A raw-table index would silently be enforced against the generalised
        # schema; the pipeline demands the matching generalization.
        raw_groups = personal_groups(skewed_binary_table)
        with pytest.raises(ValueError, match="with_generalization"):
            publish(skewed_binary_table, strategy="generalize+sps", groups=raw_groups)

    def test_cached_groups_with_matching_generalization(self, skewed_binary_table):
        from repro.generalization.merging import generalize_table

        generalization = generalize_table(skewed_binary_table)
        groups = personal_groups(generalization.table)
        report = publish(
            skewed_binary_table, strategy="generalize+sps",
            rng=4, groups=groups, generalization=generalization,
        )
        assert report.group_index_cached is True
        assert report.generalization is generalization


class TestFluentBuilder:
    def test_chained_configuration(self, skewed_binary_table):
        groups = personal_groups(skewed_binary_table)
        report = (
            PublishPipeline("sps", lam=0.4)
            .with_params(delta=0.2)
            .with_rng(11)
            .with_chunk_size(2)
            .with_groups(groups)
            .with_audit(False)
            .run(skewed_binary_table)
        )
        assert report.params["lam"] == 0.4
        assert report.params["delta"] == 0.2
        assert report.audit is None
        assert report.group_index_cached is True

    def test_pipeline_is_reusable(self, skewed_binary_table):
        pipeline = PublishPipeline("sps").with_rng(2)
        a = pipeline.run(skewed_binary_table)
        b = pipeline.run(skewed_binary_table)
        assert np.array_equal(a.published.codes, b.published.codes)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            PublishPipeline("sps").with_chunk_size(0)


class TestCoreServiceEquivalence:
    """Same seed ⇒ identical published table through either entry point."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    @pytest.mark.parametrize("workers", [1, 3])
    def test_library_and_service_agree(self, skewed_binary_table, name, workers):
        library = publish(skewed_binary_table, strategy=name, rng=21, chunk_size=2)
        service = AnonymizationService()
        service.register_table("skewed", skewed_binary_table)
        job = service.publish(
            "skewed", name, seed=21, chunk_size=2, max_workers=workers
        )
        assert (
            library.published.codes.tobytes() == job.published.codes.tobytes()
        ), f"library and service outputs diverge for {name!r}"


class TestCustomStrategy:
    def test_registered_once_available_everywhere(self, skewed_binary_table):
        class TopKStrategy(PublishStrategy):
            """Keep only the n_keep most common SA values per group (toy)."""

            name = "test-top-k"
            audits = False
            params = (
                ParamSpec.integer("n_keep", 1, minimum=1, doc="values kept per group"),
            )

            def chunk_publisher(self, schema, spec, resolved):
                keep = resolved["n_keep"]
                assert isinstance(keep, int)  # typed specs preserve int

                def run_fn(run, rngs, bounds):
                    kept = np.zeros_like(run.dense())
                    for row, counts in enumerate(run.dense()):
                        top = np.argsort(counts)[::-1][:keep]
                        kept[row, top] = counts[top]
                    sizes = kept.sum(axis=1)
                    block = group_block(run.keys, sizes, expand_counts(kept), code_dtype(schema))
                    return block, sizes, None

                return run_fn

        register_strategy(TopKStrategy())
        try:
            # Library path.
            report = publish(skewed_binary_table, strategy="test-top-k", n_keep=1)
            assert len(report.published) > 0
            # Fractional n_keep is rejected with the declared type.
            with pytest.raises(ParamError, match="must be an integer"):
                publish(skewed_binary_table, strategy="test-top-k", n_keep=1.5)
            # Service path picks the strategy up without any service-side code.
            service = AnonymizationService()
            service.register_table("skewed", skewed_binary_table)
            job = service.publish("skewed", "test-top-k", params={"n_keep": 2})
            assert job.status == "completed"
            assert job.spec.backend == "test-top-k"
        finally:
            unregister_strategy("test-top-k")

    def test_kernel_less_strategy_is_refused_in_memory(self, skewed_binary_table):
        """With no chunk_publisher and no streams_rows, no engine can publish it."""

        class Opaque(PublishStrategy):
            name = "test-opaque"

        with pytest.raises(ValueError, match="not streamable"):
            publish(skewed_binary_table, strategy=Opaque())

    def test_generalizing_strategy_without_significance_param(self, skewed_binary_table):
        """A custom generalizing strategy need not declare 'significance'."""
        from repro.pipeline.strategy import SPSStrategy

        class GeneralizingSPS(SPSStrategy):
            name = "test-generalizing"
            generalizes = True  # inherits sps params only — no significance

        register_strategy(GeneralizingSPS())
        try:
            report = publish(skewed_binary_table, strategy="test-generalizing", rng=2)
            assert report.generalization is not None
            service = AnonymizationService()
            service.register_table("skewed", skewed_binary_table)
            assert service.publish("skewed", "test-generalizing").status == "completed"
        finally:
            unregister_strategy("test-generalizing")

    def test_replaced_strategy_reaches_the_service(self, skewed_binary_table):
        """register_strategy(replace=True) takes effect on the next service job."""
        from repro.pipeline.strategy import SPSStrategy

        class Marked(SPSStrategy):
            def metadata_for(self, resolved):
                return {"marker": "replacement"}

        service = AnonymizationService()
        service.register_table("skewed", skewed_binary_table)
        original = get_strategy("sps")
        assert "marker" not in service.publish("skewed", "sps").metadata
        try:
            register_strategy(Marked(), replace=True)
            assert service.publish("skewed", "sps").metadata["marker"] == "replacement"
        finally:
            register_strategy(original, replace=True)
        assert "marker" not in service.publish("skewed", "sps").metadata

    def test_unregistered_strategy_disappears_from_the_service(self, skewed_binary_table):
        """unregister_strategy retires the name from the service too."""
        from repro.pipeline.strategy import SPSStrategy
        from repro.service.registry import ServiceError

        class Ephemeral(SPSStrategy):
            name = "test-ephemeral"

        service = AnonymizationService()
        service.register_table("skewed", skewed_binary_table)
        register_strategy(Ephemeral())
        assert service.publish("skewed", "test-ephemeral").status == "completed"
        assert "test-ephemeral" in service.describe()["backends"]
        unregister_strategy("test-ephemeral")
        assert "test-ephemeral" not in service.describe()["backends"]
        assert "test-ephemeral" not in service.stats()["backends"]
        with pytest.raises(ServiceError, match="unknown backend"):
            service.publish("skewed", "test-ephemeral")


#: Each CLI's parser and the arguments it needs besides the parameter flags.
PARAM_FLAG_CLIS = {
    "stream": (stream_parser, ["in.csv", "--sensitive", "S"]),
    "delta-init": (
        delta_parser,
        ["init", "in.csv", "--sensitive", "S", "--output", "o.csv", "--state", "s.json"],
    ),
    "service-publish": (service_parser, ["publish", "--dataset", "d", "--backend", "sps"]),
}


class TestCliParamFlags:
    @pytest.mark.parametrize("cli", PARAM_FLAG_CLIS)
    def test_every_cli_maps_the_same_flags_to_the_same_params(self, cli):
        build, required = PARAM_FLAG_CLIS[cli]
        parser = build()
        assert cli_params(parser.parse_args(required)) == {}
        args = parser.parse_args([
            *required, "--lam", "0.4", "--delta", "0.2", "--retention", "0.6",
            "--epsilon", "1.5", "--dp-delta", "1e-6", "--sensitivity", "2",
            "--significance", "0.05",
        ])
        assert args.retention == 0.6 and args.dp_delta == 1e-6
        assert cli_params(args) == {
            "lam": 0.4, "delta": 0.2, "retention_probability": 0.6,
            "epsilon": 1.5, "dp_delta": 1e-6, "sensitivity": 2.0, "significance": 0.05,
        }

    def test_service_audit_keeps_its_own_defaulted_flags(self):
        args = service_parser().parse_args(["audit", "--dataset", "d"])
        assert (args.lam, args.delta, args.retention) == (0.3, 0.3, 0.5)
        args = service_parser().parse_args(["audit", "--dataset", "d", "--lam", "0.7"])
        assert args.lam == 0.7
