"""Fixture-backed tests of the ``repro.lint`` contract analyzer.

Every rule gets a positive fixture (the violation fires), a negative one
(the sanctioned pattern stays clean), and the suppression machinery is
exercised end to end: matched suppressions drop findings, unmatched ones
surface as RPR900 warnings, malformed markers as RPR901.  Fixture modules
are written under a ``repro/`` directory so they resolve to ``repro.*``
module names — the scope the repo-contract rules apply to.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint import RULES, Severity, run_lint
from repro.lint.cli import main
from repro.lint.findings import (
    MALFORMED_SUPPRESSION_CODE,
    PARSE_ERROR_CODE,
    UNUSED_SUPPRESSION_CODE,
    parse_suppressions,
)


def lint(tmp_path: Path, files: dict[str, str], select: list[str] | None = None):
    """Write ``files`` under ``<tmp>/repro/`` and lint the tree."""
    root = tmp_path / "repro"
    root.mkdir(exist_ok=True)
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_lint([root], select=select)


def codes(result) -> list[str]:
    return [finding.code for finding in result.findings]


# --------------------------------------------------------------------- #
# RPR001 — RNG discipline
# --------------------------------------------------------------------- #

def test_rpr001_flags_stdlib_random_import(tmp_path):
    result = lint(tmp_path, {"mod.py": "import random\n"})
    assert codes(result) == ["RPR001"]
    assert result.findings[0].line == 1


def test_rpr001_flags_numpy_module_level_state(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import numpy as np

        def noisy():
            return np.random.normal(0.0, 1.0)
    """})
    assert codes(result) == ["RPR001"]
    assert "module-level" in result.findings[0].message


def test_rpr001_flags_default_rng_outside_factory_modules(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import numpy as np

        def fresh():
            return np.random.default_rng(0)
    """})
    assert codes(result) == ["RPR001"]
    assert "sanctioned" in result.findings[0].message


def test_rpr001_allows_factory_module_and_parameter_style(tmp_path):
    result = lint(tmp_path, {
        # The sanctioned seeding site: repro.utils.rng may construct.
        "utils/rng.py": """\
            import numpy as np

            def default_rng(seed):
                return np.random.default_rng(np.random.SeedSequence(seed))
        """,
        # Everyone else takes the generator as a parameter.
        "mod.py": """\
            import numpy as np

            def draw(rng: np.random.Generator) -> float:
                return float(rng.random())
        """,
    })
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RPR002 — wall-clock ban in chunk kernels
# --------------------------------------------------------------------- #

def test_rpr002_flags_wall_clock_in_kernel_class(tmp_path):
    result = lint(tmp_path, {"k.py": """\
        import time

        class StampKernel:
            def __call__(self, chunk, rng):
                return [time.time() for _ in chunk]
    """}, select=["RPR002"])
    assert codes(result) == ["RPR002"]


def test_rpr002_follows_reachable_helpers(tmp_path):
    result = lint(tmp_path, {"k.py": """\
        import time

        def _stamp():
            return time.time()

        class IndirectKernel:
            def __call__(self, chunk, rng):
                return [_stamp() for _ in chunk]
    """}, select=["RPR002"])
    assert codes(result) == ["RPR002"]
    assert result.findings[0].line == 4  # flagged inside the helper


def test_rpr002_flags_chunk_publisher_closures(tmp_path):
    result = lint(tmp_path, {"s.py": """\
        import time

        class Strategy:
            def chunk_publisher(self, spec):
                def run(chunk, rng):
                    return time.perf_counter()
                return run
    """}, select=["RPR002"])
    assert codes(result) == ["RPR002"]


def test_rpr002_clean_kernel_passes(tmp_path):
    result = lint(tmp_path, {"k.py": """\
        class DrawKernel:
            def __call__(self, chunk, rng):
                return [float(rng.random()) for _ in chunk]
    """}, select=["RPR002"])
    assert codes(result) == []


def test_rpr002_exempts_the_scheduler_timing_wrapper():
    # _TimedKernel times chunks for repro.obs by design.
    scheduler = Path(__file__).resolve().parents[1] / "src/repro/parallel/scheduler.py"
    assert codes(run_lint([scheduler], select=["RPR002"])) == []


def test_rpr002_ignores_wall_clock_outside_kernels(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import time

        def benchmark():
            return time.perf_counter()
    """}, select=["RPR002"])
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RPR004 — span-derived timing accounting
# --------------------------------------------------------------------- #

def test_rpr004_flags_raw_timer_feeding_timings(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import time

        def publish():
            timings = {}
            start = time.perf_counter()
            timings["stage"] = time.perf_counter() - start
            return timings
    """}, select=["RPR004"])
    assert codes(result) == ["RPR004", "RPR004"]  # both perf_counter calls


def test_rpr004_span_durations_pass(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        from repro.obs.trace import span

        def publish():
            timings = {}
            with span("stage") as sp:
                pass
            timings["stage"] = sp.duration
            return timings
    """}, select=["RPR004"])
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RPR005 — strategy registry hygiene
# --------------------------------------------------------------------- #

_STRATEGY_BASE = """\
    class PublishStrategy:
        params = ()

        def chunk_publisher(self, spec):
            return None
"""


def test_rpr005_flags_missing_streaming_stance(tmp_path):
    result = lint(tmp_path, {"s.py": _STRATEGY_BASE + """\

        class SilentStrategy(PublishStrategy):
            params = ()
    """}, select=["RPR005"])
    assert codes(result) == ["RPR005"]
    assert "streaming stance" in result.findings[0].message


def test_rpr005_flags_untyped_params(tmp_path):
    result = lint(tmp_path, {"s.py": _STRATEGY_BASE + """\

        class StringParamsStrategy(PublishStrategy):
            params = ("epsilon",)

            def chunk_publisher(self, spec):
                return None
    """}, select=["RPR005"])
    assert codes(result) == ["RPR005"]
    assert "ParamSpec" in result.findings[0].message


def test_rpr005_accepts_each_sanctioned_stance(tmp_path):
    result = lint(tmp_path, {"s.py": _STRATEGY_BASE + """\

        from repro.pipeline.params import ParamSpec

        class KernelStrategy(PublishStrategy):
            params = (ParamSpec.floating("epsilon"),)

            def chunk_publisher(self, spec):
                return None

        class RowStreamStrategy(PublishStrategy):
            params = ()
            streams_rows = True
    """}, select=["RPR005"])
    assert codes(result) == []


def test_rpr005_flags_a_streamable_opt_out(tmp_path):
    """``streamable = False`` is no stance: no engine can publish such a strategy."""
    result = lint(tmp_path, {"s.py": _STRATEGY_BASE + """
        class OptOutStrategy(PublishStrategy):
            params = ()
            streamable = False
    """}, select=["RPR005"])
    assert codes(result) == ["RPR005"]
    assert "takes no streaming stance" in result.findings[0].message


def test_rpr005_ignores_abstract_and_private_classes(tmp_path):
    result = lint(tmp_path, {"s.py": _STRATEGY_BASE + """\

        class _InternalStrategy(PublishStrategy):
            pass
    """}, select=["RPR005"])
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RPR006 — side-effect-free imports
# --------------------------------------------------------------------- #

def test_rpr006_flags_discarded_import_time_call(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        def setup():
            return 1

        setup()
    """}, select=["RPR006"])
    assert codes(result) == ["RPR006"]


def test_rpr006_flags_import_time_io_and_environ(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import os

        DATA = open("data.csv").read()
        os.environ["REPRO_MODE"] = "fast"
    """}, select=["RPR006"])
    assert sorted(codes(result)) == ["RPR006", "RPR006"]


def test_rpr006_allows_registry_registration(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        from repro.pipeline.strategy import register_strategy

        class Thing:
            pass

        register_strategy("thing", Thing)
    """}, select=["RPR006"])
    assert codes(result) == []


def test_rpr006_skips_main_guard_and_function_bodies(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import sys

        def dump():
            sys.stdout.write(open("out.txt").read())

        if __name__ == "__main__":
            print(dump())
    """}, select=["RPR006"])
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RPR007 — delta determinism
# --------------------------------------------------------------------- #

def test_rpr007_flags_full_group_index_rebuild_in_delta(tmp_path):
    result = lint(tmp_path, {"delta/engine2.py": """\
        from repro.dataset.groups import personal_groups

        def rebuild(table):
            return personal_groups(table)
    """}, select=["RPR007"])
    assert codes(result) == ["RPR007"]
    assert "personal_groups" in result.findings[0].message


def test_rpr007_flags_group_index_construction(tmp_path):
    result = lint(tmp_path, {"delta/helpers.py": """\
        from repro.dataset.groups import GroupCounts

        def make(table):
            return GroupCounts.tabulate(
                table.public_codes, table.sensitive_codes, table.schema.sensitive_domain_size
            )
    """}, select=["RPR007"])
    assert codes(result) == ["RPR007"]
    assert "tabulate" in result.findings[0].message


def test_rpr007_allows_incremental_index_and_other_modules(tmp_path):
    result = lint(tmp_path, {
        # The sanctioned pattern: index the appended rows only.
        "delta/engine2.py": """\
            from repro.stream.index import IncrementalGroupIndex

            def index_append(chunks, public, sensitive):
                index = IncrementalGroupIndex(public, sensitive)
                for chunk in chunks:
                    index.update(chunk)
                return index
        """,
        # Outside repro.delta the full-table index is fair game.
        "pipeline/runner2.py": """\
            from repro.dataset.groups import personal_groups

            def run(table):
                return personal_groups(table)
        """,
    }, select=["RPR007"])
    assert codes(result) == []


def test_rpr007_suppression(tmp_path):
    result = lint(tmp_path, {"delta/engine2.py": """\
        from repro.dataset.groups import personal_groups

        def rebuild(table):
            return personal_groups(table)  # repro-lint: ignore[RPR007]
    """}, select=["RPR007"])
    assert codes(result) == []
    assert result.suppressed == 1


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #

def test_matched_suppression_drops_finding(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import random  # repro-lint: ignore[RPR001]
    """})
    assert codes(result) == []
    assert result.suppressed == 1
    assert result.exit_code() == 0


def test_unused_suppression_is_reported(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        x = 1  # repro-lint: ignore[RPR001]
    """})
    assert codes(result) == [UNUSED_SUPPRESSION_CODE]
    assert result.findings[0].severity is Severity.WARNING
    assert result.exit_code() == 0  # warnings alone stay green


def test_malformed_suppression_is_reported(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        x = 1  # repro-lint: ignore[BOGUS]
    """})
    assert codes(result) == [MALFORMED_SUPPRESSION_CODE]


def test_suppression_marker_in_docstring_is_not_parsed():
    suppressions, malformed = parse_suppressions(
        '"""Docs mention # repro-lint: ignore[RPR001] in prose."""\nx = 1\n'
    )
    assert suppressions == []
    assert malformed == []


def test_suppression_only_covers_its_own_code(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import random  # repro-lint: ignore[RPR002]
    """})
    # The RPR001 finding survives; the RPR002 suppression is unused.
    assert sorted(codes(result)) == ["RPR001", UNUSED_SUPPRESSION_CODE]


def test_parse_error_becomes_finding(tmp_path):
    result = lint(tmp_path, {"broken.py": "def oops(:\n"})
    assert codes(result) == [PARSE_ERROR_CODE]
    assert result.exit_code() == 1


# --------------------------------------------------------------------- #
# Engine behaviour
# --------------------------------------------------------------------- #

def test_select_runs_only_named_rules(tmp_path):
    files = {"mod.py": "import random\nsetup = print\nprint('x')\n"}
    everything = lint(tmp_path, files)
    assert "RPR001" in codes(everything) and "RPR006" in codes(everything)
    only_rng = lint(tmp_path, files, select=["RPR001"])
    assert codes(only_rng) == ["RPR001"]


def test_unknown_select_code_raises(tmp_path):
    with pytest.raises(ValueError, match="RPR999"):
        lint(tmp_path, {"mod.py": "x = 1\n"}, select=["RPR999"])


def test_findings_are_sorted_and_render_with_anchors(tmp_path):
    result = lint(tmp_path, {
        "b.py": "import random\n",
        "a.py": "import numpy as np\n\nbad = np.random.default_rng(0)\n",
    })
    rendered = [finding.render() for finding in result.findings]
    assert rendered == sorted(rendered)
    assert all(":" in line and "RPR001" in line for line in rendered)


#: Rule codes retired with the code they guarded; ``--select`` rejects them.
RETIRED_CODES = ("RPR003", "RPR008")


def test_rule_registry_covers_contract_codes():
    # Importing repro.lint.rules registers the full contract set.
    import repro.lint.rules  # noqa: F401

    # Retired codes are not reused and the remaining codes keep their
    # numbers: RPR003 (kernel picklability) went in 9.0.0 with the process
    # pool it guarded, RPR008 (snapshot bypass) in 12.0.0 with the JSON
    # snapshot code it guarded.
    assert {f"RPR00{i}" for i in range(1, 8)} - set(RETIRED_CODES) <= set(RULES)
    assert not set(RETIRED_CODES) & set(RULES)
    for rule in RULES.values():
        assert rule.code and rule.name and rule.description


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def _write_fixture(tmp_path: Path, source: str) -> Path:
    root = tmp_path / "repro"
    root.mkdir(exist_ok=True)
    (root / "mod.py").write_text(textwrap.dedent(source))
    return root


def test_cli_exit_one_on_errors(tmp_path, capsys):
    root = _write_fixture(tmp_path, "import random\n")
    assert main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out
    assert "1 error(s)" in out


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    root = _write_fixture(tmp_path, "x = 1\n")
    assert main([str(root)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_warn_only_downgrades_exit(tmp_path, capsys):
    root = _write_fixture(tmp_path, "import random\n")
    assert main([str(root), "--warn-only"]) == 0
    assert "warn-only" in capsys.readouterr().out


def test_cli_json_format_and_output_artifact(tmp_path, capsys):
    root = _write_fixture(tmp_path, "import random\n")
    artifact = tmp_path / "findings.json"
    exit_code = main([str(root), "--format", "json", "--output", str(artifact)])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 1
    assert payload["exit_code"] == 1
    assert payload["findings"][0]["code"] == "RPR001"
    assert json.loads(artifact.read_text()) == payload


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_unknown_rule_code_is_usage_error(tmp_path, capsys):
    root = _write_fixture(tmp_path, "x = 1\n")
    for code in ("RPR999", *RETIRED_CODES):
        assert main([str(root), "--select", code]) == 2
        assert code in capsys.readouterr().err


def test_cli_list_rules_and_version(capsys):
    assert main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    assert "RPR001" in listing and "rng-discipline" in listing
    assert main(["--version"]) == 0
    assert repro.__version__ in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Self-check: the shipped tree satisfies its own contracts
# --------------------------------------------------------------------- #

def test_repro_lint_is_clean_on_own_source():
    src = Path(repro.__file__).parent
    result = run_lint([src])
    assert result.files_checked > 50
    messages = [finding.render() for finding in result.findings]
    assert messages == [], "repro-lint must be clean on src/repro"
