"""The ``BENCH_*.json`` report schema and its validator.

The benchmark runner emits one JSON document per suite
(``BENCH_<suite>.json``, one per name in :data:`repro.bench.runner.SUITES`)
so the performance trajectory is diffable across PRs.  The document is
schema-versioned; :func:`validate_report` is the single source of truth for
what a well-formed report looks like, and the runner and the CI perf gate
run it on every emitted file.  What differs between suites — whether
entries carry scenario coordinates, which ``ops`` fields and which
verdicts each entry must carry — is declared on each
:class:`~repro.bench.scenarios.Suite`, not here.

The validator is hand-rolled (presence + type + structural checks) so the
library keeps its zero-extra-dependency footprint; ``docs/benchmarks.md``
documents every field and its units.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.bench.scenarios import Suite

#: Version of the report layout; bump when a field changes meaning or shape.
#: Version 2 added the per-entry ``verdicts`` object and folded the core
#: report's ``micro`` section into its own suite.
SCHEMA_VERSION = 2

_NUMBER = (int, float)


class SchemaError(ValueError):
    """Raised by :func:`validate_report` with every problem found, one per line."""


def _check(problems: list[str], condition: bool, message: str) -> bool:
    if not condition:
        problems.append(message)
    return condition


def _is_number(value: Any) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _check_mapping_of_numbers(problems: list[str], value: Any, where: str) -> None:
    if _check(problems, isinstance(value, dict), f"{where} must be an object"):
        for key, item in value.items():
            _check(problems, _is_number(item), f"{where}.{key} must be a number")


def _check_seconds(problems: list[str], value: Any, where: str) -> None:
    if not _check(problems, isinstance(value, dict), f"{where} must be an object"):
        return
    for key in ("best", "mean", "std"):
        _check(problems, isinstance(value.get(key), _NUMBER), f"{where}.{key} must be a number")
    repeats = value.get("repeats")
    if _check(problems, isinstance(repeats, list) and repeats, f"{where}.repeats must be a non-empty array"):
        _check(
            problems,
            all(isinstance(s, _NUMBER) for s in repeats),
            f"{where}.repeats entries must be numbers",
        )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_scenario(problems: list[str], entry: Any, where: str, suite: str, spec: Suite) -> None:
    if not _check(problems, isinstance(entry, dict), f"{where} must be an object"):
        return
    _check(problems, isinstance(entry.get("name"), str) and entry.get("name"), f"{where}.name must be a non-empty string")
    if spec.coordinates:
        for key in ("strategy", "dataset"):
            _check(problems, isinstance(entry.get(key), str), f"{where}.{key} must be a string")
        for key in ("rows", "chunk_size", "workers"):
            _check(problems, _is_int(entry.get(key)), f"{where}.{key} must be an integer")
        _check(problems, isinstance(entry.get("params"), dict), f"{where}.params must be an object")
    ops = entry.get("ops")
    if _check(problems, isinstance(ops, dict), f"{where}.ops must be an object"):
        for key, item in ops.items():
            _check(
                problems,
                isinstance(item, (int, float, bool, str)),
                f"{where}.ops.{key} must be a scalar",
            )
        for key in spec.required_ops:
            message = f"{where}.ops.{key} must be a number ({suite} suite)"
            _check(problems, _is_number(ops.get(key)), message)
    verdicts = entry.get("verdicts")
    if _check(problems, isinstance(verdicts, dict), f"{where}.verdicts must be an object"):
        for key, item in verdicts.items():
            _check(problems, isinstance(item, bool), f"{where}.verdicts.{key} must be a boolean")
        declared = set(spec.verdicts(entry))
        for key in sorted(declared - set(verdicts)):
            problems.append(f"{where}.verdicts.{key} is missing ({suite} suite)")
        for key in sorted(set(verdicts) - declared):
            problems.append(f"{where}.verdicts.{key} is not a declared {suite} verdict")
    _check_seconds(problems, entry.get("seconds"), f"{where}.seconds")
    if "stages" in entry:
        _check_mapping_of_numbers(problems, entry["stages"], f"{where}.stages")


def validate_report(report: Any) -> None:
    """Raise :class:`SchemaError` if ``report`` is not a well-formed bench report."""
    from repro.bench.runner import SUITES

    problems: list[str] = []
    if not isinstance(report, dict):
        raise SchemaError("report must be a JSON object")

    _check(
        problems,
        report.get("schema_version") == SCHEMA_VERSION,
        f"schema_version must be {SCHEMA_VERSION} (got {report.get('schema_version')!r})",
    )
    suite = report.get("suite")
    _check(problems, suite in SUITES, f"suite must be one of {tuple(SUITES)} (got {suite!r})")
    _check(problems, report.get("scale") in ("tiny", "default"), "scale must be 'tiny' or 'default'")
    _check(problems, _is_int(report.get("seed")), "seed must be an integer")

    timing = report.get("timing")
    if _check(problems, isinstance(timing, dict), "timing must be an object"):
        for key in ("warmup", "repeats"):
            _check(problems, isinstance(timing.get(key), int), f"timing.{key} must be an integer")

    environment = report.get("environment")
    if _check(problems, isinstance(environment, dict), "environment must be an object"):
        # The canonical record shape comes from repro.obs (the same dict the
        # trace header and /metrics carry); keys are pinned there.
        for key in ("python", "numpy", "platform", "repro_version"):
            _check(problems, isinstance(environment.get(key), str), f"environment.{key} must be a string")
        # Scaling numbers mean nothing without the cores the run had.
        _check(problems, _is_int(environment.get("cpu_count")),
               "environment.cpu_count must be an integer")

    scenarios = report.get("scenarios")
    if _check(problems, isinstance(scenarios, list) and scenarios, "scenarios must be a non-empty array"):
        names = set()
        for i, entry in enumerate(scenarios):
            _check_scenario(problems, entry, f"scenarios[{i}]", suite, SUITES.get(suite, SUITES["core"]))
            if isinstance(entry, dict) and isinstance(entry.get("name"), str):
                _check(problems, entry["name"] not in names, f"duplicate scenario name {entry['name']!r}")
                names.add(entry["name"])

    if problems:
        raise SchemaError("\n".join(problems))
