"""The benchmark protocol: scenarios, suites and the run context.

Every suite is a :class:`Suite` — ``scenarios(tiny)``, the fixed-order list
of points it measures, plus ``run(scenario, ctx)``, which measures one point
and returns its report entry.  A :class:`Scenario` is one timed publishing
configuration (strategy, dataset size, chunk size, workers and any
suite-specific ``params``); the paper and micro suites bring their own
scenario objects, which only need a ``name`` and a one-line ``title``.

One :class:`Context` is shared by the scenarios of a run: the root seed,
the timer, the synthetic tables and their CSV files (each built once), and
one temporary working directory.

Every entry carries ``verdicts`` — named booleans that must all be true
(byte identity, cache behaviour, agreement with a reference).  Each suite
declares the verdict names its entries carry, and the schema validator
requires exactly those; the perf gate checks them generically;
wall-clock fields are free to move.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Hashable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.bench.timing import Measurement, TimingSpec
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.loaders import write_csv

#: The synthetic generators scenarios name, and each one's sensitive column.
GENERATORS = {"adult": generate_adult, "census": generate_census}
SENSITIVE = {"adult": "Income", "census": "Occupation"}


@dataclass(frozen=True)
class Scenario:
    """One timed configuration of a publishing path."""

    name: str
    strategy: str
    dataset: str
    rows: int
    chunk_size: int
    workers: int = 1
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def title(self) -> str:
        """One listing line: the configuration in words."""
        extras = "".join(f", {key}={value}" for key, value in self.params.items())
        return (
            f"{self.strategy} on {self.dataset} ({self.rows} rows), "
            f"chunk_size={self.chunk_size}, workers={self.workers}{extras}"
        )

    def entry(
        self,
        measurement: Measurement,
        ops: dict[str, Any],
        stages: dict[str, float],
        verdicts: dict[str, bool] | None = None,
    ) -> dict[str, Any]:
        """The report entry of one measured run: the scenario's fields, then results."""
        return {
            **asdict(self),
            "ops": ops,
            "verdicts": {name: bool(value) for name, value in (verdicts or {}).items()},
            "seconds": measurement.to_json(),
            "stages": {stage: float(seconds) for stage, seconds in stages.items()},
        }


@dataclass
class Context:
    """What the scenarios of one run share: seed, timer, data and a workdir."""

    seed: int
    timing: TimingSpec
    tiny: bool
    workdir: Path
    memo: dict[Hashable, Any] = field(default_factory=dict)

    def once(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``'s result, computed on the first call for ``key`` only."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def table(self, dataset: str, rows: int) -> Any:
        """The synthetic ``dataset`` table of ``rows`` records at the run's seed."""
        return self.once(
            ("table", dataset, rows), lambda: GENERATORS[dataset](rows, seed=self.seed)
        )

    def csv(self, dataset: str, rows: int) -> Path:
        """That table written once as a CSV file in the workdir."""

        def write() -> Path:
            path = self.workdir / f"{dataset}-{rows}.csv"
            write_csv(self.table(dataset, rows), path)
            return path

        return self.once(("csv", dataset, rows), write)


def _no_verdicts(entry: dict[str, Any]) -> tuple[str, ...]:
    return ()


@dataclass(frozen=True)
class Suite:
    """A scenario list plus the function that measures one scenario.

    ``coordinates`` says every entry carries the :class:`Scenario` fields;
    ``required_ops`` names numeric ``ops`` fields every entry must report;
    ``verdicts`` maps a report entry to the verdict names it must carry
    (no more, no fewer); ``gated`` says the CI perf gate runs the suite.
    """

    scenarios: Callable[[bool], list[Any]]
    run: Callable[[Any, Context], dict[str, Any]]
    timing: TimingSpec = TimingSpec()
    coordinates: bool = True
    required_ops: tuple[str, ...] = ()
    verdicts: Callable[[dict[str, Any]], Collection[str]] = _no_verdicts
    gated: bool = True
