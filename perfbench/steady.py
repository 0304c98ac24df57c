"""Steadiness check: do two sets of runs of the same code agree?

Usage, from the repository root::

    python3 perfbench/steady.py                      # 2 sets x 10 runs, every workload
    python3 perfbench/steady.py --workloads serve-mixed --runs 5

Each run is ``perfbench/run.py`` with its own seed, at the declared
``run_seconds``.  The two sets alternate seed by seed (set 1, set 2, set 1,
...), so a host that speeds up or slows down during the check moves both
sets alike.  For every workload and end-to-end metric this prints each
set's median and quartile spread (the distance between the first and third
quartile of ``statistics.quantiles(values, n=4)``, as a share of the
median) and whether the sets agree within the metric's bound from
``BENCHMARK.json``:

* ``spread``: every set's spread is within the bound (``setup_s`` exempt);
* ``medians``: the two sets' medians differ by at most the bound, as a
  share of the first, in either direction;
* ``target``: every spread is below a third of the bound (the margin the
  benchmark is tuned to).

Raw values are written to ``.perfbench/steady-<time>.json``.  Exits 1 when a
run fails or any agreement check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def disagreement(first: float, second: float) -> float:
    """How far ``second`` lies from ``first``, either way, as a share of ``first``."""
    return abs(second - first) / first


def verdicts(name: str, bound: float, sets: list[list[float]]) -> dict[str, bool]:
    """The checks of one metric over its two sets of values (see above)."""
    spreads = [spread(values) for values in sets]
    return {
        "spread": name == "setup_s" or all(s <= bound for s in spreads),
        "medians": disagreement(*(statistics.median(values) for values in sets)) <= bound,
        "target": all(s < bound / 3 for s in spreads),
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    begin = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - begin
    return result


def main(argv: list[str] | None = None) -> int:
    declaration = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10, help="runs per set (distinct seeds)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    metrics = {m["name"]: m for m in declaration["end_to_end"]}
    raw: dict[str, list[list[dict]]] = {}
    ok = True
    for workload in args.workloads:
        raw[workload] = [[], []]
        for r in range(args.runs):
            for s, runs in enumerate(raw[workload]):
                seed = args.first_seed + s * args.runs + r
                result = run_once(workload, seed, declaration["run_seconds"])
                runs.append(result)
                status = "ok" if result["correct"] and result["failed"] == 0 else "FAILED"
                print(f"{workload} set {s + 1} seed {seed}: {status} in {result['run_s']:.1f}s", flush=True)
                ok &= status == "ok"

    header = f"{'workload':<14} {'metric':<14} {'bound':>5}  " + "  ".join(
        f"{'median' + str(s):>12} {'spread' + str(s):>8}" for s in (1, 2)
    ) + "  verdict"
    print(header)
    for workload, sets in raw.items():
        for name, meta in metrics.items():
            bound = meta["bound"]
            values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
            columns = [f"{statistics.median(v):>12.6g} {spread(v):>8.3f}" for v in values]
            checks = verdicts(name, bound, values)
            verdict = ",".join(f"{label}={'ok' if good else 'NO'}" for label, good in checks.items())
            ok &= checks["spread"] and checks["medians"]
            print(f"{workload:<14} {name:<14} {bound:>5}  " + "  ".join(columns) + f"  {verdict}")
    out = Path(".perfbench") / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw))
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
