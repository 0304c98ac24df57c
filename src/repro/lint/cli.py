"""``repro-lint`` — command-line front end of the contract analyzer.

Exit codes: ``0`` clean (or ``--warn-only``), ``1`` at least one error-level
finding survived suppression, ``2`` usage error (bad paths, unknown rule
codes).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.engine import RULES, LintResult, run_lint


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Contract-aware static analyzer for the repro codebase: RNG "
            "discipline, kernel purity, span accounting, "
            "registry hygiene and import-time side effects."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze (default: src/)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write JSON findings to FILE (for CI artifacts)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report findings but always exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--version", action="store_true",
        help="print the analyzer version and exit",
    )
    return parser


def _result_payload(result: LintResult, warn_only: bool) -> dict[str, object]:
    return {
        "files_checked": result.files_checked,
        "errors": result.errors,
        "warnings": result.warnings,
        "suppressed": result.suppressed,
        "exit_code": result.exit_code(warn_only),
        "findings": [finding.to_json() for finding in result.findings],
    }


def _render_text(result: LintResult, warn_only: bool) -> str:
    lines = [finding.render() for finding in result.findings]
    summary = (
        f"{result.files_checked} file(s) checked: "
        f"{result.errors} error(s), {result.warnings} warning(s), "
        f"{result.suppressed} suppressed"
    )
    if warn_only and result.errors:
        summary += " [warn-only: exiting 0]"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def _list_rules() -> str:
    # Import for the registration side effect (the rules live in their own
    # module so the engine stays rule-agnostic).
    from repro.lint import rules as _rules  # noqa: F401

    lines = [
        f"{rule.code}  {rule.name:<22} [{rule.severity.value}]  {rule.description}"
        for rule in RULES.values()
    ]
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-lint`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.version:
        from repro import __version__

        sys.stdout.write(f"repro-lint {__version__}\n")
        return 0
    if args.list_rules:
        sys.stdout.write(_list_rules())
        return 0

    paths = [Path(p) for p in args.paths] or [Path("src")]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        sys.stderr.write(f"repro-lint: no such path(s): {', '.join(missing)}\n")
        return 2

    select = None
    if args.select is not None:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    try:
        result = run_lint(paths, select=select)
    except ValueError as exc:
        sys.stderr.write(f"repro-lint: {exc}\n")
        return 2

    if args.output is not None:
        payload = _result_payload(result, args.warn_only)
        Path(args.output).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        sys.stdout.write(
            json.dumps(_result_payload(result, args.warn_only), indent=2) + "\n"
        )
    else:
        sys.stdout.write(_render_text(result, args.warn_only))
    return result.exit_code(args.warn_only)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
