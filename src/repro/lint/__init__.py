"""repro.lint — contract-aware static analysis for the repro codebase.

The analyzer encodes the repo's determinism contracts as AST-level rules
(``RPR001``…): RNG discipline, wall-clock bans in chunk kernels,
span-derived timing accounting, strategy registry hygiene and
side-effect-free imports.  Run it as ``repro-lint`` or
``python -m repro.lint``; see ``docs/static-analysis.md`` for every rule
code with offending and sanctioned snippets.
"""

from __future__ import annotations

from repro.lint.engine import RULES, LintResult, Rule, register_rule, run_lint
from repro.lint.findings import Finding, Severity, Suppression, parse_suppressions
from repro.lint.project import ModuleInfo, Project

__all__ = [
    "RULES",
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Project",
    "Rule",
    "Severity",
    "Suppression",
    "parse_suppressions",
    "register_rule",
    "run_lint",
]
