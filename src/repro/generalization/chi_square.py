"""Chi-square test for two binned distributions with unequal counts.

Equation (4) of the paper (following Numerical Recipes, section "Are Two
Distributions Different?"):

    chi2 = sum_j ( sqrt(|O'|/|O|) o_j - sqrt(|O|/|O'|) o'_j )^2 / (o_j + o'_j)

with the degrees of freedom equal to the number of SA values ``m`` and the
conventional 5 % significance level.  Bins where both counts are zero carry no
information and are skipped (they would otherwise be 0/0).
"""

from __future__ import annotations

import math

import numpy as np

#: The significance level used throughout the paper.
DEFAULT_SIGNIFICANCE = 0.05


def chi_square_statistic(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """The unequal-size two-sample chi-square statistic of Equation (4)."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("both count vectors must be one-dimensional and of equal length")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("counts must be non-negative")
    total_a = a.sum()
    total_b = b.sum()
    if total_a == 0 or total_b == 0:
        raise ValueError("both samples must contain at least one record")
    ratio_ab = math.sqrt(total_b / total_a)
    ratio_ba = math.sqrt(total_a / total_b)
    numerator = (ratio_ab * a - ratio_ba * b) ** 2
    denominator = a + b
    mask = denominator > 0
    return float((numerator[mask] / denominator[mask]).sum())


def chi_square_threshold(degrees_of_freedom: int, significance: float = DEFAULT_SIGNIFICANCE) -> float:
    """The critical chi-square value at ``significance`` for ``degrees_of_freedom``.

    The paper sets the degrees of freedom to ``m`` (the SA domain size), the
    convention for two binned data sets whose totals are not constrained to be
    equal.
    """
    if degrees_of_freedom <= 0:
        raise ValueError("degrees_of_freedom must be positive")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie strictly between 0 and 1")
    # Imported here: scipy.stats is this module's only use of scipy, and it
    # would otherwise dominate `import repro`.
    from scipy import stats

    return float(stats.chi2.ppf(1.0 - significance, df=degrees_of_freedom))


def same_distribution(
    counts_a: np.ndarray,
    counts_b: np.ndarray,
    significance: float = DEFAULT_SIGNIFICANCE,
    degrees_of_freedom: int | None = None,
) -> bool:
    """Whether the test *fails to reject* that the two samples share a distribution.

    Returns ``True`` when the computed statistic does not exceed the critical
    value, i.e. the two attribute values are considered to have the same
    impact on SA and should be merged.
    """
    a = np.asarray(counts_a, dtype=float)
    dof = degrees_of_freedom if degrees_of_freedom is not None else a.shape[0]
    statistic = chi_square_statistic(counts_a, counts_b)
    return statistic <= chi_square_threshold(dof, significance)
