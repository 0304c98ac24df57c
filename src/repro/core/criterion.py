"""The (lambda, delta)-reconstruction-privacy criterion (Definition 3).

A sensitive value ``sa`` with frequency ``f`` in a personal group ``g`` is
``(lambda, delta)``-reconstruction-private if the smallest upper bound the
adversary can place on ``Pr[(F' - f)/f > lambda]`` or
``Pr[(F' - f)/f < -lambda]`` is at least ``delta``.  Using the lower-tail
Chernoff bound (which is always the smaller of the two for ``omega <= 1``,
Section 4.3), Corollary 4 reduces the test to a simple size condition:

    |g|  <=  -2 (f p + (1 - p)/m) ln(delta) / (lambda p f)^2

and Equation (10) defines the *maximum group size* ``s_g`` as the right-hand
side evaluated at the group's maximum SA frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.bounds import reconstruction_error_bounds
from repro.perturbation.matrix import PerturbationMatrix


@dataclass(frozen=True)
class PrivacySpec:
    """A reconstruction-privacy specification ``(lambda, delta)`` plus ``(p, m)``.

    Parameters
    ----------
    lam:
        ``lambda``: the relative-error threshold that personal reconstruction
        must not beat.  Must be positive.
    delta:
        ``delta``: the minimum value the smallest tail-probability upper bound
        must reach.  Must lie in ``(0, 1)``; the paper's Table 6 sweeps
        0.1-0.5 with a default of 0.3.  (``delta = 0`` is trivially satisfied
        and ``delta = 1`` can never be satisfied by a finite group, so both
        are rejected.)
    retention_probability:
        ``p`` of the uniform perturbation that will publish the data.
    domain_size:
        ``m``, the SA domain size.
    """

    lam: float
    delta: float
    retention_probability: float
    domain_size: int

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        # Constructing the matrix validates p and m.
        PerturbationMatrix(self.retention_probability, self.domain_size)

    @property
    def off_diagonal(self) -> float:
        """``(1 - p)/m``, the background publication probability."""
        return PerturbationMatrix(self.retention_probability, self.domain_size).off_diagonal

    def lambda_upper_limit(self, frequency: float) -> float:
        """The largest ``lambda`` covered by the lower-tail bound: ``1 + (1-p)/m / (p f)``.

        Corollary 4 is stated for ``lambda`` in ``(0, 1 + ((1-p)/m)/(p f)]``,
        which corresponds to ``omega`` in ``(0, 1]``.
        """
        if frequency <= 0:
            return math.inf
        return 1.0 + self.off_diagonal / (self.retention_probability * frequency)


def max_group_size(spec: PrivacySpec, frequency: float) -> float:
    """Equation (10): the maximum group size ``s_g`` for a maximum frequency ``f``.

    ``s_g = -2 (f p + (1 - p)/m) ln(delta) / (lambda p f)^2``.

    A group larger than ``s_g`` gives the adversary enough independent coin
    tosses to reconstruct the frequency of its dominant value more accurately
    than the ``(lambda, delta)`` target allows.  For ``f = 0`` the group is
    vacuously private and ``s_g`` is infinite.
    """
    if not 0.0 <= frequency <= 1.0:
        raise ValueError("frequency must lie in [0, 1]")
    if frequency == 0.0:
        return math.inf
    p = spec.retention_probability
    numerator = -2.0 * (frequency * p + spec.off_diagonal) * math.log(spec.delta)
    denominator = (spec.lam * p * frequency) ** 2
    return numerator / denominator


def value_is_private(spec: PrivacySpec, group_size: int, frequency: float) -> bool:
    """Corollary 4: is a value with frequency ``f`` private in a group of this size?

    Returns ``True`` when ``|g| <= s_g(f)``, i.e. the best (Chernoff-derived)
    upper bound on the reconstruction error probability is at least ``delta``.
    Values absent from the group (``f = 0``) are trivially private.
    """
    if group_size < 0:
        raise ValueError("group_size must be non-negative")
    if group_size == 0 or frequency == 0.0:
        return True
    return group_size <= max_group_size(spec, frequency)


def smallest_error_bound(
    spec: PrivacySpec, group_size: int, frequency: float, method: str = "chernoff"
) -> float:
    """The smallest upper bound ``min{U, L}`` on the personal-reconstruction error.

    This is the quantity Definition 3 compares against ``delta``; it is
    exposed so callers (and tests) can inspect the actual bound value rather
    than only the boolean verdict of :func:`value_is_private`.
    """
    if group_size <= 0 or frequency <= 0.0:
        return 1.0
    bounds = reconstruction_error_bounds(
        spec.lam,
        group_size,
        frequency,
        spec.retention_probability,
        spec.domain_size,
        method=method,
    )
    return min(1.0, bounds.smallest)


def group_sizes_and_thresholds(
    spec: PrivacySpec, frequencies: np.ndarray
) -> np.ndarray:
    """Vectorised ``s_g`` for an array of maximum frequencies (used by Figure 1)."""
    frequencies = np.asarray(frequencies, dtype=float)
    if ((frequencies < 0) | (frequencies > 1)).any():
        raise ValueError("frequencies must lie in [0, 1]")
    p = spec.retention_probability
    with np.errstate(divide="ignore"):
        numerator = -2.0 * (frequencies * p + spec.off_diagonal) * math.log(spec.delta)
        denominator = (spec.lam * p * frequencies) ** 2
        out = np.where(frequencies > 0, numerator / np.where(denominator > 0, denominator, 1.0), np.inf)
    return out
