"""Statistical learning on perturbed data.

The whole point of reconstruction privacy is that *aggregate* reconstruction
remains useful for learning statistical relationships ("smokers tend to have
lung cancer") while *personal* reconstruction is blunted.  This module
demonstrates that utility with two consumers that only ever touch aggregate
groups of the published data:

* :func:`mine_rules_from_perturbed` mines association rules
  ``NA-condition -> SA value`` whose confidence is estimated through the MLE
  reconstruction of the matching aggregate group;
* :class:`NaiveBayesOnReconstruction` trains a naive Bayes classifier for the
  sensitive attribute using reconstructed per-attribute conditional marginals,
  i.e. exactly the 1-D statistics the paper says data analysis focuses on.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.dataset.table import Table
from repro.reconstruction.mle import mle_frequencies_clipped


@dataclass(frozen=True)
class AssociationRule:
    """A rule ``conditions -> sensitive_value`` with reconstructed statistics."""

    conditions: tuple[tuple[str, str], ...]
    sensitive_value: str
    support: float
    confidence: float

    def conditions_dict(self) -> dict[str, str]:
        """The rule's antecedent as a dict."""
        return dict(self.conditions)


def _reconstructed_group_frequencies(
    perturbed: Table, mask: np.ndarray, retention_probability: float
) -> np.ndarray | None:
    """Clipped MLE frequencies of the SA values inside a masked aggregate group."""
    if not mask.any():
        return None
    counts = perturbed.sensitive_counts(mask)
    return mle_frequencies_clipped(
        counts, retention_probability, perturbed.schema.sensitive_domain_size
    )


def mine_rules_from_perturbed(
    perturbed: Table,
    retention_probability: float,
    min_support: float = 0.01,
    min_confidence: float = 0.5,
    max_dimensionality: int = 1,
) -> list[AssociationRule]:
    """Mine single- (or low-) dimensional rules ``A = a -> SA = sa`` from ``D*``.

    Support is the fraction of published records matching the antecedent;
    confidence is the reconstructed frequency of the consequent SA value
    inside that aggregate group.  Only antecedents over at most
    ``max_dimensionality`` public attributes are enumerated (the paper's data
    analysis focuses on 1-D / 2-D statistics).
    """
    if not 0.0 <= min_support <= 1.0 or not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_support and min_confidence must lie in [0, 1]")
    if max_dimensionality < 1:
        raise ValueError("max_dimensionality must be at least 1")

    schema = perturbed.schema
    total = len(perturbed)
    if total == 0:
        return []

    rules: list[AssociationRule] = []
    # Enumerate 1-D antecedents always; 2-D only if requested (kept small on purpose).
    antecedents: list[dict[str, str]] = []
    for attribute in schema.public:
        for value in attribute.values:
            antecedents.append({attribute.name: value})
    if max_dimensionality >= 2:
        for i, first in enumerate(schema.public):
            for second in schema.public[i + 1 :]:
                for value_a in first.values:
                    for value_b in second.values:
                        antecedents.append({first.name: value_a, second.name: value_b})

    for conditions in antecedents:
        mask = perturbed.match_public(conditions)
        support = float(mask.sum()) / total
        if support < min_support:
            continue
        frequencies = _reconstructed_group_frequencies(perturbed, mask, retention_probability)
        if frequencies is None:
            continue
        for code, confidence in enumerate(frequencies):
            if confidence >= min_confidence:
                rules.append(
                    AssociationRule(
                        conditions=tuple(sorted(conditions.items())),
                        sensitive_value=schema.sensitive.decode(code),
                        support=support,
                        confidence=float(confidence),
                    )
                )
    rules.sort(key=lambda rule: rule.confidence, reverse=True)
    return rules


class NaiveBayesOnReconstruction:
    """Naive Bayes classifier for SA trained on reconstructed 1-D marginals.

    Training never looks at an individual published record's SA value in
    isolation: it only uses (a) the reconstructed global SA distribution and
    (b) for each public attribute value, the reconstructed SA distribution of
    that aggregate group.  Laplace smoothing keeps zero-frequency values from
    collapsing the posterior.
    """

    def __init__(self, retention_probability: float, smoothing: float = 1.0) -> None:
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self._p = retention_probability
        self._smoothing = smoothing
        self._prior: np.ndarray | None = None
        self._conditionals: list[np.ndarray] | None = None
        self._schema = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._prior is not None

    def fit(self, perturbed: Table) -> "NaiveBayesOnReconstruction":
        """Estimate the prior and per-attribute likelihoods from ``D*``."""
        schema = perturbed.schema
        m = schema.sensitive_domain_size
        total_counts = perturbed.sensitive_counts()
        prior = mle_frequencies_clipped(total_counts, self._p, m)
        prior = (prior * len(perturbed) + self._smoothing) / (
            len(perturbed) + self._smoothing * m
        )

        conditionals: list[np.ndarray] = []
        sensitive = perturbed.sensitive_codes
        for column, attribute in enumerate(schema.public):
            # table[attribute value, sa value] = P(attribute value | sa value)
            # One bincount over (attribute value, sa value) pairs gives every
            # aggregate group's SA histogram at once; the batched clipped MLE
            # then reconstructs all rows in a single vectorised call.
            codes = perturbed.public_codes[:, column].astype(np.int64)
            counts = np.bincount(
                codes * m + sensitive, minlength=attribute.size * m
            ).reshape(attribute.size, m)
            group_sizes = counts.sum(axis=1)
            likelihood = np.zeros((attribute.size, m))
            nonempty = group_sizes > 0
            if nonempty.any():
                frequencies = mle_frequencies_clipped(counts[nonempty], self._p, m)
                # Reconstructed joint count of (attribute value, sa value).
                likelihood[nonempty] = frequencies * group_sizes[nonempty, None]
            # Normalise each SA column into P(attribute value | sa) with smoothing.
            column_totals = likelihood.sum(axis=0, keepdims=True)
            likelihood = (likelihood + self._smoothing) / (
                column_totals + self._smoothing * attribute.size
            )
            conditionals.append(likelihood)

        self._prior = prior
        self._conditionals = conditionals
        self._schema = schema
        return self

    def predict_proba(self, public_records: Sequence[Sequence[str]]) -> np.ndarray:
        """Posterior SA distributions for records given by their public values."""
        if not self.is_fitted:
            raise RuntimeError("fit() must be called before predict_proba()")
        schema = self._schema
        results = []
        for record in public_records:
            if len(record) != len(schema.public):
                raise ValueError("each record must supply a value for every public attribute")
            log_posterior = np.log(self._prior)
            for column, (attribute, value) in enumerate(zip(schema.public, record, strict=True)):
                code = attribute.encode(value)
                log_posterior = log_posterior + np.log(self._conditionals[column][code])
            posterior = np.exp(log_posterior - log_posterior.max())
            results.append(posterior / posterior.sum())
        return np.asarray(results)

    def predict(self, public_records: Sequence[Sequence[str]]) -> list[str]:
        """Most likely SA value for each record of public values."""
        probabilities = self.predict_proba(public_records)
        codes = probabilities.argmax(axis=1)
        return [self._schema.sensitive.decode(int(code)) for code in codes]

    def accuracy(self, table: Table) -> float:
        """Accuracy against a table that carries true SA values (for evaluation only)."""
        if len(table) == 0:
            raise ValueError("cannot score an empty table")
        records = [record[:-1] for record in table.records()]
        truths = [record[-1] for record in table.records()]
        predictions = self.predict(records)
        correct = sum(1 for p, t in zip(predictions, truths, strict=True) if p == t)
        return correct / len(truths)
