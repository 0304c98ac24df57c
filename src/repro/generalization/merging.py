"""Graph-based merging of public-attribute values with the same SA impact.

For one public attribute ``A_i``: build a graph whose vertices are the domain
values of ``A_i`` and connect two values whenever the chi-square test of
Equation (4) fails to show that their conditional SA distributions differ.
Every connected component is merged into one generalised value (Section 3.4).
Values that never occur in the data carry no evidence and are merged into a
single "unobserved" component.

:func:`generalize_table` applies the procedure to every public attribute and
re-encodes the table over the generalised domains; the result also carries the
value mapping so queries phrased over original values can be translated
(Section 6.1 evaluates queries on aggregated values this way).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.schema import Attribute
from repro.dataset.table import Table
from repro.generalization.chi_square import DEFAULT_SIGNIFICANCE, same_distribution


@dataclass(frozen=True)
class AttributeMerge:
    """The merge outcome for one public attribute.

    Attributes
    ----------
    original:
        The attribute before merging.
    generalized:
        The attribute after merging (its values are the generalised labels).
    value_map:
        Maps each original value to its generalised value.
    components:
        The groups of original values that were merged together, in the order
        of the generalised attribute's domain.
    """

    original: Attribute
    generalized: Attribute
    value_map: dict[str, str]
    components: tuple[tuple[str, ...], ...]

    @property
    def original_domain_size(self) -> int:
        """Domain size before merging."""
        return self.original.size

    @property
    def generalized_domain_size(self) -> int:
        """Domain size after merging."""
        return self.generalized.size

    def code_map(self) -> np.ndarray:
        """Array mapping original value codes to generalised value codes."""
        return np.array(
            [self.generalized.encode(self.value_map[value]) for value in self.original.values],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class GeneralizationResult:
    """A generalised table plus the per-attribute merge decisions."""

    table: Table
    merges: tuple[AttributeMerge, ...]

    def merge_for(self, attribute_name: str) -> AttributeMerge:
        """Return the merge record for the named public attribute."""
        for merge in self.merges:
            if merge.original.name == attribute_name:
                return merge
        raise KeyError(f"no merge recorded for attribute {attribute_name!r}")

    def translate_conditions(self, conditions: dict[str, str]) -> dict[str, str]:
        """Translate original NA values in query conditions to generalised values."""
        translated = {}
        for name, value in conditions.items():
            merge = self.merge_for(name)
            translated[name] = merge.value_map[str(value)]
        return translated


def _conditional_counts(table: Table, column: int) -> dict[int, np.ndarray]:
    """SA count vectors conditioned on each observed value of public column ``column``."""
    m = table.schema.sensitive_domain_size
    values = table.public_codes[:, column]
    sensitive = table.sensitive_codes
    counts: dict[int, np.ndarray] = {}
    for value in np.unique(values):
        mask = values == value
        counts[int(value)] = np.bincount(sensitive[mask], minlength=m).astype(np.int64)
    return counts


def _component_label(component_values: tuple[str, ...]) -> str:
    """Human-readable label for a merged component."""
    if len(component_values) == 1:
        return component_values[0]
    return "|".join(component_values)


def merge_attribute_from_counts(
    attribute: Attribute,
    conditional: dict[int, np.ndarray],
    sensitive_domain_size: int,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> AttributeMerge:
    """Decide the value merging for one public attribute from its SA counts.

    ``conditional`` maps each *observed* value code of ``attribute`` to its SA
    count vector (length ``sensitive_domain_size``) — exactly what
    :func:`merge_attribute_values` derives from a materialised table.  The
    out-of-core streaming engine calls this directly with counts accumulated
    chunk by chunk, so the merge decisions (and therefore the generalised
    schema) are byte-identical to the in-memory path without ever holding the
    full table.
    """
    import networkx as nx  # only the merge needs it; keeps `import repro` light

    graph = nx.Graph()
    graph.add_nodes_from(range(attribute.size))
    observed = sorted(conditional)
    unobserved = [code for code in range(attribute.size) if code not in conditional]
    # Values that never occur cannot be distinguished by the data: merge them
    # together (and, if everything is unobserved, they form one component).
    for first, second in zip(unobserved, unobserved[1:], strict=False):
        graph.add_edge(first, second)
    for i, code_a in enumerate(observed):
        for code_b in observed[i + 1 :]:
            if same_distribution(
                conditional[code_a],
                conditional[code_b],
                significance=significance,
                degrees_of_freedom=sensitive_domain_size,
            ):
                graph.add_edge(code_a, code_b)

    components = []
    for component in nx.connected_components(graph):
        values = tuple(attribute.values[code] for code in sorted(component))
        components.append((min(component), values))
    components.sort(key=lambda item: item[0])
    component_values = tuple(values for _, values in components)

    labels = tuple(_component_label(values) for values in component_values)
    generalized = Attribute(attribute.name, labels)
    value_map: dict[str, str] = {}
    for label, values in zip(labels, component_values, strict=True):
        for value in values:
            value_map[value] = label
    return AttributeMerge(
        original=attribute,
        generalized=generalized,
        value_map=value_map,
        components=component_values,
    )


def merge_attribute_values(
    table: Table,
    attribute_name: str,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> AttributeMerge:
    """Decide the value merging for one public attribute of ``table``."""
    schema = table.schema
    column = schema.public_index(attribute_name)
    return merge_attribute_from_counts(
        schema.public_attribute(attribute_name),
        _conditional_counts(table, column),
        schema.sensitive_domain_size,
        significance=significance,
    )


def generalize_table(
    table: Table,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> GeneralizationResult:
    """Generalise every public attribute of ``table`` and re-encode it.

    The sensitive attribute is never modified.  Returns the re-encoded table
    together with the merge decisions, so the caller can translate queries and
    report the domain-size impact (Tables 4 and 5).
    """
    return apply_merges(
        table,
        tuple(
            merge_attribute_values(table, name, significance=significance)
            for name in table.schema.public_names
        ),
    )


def apply_merges(table: Table, merges: tuple[AttributeMerge, ...]) -> GeneralizationResult:
    """Re-encode ``table`` over the generalised domains of ``merges`` (one per NA column)."""
    codes = table.codes.copy()
    for column, merge in enumerate(merges):
        codes[:, column] = merge.code_map()[codes[:, column]]
    schema = table.schema.with_public([merge.generalized for merge in merges])
    return GeneralizationResult(table=Table(schema, codes), merges=merges)
