"""Integer-encoded, numpy-backed table of records.

A :class:`Table` stores the data set ``D`` (or a perturbed version ``D*``) as
a 2-D integer array: one row per record, one column per public attribute and
a final column for the sensitive attribute.  The array's dtype is the
narrowest signed integer that holds a code of the schema's widest domain
(``int8`` up to 128 values, as for census and adult), so an in-memory table
takes an eighth of what ``int64`` codes would.  All higher layers
(perturbation, reconstruction, grouping, query evaluation) work on these
integer codes; the schema is only consulted to translate to and from
human-readable strings.  Arithmetic that can leave the domain (a flat index
such as ``code * m + sa``) widens to ``int64`` first.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.dataset.schema import Schema, SchemaError


def code_dtype(schema: Schema) -> np.dtype:
    """The narrowest signed integer dtype that holds every code of ``schema``.

    >>> from repro.dataset.schema import Attribute, Schema
    >>> def widest(n):
    ...     return Schema([Attribute("A", tuple(map(str, range(n))))], Attribute("S", ("x",)))
    >>> code_dtype(widest(128)), code_dtype(widest(129))
    (dtype('int8'), dtype('int16'))
    """
    widest = max(attr.size for attr in (*schema.public, schema.sensitive))
    # The largest code is widest - 1, which fits wherever -widest does.
    return np.min_scalar_type(-max(widest, 1))


def check_domains(schema: Schema, codes: np.ndarray) -> None:
    """Raise :class:`SchemaError` naming the first attribute with a code outside its domain.

    ``codes`` holds one column per attribute of ``schema`` (public, then
    sensitive), in any integer dtype.  The check is one pass over the codes
    viewed unsigned, where a negative code is larger than any
    non-negative one its dtype holds.

    >>> from repro.dataset.schema import Attribute, Schema
    >>> schema = Schema([Attribute("City", ("Oslo", "Rome"))], Attribute("Disease", ("Flu",)))
    >>> check_domains(schema, np.array([[1, 0]], dtype=np.int8))
    >>> check_domains(schema, np.array([[1, -1]], dtype=np.int8))
    Traceback (most recent call last):
    ...
    repro.dataset.schema.SchemaError: code -1 out of range for attribute 'Disease'
    """
    attributes = (*schema.public, schema.sensitive)
    widest = int(np.iinfo(codes.dtype).max)
    unsigned = codes.view(codes.dtype.str.replace("i", "u"))
    limits = np.array([min(attr.size - 1, widest) for attr in attributes], dtype=unsigned.dtype)
    if not (unsigned > limits).any():
        return
    for attr, column in zip(attributes, codes.T, strict=True):
        low, high = int(column.min()), int(column.max())
        if low < 0 or high >= attr.size:
            raise SchemaError(
                f"code {low if low < 0 else high} out of range for attribute {attr.name!r}"
            )


class Table:
    """A data set with public attributes ``NA`` and one sensitive attribute ``SA``.

    Parameters
    ----------
    schema:
        The table schema.
    codes:
        Integer-coded records, shape ``(n_records, n_public + 1)``.  The final
        column is the sensitive attribute.  The array is validated against
        the schema domains and copied into :func:`code_dtype` of the schema.

    >>> from repro.dataset.schema import Attribute, Schema
    >>> schema = Schema([Attribute("City", ("Oslo", "Rome"))], Attribute("Disease", ("Flu", "Cold")))
    >>> table = Table(schema, [[0, 1], [1, 0]])
    >>> table.codes.dtype, table.codes.tolist()
    (dtype('int8'), [[0, 1], [1, 0]])
    """

    def __init__(self, schema: Schema, codes: np.ndarray | Sequence[Sequence[int]]) -> None:
        self._schema = schema
        arr = np.asarray(codes)
        if arr.dtype.kind not in "iu":
            arr = np.asarray(codes, dtype=np.int64)
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, len(schema.public) + 1)
        if arr.ndim != 2:
            raise SchemaError("codes must be a 2-D array")
        expected_cols = len(schema.public) + 1
        if arr.shape[1] != expected_cols:
            raise SchemaError(
                f"codes has {arr.shape[1]} columns, schema expects {expected_cols}"
            )
        check_domains(schema, arr)
        self._codes = arr.astype(code_dtype(schema))
        self._codes.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, schema: Schema, records: Iterable[Sequence[str]]) -> "Table":
        """Build a table from string records (NA values followed by the SA value)."""
        codes = [schema.encode_record(r) for r in records]
        if not codes:
            return cls(schema, np.empty((0, len(schema.public) + 1), dtype=np.int64))
        return cls(schema, np.asarray(codes, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The table schema."""
        return self._schema

    @property
    def codes(self) -> np.ndarray:
        """The read-only ``(n_records, n_public + 1)`` code matrix."""
        return self._codes

    @property
    def public_codes(self) -> np.ndarray:
        """The NA columns only, shape ``(n_records, n_public)``."""
        return self._codes[:, :-1]

    @property
    def sensitive_codes(self) -> np.ndarray:
        """The SA column, shape ``(n_records,)``."""
        return self._codes[:, -1]

    def __len__(self) -> int:
        return self._codes.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._schema == other._schema and np.array_equal(self._codes, other._codes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(n={len(self)}, public={self._schema.public_names}, sensitive={self._schema.sensitive_name!r})"

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def with_sensitive_codes(self, sensitive: np.ndarray) -> "Table":
        """Return a copy of this table whose SA column is replaced by ``sensitive``.

        This is how the perturbation operator publishes ``D*``: the NA columns
        are never modified (Section 3.1).
        """
        sensitive = np.asarray(sensitive, dtype=np.int64)
        if sensitive.shape != (len(self),):
            raise SchemaError("sensitive column has the wrong length")
        # Widened, so an out-of-domain code is refused rather than wrapped.
        codes = self._codes.astype(np.int64)
        codes[:, -1] = sensitive
        return Table(self._schema, codes)

    def select(self, mask_or_indices: np.ndarray) -> "Table":
        """Return the sub-table of rows selected by a boolean mask or index array."""
        return Table(self._schema, self._codes[np.asarray(mask_or_indices)])

    def concat(self, other: "Table") -> "Table":
        """Concatenate two tables with identical schemas."""
        if other.schema != self._schema:
            raise SchemaError("cannot concatenate tables with different schemas")
        return Table(self._schema, np.vstack([self._codes, other._codes]))

    # ------------------------------------------------------------------ #
    # Matching and counting
    # ------------------------------------------------------------------ #
    def match_public(self, conditions: Mapping[str, str]) -> np.ndarray:
        """Boolean mask of rows matching every ``attribute == value`` condition on NA."""
        mask = np.ones(len(self), dtype=bool)
        for name, value in conditions.items():
            attr = self._schema.public_attribute(name)
            column = self._schema.public_index(name)
            mask &= self._codes[:, column] == attr.encode(value)
        return mask

    def match(self, conditions: Mapping[str, str], sensitive_value: str | None = None) -> np.ndarray:
        """Boolean mask of rows matching NA conditions and optionally an SA value."""
        mask = self.match_public(conditions)
        if sensitive_value is not None:
            mask &= self.sensitive_codes == self._schema.sensitive.encode(sensitive_value)
        return mask

    def count(self, conditions: Mapping[str, str], sensitive_value: str | None = None) -> int:
        """Number of records matching the given conditions (a COUNT(*) query)."""
        return int(self.match(conditions, sensitive_value).sum())

    def sensitive_counts(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Counts of each SA value over the whole table or a masked subset.

        Returns an array of length ``m`` (the SA domain size).
        """
        codes = self.sensitive_codes if mask is None else self.sensitive_codes[mask]
        return np.bincount(codes, minlength=self._schema.sensitive_domain_size).astype(np.int64)

    def sensitive_frequencies(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Fractional frequencies of each SA value (zeros for an empty selection)."""
        counts = self.sensitive_counts(mask)
        total = counts.sum()
        if total == 0:
            return np.zeros_like(counts, dtype=float)
        return counts / total

    def records(self) -> list[tuple[str, ...]]:
        """Decode all records back to string tuples (NA values then SA value)."""
        return [self._schema.decode_record(row) for row in self._codes]
