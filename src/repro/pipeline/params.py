"""Typed, validated strategy parameters.

Every :class:`~repro.pipeline.strategy.PublishStrategy` declares its tunable
knobs as a tuple of :class:`ParamSpec` objects.  A spec carries the declared
type (``float``, ``int``, ``bool`` or ``str``), the default value, and an
optional range or choice constraint, so parameter resolution

* preserves declared types (an ``int`` knob stays an ``int`` instead of being
  silently coerced to ``float``),
* rejects unknown names, mistyped values and out-of-range values with one
  clear :class:`ParamError` naming the offending parameter, and
* produces machine-readable descriptions for the CLI, the HTTP API and docs.
"""

from __future__ import annotations

import argparse
import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

#: Parameter kinds a spec may declare.
KINDS = ("float", "int", "bool", "str")

#: The command lines' strategy-parameter flags: ``--<dest>`` (``_`` as
#: ``-``) -> the parameter it sets.
_CLI_PARAM_FLAGS = {
    "lam": "lam",
    "delta": "delta",
    "retention": "retention_probability",
    "epsilon": "epsilon",
    "dp_delta": "dp_delta",
    "sensitivity": "sensitivity",
    "significance": "significance",
}


class ParamError(ValueError):
    """Raised when strategy parameters fail validation."""


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter: its name, type, default and constraints.

    Parameters
    ----------
    name:
        The parameter name callers use.
    default:
        The value used when the caller does not supply one; it must itself
        satisfy the spec.
    kind:
        One of ``float``, ``int``, ``bool``, ``str``.
    minimum, maximum:
        Optional numeric bounds (ignored for ``bool``/``str`` kinds).
    min_inclusive, max_inclusive:
        Whether each bound is attainable (``[`` / ``]`` versus ``(`` / ``)``).
    choices:
        Optional closed set of admissible values (``str`` kinds mostly).
    doc:
        One-line human description, echoed in range errors so messages name
        the paper's symbol (e.g. ``lambda``) and not only the keyword.
    """

    name: str
    default: Any
    kind: str = "float"
    minimum: float | None = None
    maximum: float | None = None
    min_inclusive: bool = True
    max_inclusive: bool = True
    choices: tuple[Any, ...] | None = None
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"parameter kind must be one of {KINDS}, got {self.kind!r}")
        # Defaults must satisfy their own spec, so a bad declaration fails at
        # class-definition time instead of on the first request; the coerced
        # value is stored so the default carries the declared type too
        # (e.g. integer("n", 2.0) resolves to int 2).
        object.__setattr__(self, "default", self.coerce(self.default, owner="default of"))

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def floating(cls, name: str, default: float, **kwargs: Any) -> "ParamSpec":
        """A ``float`` parameter."""
        return cls(name=name, default=default, kind="float", **kwargs)

    @classmethod
    def integer(cls, name: str, default: int, **kwargs: Any) -> "ParamSpec":
        """An ``int`` parameter (kept integral through resolution)."""
        return cls(name=name, default=default, kind="int", **kwargs)

    @classmethod
    def boolean(cls, name: str, default: bool, **kwargs: Any) -> "ParamSpec":
        """A ``bool`` parameter."""
        return cls(name=name, default=default, kind="bool", **kwargs)

    @classmethod
    def string(cls, name: str, default: str, **kwargs: Any) -> "ParamSpec":
        """A ``str`` parameter, usually with ``choices``."""
        return cls(name=name, default=default, kind="str", **kwargs)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def range_text(self) -> str:
        """The admissible interval as mathematical notation, e.g. ``(0, 1]``."""
        lo = "-inf" if self.minimum is None else f"{self.minimum:g}"
        hi = "inf" if self.maximum is None else f"{self.maximum:g}"
        left = "[" if self.min_inclusive and self.minimum is not None else "("
        right = "]" if self.max_inclusive and self.maximum is not None else ")"
        return f"{left}{lo}, {hi}{right}"

    def coerce(self, value: Any, owner: str = "") -> Any:
        """Validate ``value`` against this spec and return it with the declared type."""
        label = f"{owner} parameter {self.name!r}" if owner else f"parameter {self.name!r}"
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ParamError(f"{label} must be a boolean, got {value!r}")
            out: Any = value
        elif self.kind == "str":
            if not isinstance(value, str):
                raise ParamError(f"{label} must be a string, got {value!r}")
            out = value
        elif self.kind == "int":
            # Numeric strings are accepted (HTTP/CLI clients often send
            # "7"); anything else must already be integral.
            if isinstance(value, str):
                try:
                    value = float(value)
                except ValueError:
                    raise ParamError(f"{label} must be an integer, got {value!r}") from None
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not float(value).is_integer()
            ):
                raise ParamError(f"{label} must be an integer, got {value!r}")
            out = int(value)
        else:  # float
            if isinstance(value, str):
                try:
                    value = float(value)
                except ValueError:
                    raise ParamError(f"{label} must be a number, got {value!r}") from None
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(float(value))
            ):
                raise ParamError(f"{label} must be a number, got {value!r}")
            out = float(value)
        if self.choices is not None and out not in self.choices:
            raise ParamError(
                f"{label} must be one of {sorted(map(repr, self.choices))}, got {value!r}"
            )
        if self.kind in ("int", "float"):
            below = self.minimum is not None and (
                out < self.minimum or (not self.min_inclusive and out == self.minimum)
            )
            above = self.maximum is not None and (
                out > self.maximum or (not self.max_inclusive and out == self.maximum)
            )
            if below or above:
                doc = f" ({self.doc})" if self.doc else ""
                raise ParamError(
                    f"{label}{doc} must lie in {self.range_text()}, got {value!r}"
                )
        return out

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible description of the spec (for ``/stats`` and docs)."""
        data: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "doc": self.doc,
        }
        if self.minimum is not None or self.maximum is not None:
            data["range"] = self.range_text()
        if self.choices is not None:
            data["choices"] = list(self.choices)
        return data


def resolve_params(
    specs: Sequence[ParamSpec], params: Mapping[str, Any], owner: str
) -> dict[str, Any]:
    """Merge ``params`` over the spec defaults, validating every supplied value.

    Unknown names are rejected so typos fail loudly instead of silently
    publishing with defaults; supplied values are coerced to their declared
    type and range-checked.  ``owner`` names the caller in error messages
    (e.g. ``"strategy 'sps'"``).
    """
    by_name = {spec.name: spec for spec in specs}
    unknown = set(params) - set(by_name)
    if unknown:
        raise ParamError(
            f"{owner} does not accept parameters {sorted(unknown)}; "
            f"known parameters: {sorted(by_name)}"
        )
    resolved = {spec.name: spec.default for spec in specs}
    for key, value in params.items():
        resolved[key] = by_name[key].coerce(value, owner)
    return resolved


def add_param_flags(parser: argparse.ArgumentParser) -> None:
    """Add every strategy-parameter flag to ``parser`` as an unset float."""
    for dest, name in _CLI_PARAM_FLAGS.items():
        parser.add_argument(
            "--" + dest.replace("_", "-"), type=float, dest=dest,
            help=None if dest == name else name.replace("_", " "),
        )


def cli_params(args: argparse.Namespace) -> dict[str, float]:
    """The strategy parameters of the flags the user passed.

    Unset flags are left out, so the strategy's own defaults fill them.
    """
    return {
        name: value
        for dest, name in _CLI_PARAM_FLAGS.items()
        if (value := getattr(args, dest, None)) is not None
    }
