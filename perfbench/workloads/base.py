"""The interface every workload implements, and the default traced run."""

from __future__ import annotations

import time
from typing import Any, ClassVar

from harness import Context, Op, TracedOp, alternate, closed_loop


class Workload:
    """One benchmark workload: set-up, timed load, output checks, traced run.

    Subclasses set the class attributes and implement :meth:`setup`,
    :meth:`step`, :meth:`check` and :meth:`traced_step`; :meth:`load` and
    :meth:`trace` have defaults that fit the single-client workloads.
    """

    name: ClassVar[str]
    #: Op kind whose median feeds ``rows_per_s`` and every carried metric.
    main_kind: ClassVar[str]
    #: End-to-end metrics this workload measures itself (the rest are carried).
    native: ClassVar[tuple[str, ...]]
    #: Per-layer metrics this workload's traced run measures.
    layers: ClassVar[tuple[str, ...]]
    #: Layer span name -> the end-to-end metric it moves.
    maps_to: ClassVar[dict[str, str]]
    #: Cores the timed op keeps busy: the width of its host-speed samples.
    cores: ClassVar[int] = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.scale = ctx.scale

    # -- contract --------------------------------------------------------- #
    @property
    def load_shape(self) -> dict[str, int]:
        """Threads / connections / pool workers the load uses (checked vs nproc)."""
        return {"client_threads": 1}

    @property
    def rows_per_op(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        """Build inputs and finish with one untimed warm-up op."""
        raise NotImplementedError

    def step(self, i: int) -> Op:
        raise NotImplementedError

    def load(self) -> tuple[list[Op], float]:
        return closed_loop(self.ctx.seconds, self.step, self.ctx.host)

    def check(self, ops: list[Op]) -> dict[str, Any]:
        """Verify outputs outside the timed region; fail the ops that miss."""
        raise NotImplementedError

    def traced_step(self, i: int) -> TracedOp:
        raise NotImplementedError

    def layer_values(self, traced: list[TracedOp]) -> dict[str, float]:
        """This workload's per-layer metric values from its traced ops."""
        raise NotImplementedError

    def trace(self, tracer: Any) -> tuple[list[TracedOp], list[TracedOp], dict[str, float]]:
        """Alternate untraced / traced decomposed ops; returns both plus values."""

        def step(i: int, on: bool) -> TracedOp:
            if on:
                with tracer:
                    return self.traced_step(i)
            return self.traced_step(i)

        # The decomposed op calls layers the set-up's warm-up did not (e.g.
        # the encoder in the parent); warm them so neither side pays it.
        self.traced_step(-1)
        plain, traced = alternate(self.ctx.seconds, step)
        return plain, traced, self.layer_values(traced)

    def close(self) -> None:
        """Release processes and files (idempotent)."""


def timed(kind: str, fn: Any, *args: Any, **kwargs: Any) -> tuple[Op, Any]:
    """Call ``fn`` and wrap its wall time in an :class:`Op` of ``kind``."""
    begin = time.perf_counter()
    value = fn(*args, **kwargs)
    return Op(kind, time.perf_counter() - begin), value

