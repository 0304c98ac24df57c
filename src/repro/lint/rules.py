"""The repo-contract rules (``RPR001``–``RPR007``; ``RPR003`` retired in 9.0.0).

``RPR008`` (snapshot bypass) was retired in 12.0.0 with the JSON snapshot
code it guarded; retired codes are not reused.

Each rule encodes one invariant the byte-identity test suite otherwise only
checks dynamically; ``docs/static-analysis.md`` documents every code with an
offending snippet and the sanctioned pattern.  Resolution is static and
name-based (see :mod:`repro.lint.project`), so the rules are conservative:
they follow calls they can resolve and say nothing about dynamic dispatch.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.lint.engine import Rule, register_rule
from repro.lint.findings import Finding
from repro.lint.project import ClassEntry, ModuleInfo, Project

# --------------------------------------------------------------------- #
# Shared configuration
# --------------------------------------------------------------------- #

#: Modules allowed to construct generators: the chunk-seeding contract
#: (``chunk_rngs``/``seeded_rng``) and the seed-normalisation helpers.
RNG_FACTORY_MODULES = frozenset({"repro.pipeline.execution", "repro.utils.rng"})

#: ``numpy.random`` attributes that are *types/seeding machinery*, not the
#: legacy module-level global-state API.
NP_RANDOM_ALLOWED = frozenset({
    "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: Calls that read wall-clock time or OS entropy — banned in chunk kernels.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.choice",
})

#: Kernel-shaped classes that are *sanctioned* timing wrappers: the traced
#: kernel wrapper times worker-side chunks for :mod:`repro.obs` by design.
SANCTIONED_KERNEL_CLASSES = frozenset({"repro.parallel.scheduler._TimedKernel"})

#: Raw time sources that must not feed ``timings[...]`` bookkeeping.
RAW_TIMER_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
})

#: Registry-registration callables a module may invoke at import time (the
#: sanctioned import-time side effect: populating a process-local registry
#: with objects the module itself defines).
SANCTIONED_IMPORT_CALLS = frozenset({
    "register_strategy", "register_rule",
    "register_scenario", "_register",
})

#: Call targets that do I/O — never acceptable at import time.
IMPORT_IO_CALLS = frozenset({
    "open", "io.open", "gzip.open", "bz2.open", "lzma.open",
    "os.remove", "os.unlink", "os.makedirs", "os.mkdir", "os.rmdir",
    "os.system", "os.popen", "shutil.rmtree", "shutil.copy", "shutil.move",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.socket", "urllib.request.urlopen", "print",
    "tempfile.TemporaryFile", "tempfile.NamedTemporaryFile", "tempfile.mkdtemp",
    "tempfile.mkstemp",
})

#: ``pathlib`` methods that do I/O when they appear in import-time code.
IMPORT_IO_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
    "mkdir", "rmdir", "unlink", "touch", "symlink_to", "rename",
})


def _in_repro(module: ModuleInfo) -> bool:
    return module.name == "repro" or module.name.startswith("repro.")


def _own_body(entry_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested ``def``s.

    Nested functions are indexed as their own
    :class:`~repro.lint.project.FunctionEntry`, so a rule that iterates over
    every function and walked whole subtrees would report each nested-body
    node twice.  Lambdas are not separate entries
    and stay in scope.
    """
    stack: list[ast.AST] = [entry_node]
    while stack:
        node = stack.pop()
        if node is not entry_node and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _resolve_call_target(module: ModuleInfo, call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return module.resolve_name(call.func.id)
    if isinstance(call.func, ast.Attribute):
        return module.resolve_attribute(call.func)
    return None


# --------------------------------------------------------------------- #
# RPR001 — RNG discipline
# --------------------------------------------------------------------- #

@register_rule
class RngDisciplineRule(Rule):
    """Generators flow in as parameters; construction is centralised.

    Inside ``repro.*``, the legacy ``numpy.random`` module-level API and the
    stdlib ``random`` module are forbidden everywhere, and
    ``numpy.random.default_rng`` may only be called in the sanctioned
    seeding modules (:data:`RNG_FACTORY_MODULES`).  Everything else receives
    its generator as a parameter — the ``chunk_rngs`` contract that makes
    published bytes a pure function of ``(seed, chunk_size)``.
    """

    code = "RPR001"
    name = "rng-discipline"
    description = (
        "no stdlib random, no numpy.random module-level state, and "
        "default_rng only in the sanctioned seeding modules"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not _in_repro(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module, node.lineno, node.col_offset,
                            "stdlib random is banned in repro.*: its global state "
                            "breaks the seed contract; take a numpy Generator "
                            "parameter instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "") == "random":
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "stdlib random is banned in repro.*: its global state "
                        "breaks the seed contract; take a numpy Generator "
                        "parameter instead",
                    )
            elif isinstance(node, ast.Call):
                target = _resolve_call_target(module, node)
                if target is None:
                    continue
                if target.startswith("random."):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"stdlib {target}() draws from hidden global state; "
                        "use the generator handed in by the chunk contract",
                    )
                elif target.startswith("numpy.random."):
                    attr = target[len("numpy.random."):]
                    if attr in NP_RANDOM_ALLOWED:
                        continue
                    if attr == "default_rng":
                        if module.name in RNG_FACTORY_MODULES:
                            continue
                        yield self.finding(
                            module, node.lineno, node.col_offset,
                            "numpy.random.default_rng() outside the sanctioned "
                            "seeding modules; construct generators via "
                            "repro.pipeline.execution (chunk_rngs / seeded_rng) "
                            "or repro.utils.rng.default_rng, or accept one as "
                            "a parameter",
                        )
                    else:
                        yield self.finding(
                            module, node.lineno, node.col_offset,
                            f"numpy.random.{attr}() uses numpy's module-level "
                            "RNG state; draw from an explicit Generator "
                            "parameter instead",
                        )


# --------------------------------------------------------------------- #
# RPR002 — wall-clock / nondeterminism ban in chunk kernels
# --------------------------------------------------------------------- #

def _kernel_entry_points(project: Project) -> dict[str, str]:
    """Map function qualname → the kernel root that makes it an entry point.

    Entry points: the body of every ``chunk_publisher`` method, every
    function *defined inside* one (the closures the method returns), the
    ``__call__``/methods of ``*Kernel`` classes, and module-level functions
    passed by name to the chunk runners.
    """
    entries: dict[str, str] = {}
    runner_names = {
        "repro.pipeline.execution.run_chunks_serial",
        "repro.parallel.scheduler.run_chunks",
        "repro.parallel.scheduler.iter_ordered_map",
        "repro.parallel.run_chunks",
    }
    for qualname, entry in project.functions.items():
        if entry.node.name == "chunk_publisher" and entry.owner_class is not None:
            entries[qualname] = qualname
        parent = qualname.rsplit(".", 1)[0] if "." in qualname else ""
        if parent.endswith(".chunk_publisher"):
            entries[qualname] = parent
        if entry.owner_class is not None:
            class_name = entry.owner_class.rsplit(".", 1)[-1]
            if (
                class_name.endswith("Kernel")
                and entry.owner_class not in SANCTIONED_KERNEL_CLASSES
            ):
                entries[qualname] = entry.owner_class
    # Module-level functions handed to a chunk runner by name.
    for qualname, entry in project.functions.items():
        for node in ast.walk(entry.node):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call_target(entry.module, node)
            if target not in runner_names:
                continue
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    resolved = entry.module.resolve_name(arg.id)
                    if resolved in project.functions:
                        entries.setdefault(resolved, resolved)
    return entries


@register_rule
class KernelWallClockRule(Rule):
    """No wall-clock or OS-entropy calls reachable from chunk kernels.

    A chunk kernel's output must be a pure function of its chunks and their
    generators — that is what makes publishes byte-identical at any worker
    count and run length.  Timing
    belongs to :mod:`repro.obs` spans (the scheduler's traced wrapper times
    worker chunks); entropy belongs to the seeded chunk generator.
    """

    code = "RPR002"
    name = "kernel-wall-clock"
    description = (
        "time/datetime/os.urandom calls must not be reachable from "
        "chunk_publisher kernels or *Kernel classes"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        cache_key = "rpr002"
        if cache_key not in project.cache:
            entries = _kernel_entry_points(project)
            reachable = project.reachable_from(entries)
            roots: dict[str, str] = {}
            for qualname in reachable:
                roots[qualname] = entries.get(qualname, "a chunk kernel")
            project.cache[cache_key] = roots
        roots = project.cache[cache_key]
        for qualname, entry in project.functions.items():
            if entry.module is not module or qualname not in roots:
                continue
            for node in _own_body(entry.node):
                if not isinstance(node, ast.Call):
                    continue
                target = _resolve_call_target(module, node)
                if target in NONDETERMINISTIC_CALLS:
                    root = roots[qualname]
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"{target}() is reachable from chunk kernel {root}; "
                        "kernels must be pure functions of their chunks and "
                        "generators — "
                        "timing belongs to repro.obs spans, entropy to the "
                        "seeded chunk generator",
                    )


# --------------------------------------------------------------------- #
# RPR004 — span-derived timing accounting
# --------------------------------------------------------------------- #

def _writes_timings(node: ast.AST) -> bool:
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                value = target.value
                if isinstance(value, ast.Name) and value.id == "timings":
                    return True
                if isinstance(value, ast.Attribute) and value.attr == "timings":
                    return True
    return False


@register_rule
class SpanAccountingRule(Rule):
    """Stage timings are span-derived, never raw ``perf_counter`` deltas.

    A function that writes a ``timings[...]`` key must obtain its durations
    from :func:`repro.obs.trace.span` (``.duration`` / ``.elapsed()``) so
    that report timings and traces can never disagree.  Any direct raw-timer
    call in such a function is flagged.
    """

    code = "RPR004"
    name = "span-accounting"
    description = (
        "functions writing timings[...] keys must derive them from "
        "repro.obs spans, not raw perf_counter calls"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for qualname, entry in project.functions.items():
            if entry.module is not module:
                continue
            if not any(_writes_timings(node) for node in _own_body(entry.node)):
                continue
            for node in _own_body(entry.node):
                if not isinstance(node, ast.Call):
                    continue
                target = _resolve_call_target(module, node)
                if target in RAW_TIMER_CALLS:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"{qualname} writes timings[...] but calls {target}() "
                        "directly; derive stage durations from "
                        "repro.obs.trace.span (.duration / .elapsed()) so "
                        "reports and traces cannot disagree",
                    )


# --------------------------------------------------------------------- #
# RPR005 — strategy registry hygiene
# --------------------------------------------------------------------- #

def _is_paramspec_expr(module: ModuleInfo, node: ast.expr, depth: int = 0) -> bool:
    """Whether an expression statically reads as a tuple of ParamSpec decls."""
    if depth > 8:
        return False
    if isinstance(node, ast.Tuple):
        return all(_is_paramspec_expr(module, elt, depth + 1) for elt in node.elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return (
            _is_paramspec_expr(module, node.left, depth + 1)
            and _is_paramspec_expr(module, node.right, depth + 1)
        )
    if isinstance(node, ast.Call):
        target = _resolve_call_target(module, node)
        if target is None:
            return False
        parts = target.split(".")
        return "ParamSpec" in parts
    if isinstance(node, ast.Name):
        assigned = module.top_level.get(node.id)
        if isinstance(assigned, ast.Assign):
            return _is_paramspec_expr(module, assigned.value, depth + 1)
        if isinstance(assigned, ast.AnnAssign) and assigned.value is not None:
            return _is_paramspec_expr(module, assigned.value, depth + 1)
        return False
    if isinstance(node, ast.Starred):
        return _is_paramspec_expr(module, node.value, depth + 1)
    return False


def _class_body_assignment(entry: ClassEntry, name: str) -> ast.expr | None:
    for stmt in entry.node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets):
                return stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt.value
    return None


def _is_strategy_class(project: Project, entry: ClassEntry) -> bool:
    return any(
        ancestor.qualname.rsplit(".", 1)[-1] == "PublishStrategy"
        for ancestor in project.class_mro(entry.qualname)
    )


@register_rule
class RegistryHygieneRule(Rule):
    """Every concrete strategy declares typed params and a streaming stance.

    Concrete :class:`~repro.pipeline.strategy.PublishStrategy` subclasses
    must declare ``params`` as a tuple of typed ``ParamSpec`` objects and
    either override ``chunk_publisher`` (the group-batch kernel) or declare
    ``streams_rows = True`` (the row path) — a strategy with neither cannot
    publish on any path, and the engine refuses it at run time.
    """

    code = "RPR005"
    name = "registry-hygiene"
    description = (
        "PublishStrategy subclasses need ParamSpec-typed params and an "
        "explicit chunk_publisher / streams_rows stance"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for entry in project.classes.values():
            if entry.module is not module:
                continue
            name = entry.qualname.rsplit(".", 1)[-1]
            if name == "PublishStrategy" or name.startswith("_"):
                continue
            if not _is_strategy_class(project, entry):
                continue
            yield from self._check_params(module, project, entry)
            yield from self._check_streaming_stance(module, project, entry)

    def _check_params(
        self, module: ModuleInfo, project: Project, entry: ClassEntry
    ) -> Iterator[Finding]:
        for ancestor in project.class_mro(entry.qualname):
            value = _class_body_assignment(ancestor, "params")
            if value is None:
                continue
            if isinstance(value, ast.Tuple) and not value.elts:
                return  # explicit "no parameters" is a valid declaration
            if not _is_paramspec_expr(ancestor.module, value):
                yield self.finding(
                    module, entry.node.lineno, entry.node.col_offset,
                    f"{entry.qualname}.params must be a tuple of typed "
                    "ParamSpec declarations (ParamSpec.floating / .integer / "
                    "...), so the registry can validate and document them",
                )
            return
        yield self.finding(
            module, entry.node.lineno, entry.node.col_offset,
            f"{entry.qualname} declares no params tuple anywhere in its "
            "resolvable bases; declare params = () explicitly if the "
            "strategy truly has no knobs",
        )

    def _check_streaming_stance(
        self, module: ModuleInfo, project: Project, entry: ClassEntry
    ) -> Iterator[Finding]:
        for ancestor in project.class_mro(entry.qualname):
            is_base = ancestor.qualname.rsplit(".", 1)[-1] == "PublishStrategy"
            if not is_base and f"{ancestor.qualname}.chunk_publisher" in project.functions:
                return
            if _is_true(_class_body_assignment(ancestor, "streams_rows")):
                return
        yield self.finding(
            module, entry.node.lineno, entry.node.col_offset,
            f"{entry.qualname} takes no streaming stance: override "
            "chunk_publisher (group-batch kernel) or declare "
            "streams_rows = True (row path); with neither, no engine can "
            "publish it",
        )


def _is_true(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


# --------------------------------------------------------------------- #
# RPR006 — side-effect-free imports
# --------------------------------------------------------------------- #

def _import_time_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Statements that execute at import time.

    Recurses into ``if``/``try``/``for``/``while``/``with`` blocks *and*
    class bodies (both run on import) but skips ``if __name__ ==
    "__main__":`` bodies (those run as a script, not on import) and
    function bodies (defining a function executes nothing).
    """
    def walk(stmts: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in stmts:
            if isinstance(stmt, ast.If) and _is_main_guard(stmt.test):
                yield from walk(stmt.orelse)
                continue
            yield stmt
            if isinstance(stmt, (ast.If, ast.While)):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.For):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
                yield from walk(stmt.finalbody)
                for handler in stmt.handlers:
                    yield from walk(handler.body)
            elif isinstance(stmt, ast.With):
                yield from walk(stmt.body)
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body)

    yield from walk(tree.body)


def _import_time_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Call expressions in ``stmt`` that actually run at import time.

    Function and lambda *bodies* are pruned (they only run when called);
    their decorators, default values and annotations do execute, so those
    subtrees stay in scope.  Class and function statements reached via
    recursion are handled by :func:`_import_time_statements`, so their
    bodies are skipped here to avoid double-reporting.
    """
    roots: list[ast.AST] = []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots.extend(stmt.decorator_list)
        roots.extend(stmt.args.defaults)
        roots.extend(d for d in stmt.args.kw_defaults if d is not None)
    elif isinstance(stmt, ast.ClassDef):
        roots.extend(stmt.decorator_list)
        roots.extend(stmt.bases)
        roots.extend(kw.value for kw in stmt.keywords)
    elif isinstance(stmt, (ast.If, ast.While)):
        # Bodies are yielded as separate statements; scan the test only.
        roots.append(stmt.test)
    elif isinstance(stmt, ast.For):
        roots.append(stmt.iter)
    elif isinstance(stmt, ast.With):
        roots.extend(item.context_expr for item in stmt.items)
    elif isinstance(stmt, ast.Try):
        roots.extend(h.type for h in stmt.handlers if h.type is not None)
    else:
        roots.append(stmt)

    stack: list[ast.AST] = roots
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested definition bodies: not import-time execution
        if isinstance(node, ast.Lambda):
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_main_guard(test: ast.expr) -> bool:
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
    )


@register_rule
class ImportSideEffectRule(Rule):
    """Importing a ``repro.*`` module must not run work or touch the world.

    At import time a module may define names and register its own objects in
    a process-local registry (:data:`SANCTIONED_IMPORT_CALLS`), nothing
    else: no discarded calls, no I/O, no environment mutation.  Side-effect
    imports make behaviour depend on import order — the opposite of a
    deterministic pipeline.
    """

    code = "RPR006"
    name = "import-side-effects"
    description = (
        "no I/O or unsanctioned calls at module import time (registry "
        "registration of the module's own objects is the one exception)"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not _in_repro(module):
            return
        for stmt in _import_time_statements(module.tree):
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                target = _resolve_call_target(module, stmt.value)
                last = (target or "").rsplit(".", 1)[-1]
                if last in SANCTIONED_IMPORT_CALLS:
                    continue
                shown = target or "a call"
                yield self.finding(
                    module, stmt.lineno, stmt.col_offset,
                    f"import-time statement discards the result of {shown}; "
                    "imports must only define names (sanctioned: registering "
                    "the module's own objects via register_*)",
                )
                continue
            if isinstance(stmt, ast.Assign):
                for target_node in stmt.targets:
                    if _is_environ_store(module, target_node):
                        yield self.finding(
                            module, stmt.lineno, stmt.col_offset,
                            "import-time write to os.environ; configuration "
                            "belongs to the CLIs, not to import side effects",
                        )
            for node in _import_time_calls(stmt):
                target = _resolve_call_target(module, node)
                is_io = target in IMPORT_IO_CALLS or (
                    target is None
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in IMPORT_IO_ATTRS
                )
                if is_io:
                    shown = target or f"*.{node.func.attr}"  # type: ignore[union-attr]
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"import-time I/O via {shown}(); do the work "
                        "lazily inside a function instead",
                    )


def _is_environ_store(module: ModuleInfo, target: ast.expr) -> bool:
    if not isinstance(target, ast.Subscript):
        return False
    resolved = module.resolve_attribute(target.value)
    return resolved == "os.environ"


@register_rule
class DeltaDeterminismRule(Rule):
    """RPR007: the delta engine must never rebuild a full-table group index.

    The whole point of :mod:`repro.delta` is that an append costs work
    proportional to the appended rows and the dirty chunks — the state's
    stored :class:`~repro.dataset.groups.GroupCounts` replace a re-read of
    the base.  Calling :func:`repro.dataset.groups.personal_groups` (or
    :meth:`~repro.dataset.groups.GroupCounts.tabulate`, the row-level index
    under it) inside a delta-engine module reintroduces the full-table pass
    the subsystem exists to avoid, and worse, does so silently: the output
    bytes stay identical, so only the wall-clock betrays the regression.
    Feed an
    :class:`~repro.stream.index.IncrementalGroupIndex` the *appended rows
    only* and merge its groups into the stored ``GroupCounts``.
    """

    code = "RPR007"
    name = "delta-determinism"
    description = (
        "delta-engine modules must not rebuild a group index over the full "
        "table (personal_groups/tabulate); index appended rows only and "
        "merge into the stored GroupCounts"
    )

    _FORBIDDEN = frozenset({"personal_groups", "tabulate"})

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if module.name != "repro.delta" and not module.name.startswith("repro.delta."):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call_target(module, node)
            last = (target or "").rsplit(".", 1)[-1]
            if last in self._FORBIDDEN:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"delta engine calls {last}(), a full-table group-index "
                    "rebuild; index the appended rows only with "
                    "IncrementalGroupIndex and merge into the stored GroupCounts",
                )
