"""Fork-safety rules for the multiprocess parallel backend.

The processes backend forks workers that inherit the parent's memory image
— the component MRFs included — and then communicate only through queues
and the shared-memory result regions.  Four things keep that safe and
deterministic, and each gets a rule: worker entrypoints must not mutate
fork-inherited module globals, shared-memory buffers must not be written
after they are published to workers, a live pool must never repack its
buffers or rebind what its workers inherited at fork time (tear down and
fork a fresh pool instead), and task callables shipped to a pool must be
picklable (no lambdas or closures).

One further rule guards thread-level concurrency rather than fork
safety: ``req-state-isolation`` checks that methods a class marks as
request-scoped (``_request_scoped_methods`` — the engine session's
serve/prepare/search paths, which interleave across admitted requests)
never write session-level state directly.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Iterator, List, Optional, Set

from repro.analysis.framework import Finding, Project, Rule, SourceFile, register

#: Methods that mutate the builtin containers in place.
_MUTATORS = (
    "append", "add", "update", "extend", "insert", "remove", "discard",
    "setdefault", "pop", "popitem", "clear", "appendleft",
)

#: Pool-submission call attributes whose first argument must be picklable.
_POOL_SUBMITTERS = ("submit", "apply_async", "map_async", "imap", "imap_unordered")


def _module_mutable_names(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable containers."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        if value is None or not _is_mutable_container(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in ("list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
                        "deque")
    return False


def _is_worker_entrypoint(name: str) -> bool:
    return name == "execute_component_task" or name.startswith("_worker")


@register
class ForkModuleStateRule(Rule):
    """Mutation of fork-inherited module globals inside worker entrypoints."""

    id: ClassVar[str] = "fork-module-state"
    family: ClassVar[str] = "fork-safety"
    description: ClassVar[str] = (
        "worker entrypoints (execute_component_task, _worker*) must not "
        "mutate module-level mutable state: forked workers each inherit a "
        "private copy, so writes silently diverge between processes and "
        "between the serial and processes backends. Keep worker caches in "
        "locals owned by the worker loop."
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_directory("parallel")

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if source.tree is None:
            return
        module_mutables = _module_mutable_names(source.tree)
        for node in source.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_worker_entrypoint(node.name):
                    yield from self._check_function(source, node, module_mutables)

    def _check_function(
        self,
        source: SourceFile,
        function: ast.AST,
        module_mutables: Set[str],
    ) -> Iterator[Finding]:
        shadowed: Set[str] = set()
        declared_global: Set[str] = set()
        body_nodes = list(ast.walk(function))
        for node in body_nodes:
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        shadowed.add(target.id)
        for node in body_nodes:
            if isinstance(node, ast.Global):
                hits = [name for name in node.names if name in module_mutables]
                for name in hits:
                    yield source.finding(
                        node, self.id,
                        f"worker entrypoint declares 'global {name}' over "
                        "fork-inherited mutable state",
                    )
                continue
            name = self._mutated_module_name(node, module_mutables, shadowed,
                                             declared_global)
            if name is not None:
                yield source.finding(
                    node, self.id,
                    f"worker entrypoint mutates fork-inherited module state "
                    f"'{name}'; each forked worker diverges on its private copy",
                )

    def _mutated_module_name(
        self,
        node: ast.AST,
        module_mutables: Set[str],
        shadowed: Set[str],
        declared_global: Set[str],
    ) -> Optional[str]:
        def resolve(target: ast.expr) -> Optional[str]:
            if not isinstance(target, ast.Name):
                return None
            name = target.id
            if name not in module_mutables:
                return None
            if name in shadowed and name not in declared_global:
                return None  # plain assignment made it function-local
            return name

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                return resolve(node.func.value)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    hit = resolve(target.value)
                    if hit is not None:
                        return hit
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    hit = resolve(target.value)
                    if hit is not None:
                        return hit
        return None


@register
class SharedMemoryPublishRule(Rule):
    """Writes to shared-memory buffers after they are published to workers."""

    id: ClassVar[str] = "fork-shm-publish"
    family: ClassVar[str] = "fork-safety"
    description: ClassVar[str] = (
        "attributes cast from a SharedMemory buffer (e.g. shm.buf.cast(...)) "
        "may only be written while the owner is packing them (__init__ / "
        "pack / _pack*); once workers have attached, a write races their "
        "reads and breaks run-to-run determinism. Rebuild-and-repack instead "
        "of mutating a published segment. One sanctioned exception: a class "
        "may name result-region writer methods in a `_result_region_writers` "
        "class attribute; those methods may write shm attributes whose names "
        "contain 'result' (the result-shipping protocol orders each region "
        "write before its completion token, so the parent never reads a "
        "region concurrently with the worker writing it)."
    )

    _ALLOWED_WRITERS = ("__init__", "pack")
    #: Class attribute listing methods sanctioned to write result regions.
    _WRITERS_MARKER = "_result_region_writers"
    #: Substring an shm attribute must carry for the sanction to apply.
    _RESULT_MARKER = "result"

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_directory("parallel")

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in source.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node)

    def _shm_attributes(self, class_def: ast.ClassDef) -> Set[str]:
        """Attribute names assigned from a ``.buf.cast(...)`` expression."""
        attrs: Set[str] = set()
        for node in ast.walk(class_def):
            if not isinstance(node, ast.Assign):
                continue
            if not self._is_buf_cast(node.value):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs

    def _is_buf_cast(self, node: ast.expr) -> bool:
        """Matches ``<expr>.buf.cast(...)``."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        if node.func.attr != "cast":
            return False
        value = node.func.value
        return isinstance(value, ast.Attribute) and value.attr == "buf"

    def _sanctioned_writers(self, class_def: ast.ClassDef) -> Set[str]:
        """Method names listed in the class's ``_result_region_writers``."""
        writers: Set[str] = set()
        for node in class_def.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            if value is None or not any(
                isinstance(target, ast.Name) and target.id == self._WRITERS_MARKER
                for target in targets
            ):
                continue
            if isinstance(value, (ast.Tuple, ast.List)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        writers.add(element.value)
        return writers

    def _check_class(
        self, source: SourceFile, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        shm_attrs = self._shm_attributes(class_def)
        if not shm_attrs:
            return
        sanctioned = self._sanctioned_writers(class_def)
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in self._ALLOWED_WRITERS or method.name.startswith("_pack"):
                continue
            allow_result = method.name in sanctioned
            aliases = self._local_aliases(method, shm_attrs)
            for node in ast.walk(method):
                target = self._buffer_write_target(node, shm_attrs, aliases)
                if target is None:
                    continue
                if allow_result and self._RESULT_MARKER in target:
                    continue
                yield source.finding(
                    node, self.id,
                    f"write to published shared-memory buffer '{target}' in "
                    f"method '{method.name}' (writes are only safe during "
                    "packing, before workers attach)",
                )

    def _local_aliases(self, method: ast.AST, shm_attrs: Set[str]) -> Dict[str, str]:
        """Local alias name -> the shared-memory attribute it points at."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            if isinstance(node.value, ast.Attribute) and node.value.attr in shm_attrs:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = node.value.attr
        return aliases

    def _buffer_write_target(
        self, node: ast.AST, shm_attrs: Set[str], aliases: Dict[str, str]
    ) -> Optional[str]:
        """The shm *attribute* a subscript write lands on, if any."""
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            return None
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            base = target.value
            if isinstance(base, ast.Attribute) and base.attr in shm_attrs:
                return base.attr
            if isinstance(base, ast.Name) and base.id in aliases:
                return aliases[base.id]
        return None


@register
class PoolLifecycleRule(Rule):
    """Repacking or rebinding fork-time state on a live worker pool."""

    id: ClassVar[str] = "fork-pool-lifecycle"
    family: ClassVar[str] = "fork-safety"
    description: ClassVar[str] = (
        "a pool-like class (one whose __init__ starts processes and binds a "
        "packed shared-memory buffer set — any self.*buffers* attribute) "
        "must never change, on a live pool, what its workers took at fork "
        "time: they attached to the segments and inherited every self.* "
        "object passed in Process(args=...) — the component list among "
        "them — as of the fork and keep using those, so a repack (any "
        "*BufferSet.pack(...) call) or a rebind of such an attribute "
        "outside __init__ (self.result_buffers, self._components) silently "
        "desynchronises parent and workers. Tear the pool down and fork a "
        "fresh one."
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_directory("parallel")

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in source.walk():
            if isinstance(node, ast.ClassDef) and self._is_pool_class(node):
                yield from self._check_pool_class(source, node)

    def _find_init(self, class_def: ast.ClassDef) -> Optional[ast.FunctionDef]:
        return next(
            (
                method
                for method in class_def.body
                if isinstance(method, ast.FunctionDef) and method.name == "__init__"
            ),
            None,
        )

    def _is_pool_class(self, class_def: ast.ClassDef) -> bool:
        """A class whose __init__ binds worker processes and a buffer set."""
        init = self._find_init(class_def)
        if init is None:
            return False
        bound = self._self_attribute_targets(init)
        return "_processes" in bound and any("buffers" in attr for attr in bound)

    def _check_pool_class(
        self, source: SourceFile, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        init = self._find_init(class_def)
        bound = self._self_attribute_targets(init) if init is not None else set()
        # Frozen for the pool's lifetime: every buffer-set attribute packed
        # before the fork (``result_buffers``) and everything the workers
        # inherited as a ``Process`` argument (the component list, which
        # the parent keeps reading ``atom_ids`` off; the queues).
        protected = {attr for attr in bound if "buffers" in attr}
        if init is not None:
            protected |= self._fork_inherited_attributes(init)
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            for node in ast.walk(method):
                hits = self._self_attribute_targets_of(node) & protected
                for attr in sorted(hits):
                    yield source.finding(
                        node, self.id,
                        f"method '{method.name}' rebinds self.{attr} on a "
                        "live pool; workers still use the object they took "
                        "at fork time — build a new pool instead",
                    )
                if self._is_pack_call(node):
                    yield source.finding(
                        node, self.id,
                        f"method '{method.name}' repacks shared-memory buffers "
                        "on a live pool (*BufferSet.pack outside __init__); "
                        "build a new pool instead",
                    )

    def _self_attribute_targets(self, function: ast.FunctionDef) -> Set[str]:
        bound: Set[str] = set()
        for node in ast.walk(function):
            bound |= self._self_attribute_targets_of(node)
        return bound

    def _self_attribute_targets_of(self, node: ast.AST) -> Set[str]:
        """``self.<attr>`` names a plain or annotated assignment binds."""
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            return set()
        return {target.attr for target in targets if self._is_self_attribute(target)}

    def _is_self_attribute(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _fork_inherited_attributes(self, init: ast.FunctionDef) -> Set[str]:
        """``self.<attr>`` objects handed to workers in ``Process(args=...)``."""
        inherited: Set[str] = set()
        for node in ast.walk(init):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # ``context.Process(...)`` or a bare ``Process(...)``.
            if getattr(func, "attr", getattr(func, "id", None)) != "Process":
                continue
            for keyword in node.keywords:
                if keyword.arg == "args":
                    inherited |= {
                        argument.attr
                        for argument in ast.walk(keyword.value)
                        if self._is_self_attribute(argument)
                    }
        return inherited

    def _is_pack_call(self, node: ast.AST) -> bool:
        """Matches ``<Anything>BufferSet.pack(...)``."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        if node.func.attr != "pack":
            return False
        value = node.func.value
        return isinstance(value, ast.Name) and value.id.endswith("BufferSet")


@register
class PoolTaskClosureRule(Rule):
    """Unpicklable callables handed to a process pool or Process target."""

    id: ClassVar[str] = "fork-task-closure"
    family: ClassVar[str] = "fork-safety"
    description: ClassVar[str] = (
        "callables shipped to a pool (submit/apply_async/imap*) or as a "
        "Process target must be module-level functions: lambdas and nested "
        "functions do not pickle, and closures capture parent state that "
        "diverges after fork. Pass a module-level function plus explicit "
        "arguments."
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        nested = self._nested_function_names(source)
        for node in source.walk():
            if not isinstance(node, ast.Call):
                continue
            callable_arg = self._shipped_callable(node)
            if callable_arg is None:
                continue
            if isinstance(callable_arg, ast.Lambda):
                yield source.finding(
                    callable_arg, self.id,
                    "lambda shipped to a worker pool cannot be pickled",
                )
            elif isinstance(callable_arg, ast.Name) and callable_arg.id in nested:
                yield source.finding(
                    callable_arg, self.id,
                    f"nested function '{callable_arg.id}' shipped to a worker "
                    "pool cannot be pickled (define it at module level)",
                )

    def _shipped_callable(self, call: ast.Call) -> Optional[ast.expr]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _POOL_SUBMITTERS:
            if call.args:
                return call.args[0]
            return None
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in ("Process", "Thread"):
            for keyword in call.keywords:
                if keyword.arg == "target":
                    return keyword.value
        return None

    def _nested_function_names(self, source: SourceFile) -> Set[str]:
        """Names of functions (or lambdas) defined inside another function."""
        nested: Set[str] = set()
        parents = source.parents()

        def inside_function(node: ast.AST) -> bool:
            ancestor = parents.get(node)
            while ancestor is not None:
                if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    return True
                ancestor = parents.get(ancestor)
            return False

        for node in source.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function(node):
                    nested.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                if inside_function(node):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            nested.add(target.id)
        return nested


@register
class ReqStateIsolationRule(Rule):
    """Session-state writes from request-scoped code paths."""

    id: ClassVar[str] = "req-state-isolation"
    family: ClassVar[str] = "concurrency"
    description: ClassVar[str] = (
        "a class may name request-scoped methods in a "
        "`_request_scoped_methods` class attribute (the engine session "
        "does: the serve/prepare/search paths that run one admitted "
        "request); those methods must not write any attribute rooted at "
        "self — no assignment, augmented assignment, deletion or in-place "
        "container mutation — because several requests run them "
        "interleaved over one session and a write from one request "
        "silently corrupts another's state. Route writes through the "
        "sanctioned plumbing methods (lease check-out/check-in, "
        "_begin_request, _finish_request) instead."
    )

    #: Class attribute listing the request-scoped method names.
    _SCOPED_MARKER = "_request_scoped_methods"

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in source.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node)

    def _scoped_methods(self, class_def: ast.ClassDef) -> Set[str]:
        """Method names listed in the class's ``_request_scoped_methods``."""
        scoped: Set[str] = set()
        for node in class_def.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            if value is None or not any(
                isinstance(target, ast.Name) and target.id == self._SCOPED_MARKER
                for target in targets
            ):
                continue
            if isinstance(value, (ast.Tuple, ast.List)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        scoped.add(element.value)
        return scoped

    def _check_class(
        self, source: SourceFile, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        scoped = self._scoped_methods(class_def)
        if not scoped:
            return
        for method in class_def.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name not in scoped:
                continue
            for node in ast.walk(method):
                for chain in self._session_writes(node):
                    yield source.finding(
                        node, self.id,
                        f"request-scoped method '{method.name}' writes session "
                        f"state '{chain}'; interleaved requests share the "
                        "session — route the write through the sanctioned "
                        "plumbing methods",
                    )

    def _session_writes(self, node: ast.AST) -> Iterator[str]:
        """Chains rooted at ``self`` that this statement writes to."""
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                targets: List[ast.expr] = node.targets
            else:
                targets = [node.target]
            for target in targets:
                chain = self._self_rooted(target)
                if chain is not None:
                    yield chain
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                chain = self._self_rooted(target)
                if chain is not None:
                    yield chain
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                chain = self._self_rooted(node.func.value)
                if chain is not None:
                    yield f"{chain}.{node.func.attr}(...)"

    def _self_rooted(self, target: ast.expr) -> Optional[str]:
        """Dotted rendering of an attribute/subscript chain rooted at ``self``."""
        parts: List[str] = []
        node = target
        while True:
            if isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Subscript):
                parts.append("[...]")
                node = node.value
            elif isinstance(node, ast.Name):
                if node.id != "self" or not parts:
                    return None
                rendered = "self"
                for part in reversed(parts):
                    if part == "[...]":
                        rendered += "[...]"
                    else:
                        rendered += f".{part}"
                return rendered
            else:
                return None


__all__ = [
    "ForkModuleStateRule",
    "PoolLifecycleRule",
    "PoolTaskClosureRule",
    "ReqStateIsolationRule",
    "SharedMemoryPublishRule",
]
