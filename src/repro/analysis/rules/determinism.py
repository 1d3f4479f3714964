"""Determinism rules: hash-order, raw RNG, wall-clock and float accumulation.

These rules enforce the first two "Invariants to preserve" of ROADMAP.md:
seeded runs must be bit-for-bit reproducible, which means no iteration order
may depend on hash seeding or object identity, every random draw must come
from the injected seeded :class:`repro.utils.rng.RandomSource`, and float
accumulation must happen in one deterministic sequence.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Iterator, Optional, Set

from repro.analysis.framework import Finding, Rule, SourceFile, register

#: Builtin constructors producing unordered collections.
_UNORDERED_CALLS = ("set", "frozenset")

#: Call wrappers that impose an order (or don't care about one).
_ORDER_RESTORING_CALLS = ("sorted", "min", "max", "len", "any", "all")


def _is_unordered_expr(node: ast.expr) -> bool:
    """True for expressions whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _UNORDERED_CALLS
    return False


def _enclosing_call_name(source: SourceFile, node: ast.AST) -> Optional[str]:
    """Name of the call this node is a direct argument of, if any."""
    parent = source.parents().get(node)
    if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
        if node in parent.args:
            return parent.func.id
    return None


def _module_aliases(source: SourceFile, module: str) -> Set[str]:
    """Local names the given module is importable under in this file."""
    aliases: Set[str] = set()
    for node in source.walk():
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _from_imports(source: SourceFile, module: str) -> Dict[str, str]:
    """``local name -> original name`` for ``from <module> import ...``."""
    imported: Dict[str, str] = {}
    for node in source.walk():
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    return imported


@register
class UnorderedIterationRule(Rule):
    """Iteration (or ordered materialisation) of an unordered set expression."""

    id: ClassVar[str] = "det-set-iter"
    family: ClassVar[str] = "determinism"
    description: ClassVar[str] = (
        "for-loops, list/dict comprehensions and list()/tuple() calls must not "
        "consume a set/frozenset directly: set iteration order depends on the "
        "hash seed, so any ordered output derived from it is nondeterministic. "
        "Sort the set or deduplicate order-preservingly (dict.fromkeys)."
    )

    _MESSAGE = (
        "iteration over an unordered set expression; sort it or use an "
        "order-preserving dedup (e.g. dict.fromkeys) so downstream order "
        "is deterministic"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if isinstance(node, ast.For) and _is_unordered_expr(node.iter):
                yield source.finding(node.iter, self.id, self._MESSAGE)
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                for generator in node.generators:
                    if _is_unordered_expr(generator.iter):
                        yield source.finding(generator.iter, self.id, self._MESSAGE)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
                and _is_unordered_expr(node.args[0])
            ):
                wrapper = _enclosing_call_name(source, node)
                if wrapper not in _ORDER_RESTORING_CALLS:
                    yield source.finding(node.args[0], self.id, self._MESSAGE)


#: The deterministic core: results there must be bit-reproducible.
_CORE_DIRS = ("inference", "grounding", "mrf", "parallel", "partitioning", "rdbms")

#: numpy reductions that add floats pairwise (``np.add.reduce`` and what
#: is built on it), not in one left-to-right sequence.
_PAIRWISE_REDUCTIONS = ("sum", "mean", "dot")
_PAIRWISE_ADD_METHODS = ("reduce", "reduceat")


@register
class UnorderedFloatSumRule(Rule):
    """Float accumulation over an unordered iterable, or in pairwise order."""

    id: ClassVar[str] = "det-float-sum"
    family: ClassVar[str] = "determinism"
    description: ClassVar[str] = (
        "sum()/math.fsum() over a set (or a generator driven by one) "
        "accumulates floats in hash order; float addition is not associative, "
        "so totals drift across runs and machines. Accumulate over a "
        "deterministically ordered sequence instead. In the deterministic "
        "core (inference/grounding/mrf/parallel/partitioning/rdbms), "
        "np.sum/np.mean/np.dot/np.add.reduce/np.add.reduceat are flagged "
        "too: they add pairwise, so a total differs in the last bits from "
        "the sequential sum the other backends compute. np.bincount and a "
        "left fold, functools.reduce(operator.add, values, 0.0), add left "
        "to right; builtin sum() does not (since Python 3.12 it compensates "
        "float rounding), so the core uses it only on integers. Integer and "
        "boolean counts are exact: allow(...) them inline."
    )

    _MESSAGE = (
        "float accumulation over an unordered iterable; the sequential-"
        "accumulation invariant requires a deterministic addition order"
    )
    _PAIRWISE_MESSAGE = (
        "numpy {name} adds pairwise, not left to right: a float total is not "
        "bit-identical to the sequential one; accumulate in order "
        "(functools.reduce(operator.add, values, 0.0) over an ordered "
        "sequence, np.bincount), or allow(det-float-sum) an integer/boolean "
        "count"
    )

    def _is_sum_call(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("sum", "fsum"):
            return True
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "fsum"
            and isinstance(func.value, ast.Name)
            and func.value.id == "math"
        )

    def _pairwise_reduction(
        self, node: ast.Call, numpy_names: Set[str], imported: Dict[str, str]
    ) -> Optional[str]:
        """``np.sum``-style name of a pairwise numpy reduction call, if it is one."""
        func = node.func
        if isinstance(func, ast.Name):
            original = imported.get(func.id)
            return f"{original}()" if original in _PAIRWISE_REDUCTIONS else None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name) and base.id in numpy_names:
            if func.attr in _PAIRWISE_REDUCTIONS:
                return f"{base.id}.{func.attr}()"
        elif (
            func.attr in _PAIRWISE_ADD_METHODS
            and isinstance(base, ast.Attribute)
            and base.attr == "add"
            and isinstance(base.value, ast.Name)
            and base.value.id in numpy_names
        ):
            return f"{base.value.id}.add.{func.attr}()"
        return None

    def check(self, source: SourceFile) -> Iterator[Finding]:
        core = source.in_directory(*_CORE_DIRS)
        numpy_names = _module_aliases(source, "numpy") if core else set()
        imported = _from_imports(source, "numpy") if core else {}
        for node in source.walk():
            if core and isinstance(node, ast.Call):
                name = self._pairwise_reduction(node, numpy_names, imported)
                if name is not None:
                    yield source.finding(
                        node, self.id, self._PAIRWISE_MESSAGE.format(name=name)
                    )
                    continue
            if not (isinstance(node, ast.Call) and self._is_sum_call(node) and node.args):
                continue
            argument = node.args[0]
            if _is_unordered_expr(argument):
                yield source.finding(argument, self.id, self._MESSAGE)
            elif isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
                # Counting generators (constant element) are order-insensitive.
                if isinstance(argument.elt, ast.Constant):
                    continue
                for generator in argument.generators:
                    if _is_unordered_expr(generator.iter):
                        yield source.finding(generator.iter, self.id, self._MESSAGE)


@register
class RawRandomRule(Rule):
    """Raw randomness sources outside the sanctioned seeded wrapper."""

    id: ClassVar[str] = "det-raw-random"
    family: ClassVar[str] = "determinism"
    description: ClassVar[str] = (
        "every random draw must come from the injected seeded RandomSource "
        "(repro/utils/rng.py, the only sanctioned home of the random module); "
        "module-level random.*, os.urandom, uuid.uuid1/uuid4, secrets.* and "
        "numpy.random.* make runs unreproducible."
    )

    #: The one file allowed to touch the random module.
    _SANCTIONED = ("utils", "rng.py")

    def applies_to(self, source: SourceFile) -> bool:
        segments = source.segments()
        return segments[-2:] != self._SANCTIONED

    def check(self, source: SourceFile) -> Iterator[Finding]:
        random_aliases = _module_aliases(source, "random")
        secrets_aliases = _module_aliases(source, "secrets")
        numpy_random_aliases = _module_aliases(source, "numpy.random")
        from_random = _from_imports(source, "random")
        from_secrets = _from_imports(source, "secrets")
        for node in source.walk():
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = node.value.id
                if base in random_aliases or base in secrets_aliases:
                    yield source.finding(
                        node,
                        self.id,
                        f"raw '{base}.{node.attr}' outside repro.utils.rng; "
                        "draw from the injected RandomSource instead",
                    )
                elif base in numpy_random_aliases:
                    yield source.finding(
                        node, self.id,
                        "numpy.random is not seed-injected; use the RandomSource stream",
                    )
                elif base == "os" and node.attr == "urandom":
                    yield source.finding(
                        node, self.id, "os.urandom is unseeded entropy"
                    )
                elif base == "uuid" and node.attr in ("uuid1", "uuid4"):
                    yield source.finding(
                        node, self.id, f"uuid.{node.attr} draws unseeded entropy"
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                # numpy.random.<fn> via a numpy alias (np.random.shuffle, ...).
                inner = node.value
                if inner.attr == "random" and isinstance(inner.value, ast.Name):
                    if inner.value.id in _module_aliases(source, "numpy"):
                        yield source.finding(
                            node, self.id,
                            "numpy.random is not seed-injected; use the RandomSource stream",
                        )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in from_random:
                    yield source.finding(
                        node, self.id,
                        f"'{from_random[node.id]}' imported from the random module; "
                        "draw from the injected RandomSource instead",
                    )
                elif node.id in from_secrets:
                    yield source.finding(
                        node, self.id,
                        f"secrets.{from_secrets[node.id]} is unseeded entropy",
                    )


@register
class WallClockRule(Rule):
    """Wall-clock reads inside the deterministic kernel/grounding core."""

    id: ClassVar[str] = "det-wallclock"
    family: ClassVar[str] = "determinism"
    description: ClassVar[str] = (
        "inference/grounding/mrf/parallel/partitioning/rdbms code must not "
        "read wall-clock time (time.*, datetime.now/utcnow): results and "
        "deadlines there are driven by the deterministic SimulatedClock "
        "(repro/utils/clock.py is the sanctioned wrapper)."
    )

    _SCOPED_DIRS = _CORE_DIRS
    _DATETIME_ATTRS = ("now", "utcnow", "today")

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_directory(*self._SCOPED_DIRS)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        time_aliases = _module_aliases(source, "time")
        from_time = _from_imports(source, "time")
        for node in source.walk():
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = node.value.id
                if base in time_aliases:
                    yield source.finding(
                        node,
                        self.id,
                        f"wall-clock read '{base}.{node.attr}' in deterministic core "
                        "code; charge the SimulatedClock instead",
                    )
                elif base in ("datetime", "date") and node.attr in self._DATETIME_ATTRS:
                    yield source.finding(
                        node, self.id,
                        f"wall-clock read '{base}.{node.attr}' in deterministic core code",
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in from_time:
                    yield source.finding(
                        node, self.id,
                        f"wall-clock read '{from_time[node.id]}' (imported from time) "
                        "in deterministic core code; charge the SimulatedClock instead",
                    )


@register
class IdHashOrderRule(Rule):
    """Ordering keyed on object identity or hash values."""

    id: ClassVar[str] = "det-id-hash-order"
    family: ClassVar[str] = "determinism"
    description: ClassVar[str] = (
        "sorted()/min()/max()/.sort() keyed on id() or hash() orders by "
        "allocation address or hash seed, which differs between runs and "
        "processes; key on a stable attribute (atom id, clause index) instead."
    )

    _SORTERS = ("sorted", "min", "max", "sort", "groupby")

    def _key_is_identity(self, key: ast.expr) -> Optional[str]:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return key.id
        if isinstance(key, ast.Lambda) and isinstance(key.body, ast.Call):
            func = key.body.func
            if isinstance(func, ast.Name) and func.id in ("id", "hash"):
                return func.id
        return None

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name: Optional[str] = None
            if isinstance(func, ast.Name) and func.id in self._SORTERS:
                name = func.id
            elif isinstance(func, ast.Attribute) and func.attr in ("sort", "groupby"):
                name = func.attr
            if name is None:
                continue
            for keyword in node.keywords:
                if keyword.arg == "key":
                    which = self._key_is_identity(keyword.value)
                    if which is not None:
                        yield source.finding(
                            keyword.value,
                            self.id,
                            f"{name}() keyed on {which}() is ordered by "
                            "allocation/hash state, not by data; use a stable key",
                        )


__all__ = [
    "IdHashOrderRule",
    "RawRandomRule",
    "UnorderedFloatSumRule",
    "UnorderedIterationRule",
    "WallClockRule",
]
