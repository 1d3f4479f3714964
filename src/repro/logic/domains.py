"""Typed constant domains.

Each predicate argument has a *type* (e.g. ``paper``, ``author``,
``category``), and each type has a domain of constants.  The grounding layer
needs the domains to enumerate possible argument values for a clause (for the
top-down grounder) and to estimate cardinalities (for the relational
optimizer), so the registry also provides dense integer encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

from repro.logic.terms import Constant


@dataclass
class Domain:
    """A named, ordered set of constants with a dense integer encoding."""

    name: str
    _constants: List[Constant] = field(default_factory=list)
    #: Constant value -> dense id.
    _index: Dict[str, int] = field(default_factory=dict)

    def add(self, constant: Constant) -> int:
        """Add a constant (idempotently) and return its dense id."""
        existing = self._index.get(constant.value)
        if existing is not None:
            return existing
        identifier = len(self._constants)
        self._constants.append(constant)
        self._index[constant.value] = identifier
        return identifier

    def add_value(self, value: str) -> int:
        """Convenience: add a constant by its string value."""
        existing = self._index.get(value)
        if existing is not None:
            return existing
        return self.add(Constant(value))

    def intern(self, value: str) -> Constant:
        """The domain's constant for ``value``, added if new."""
        existing = self._index.get(value)
        if existing is None:
            existing = self.add(Constant(value))
        return self._constants[existing]

    def id_of(self, constant: Constant) -> int:
        """Dense id of a constant; raises ``KeyError`` if unknown."""
        return self._index[constant.value]

    def constant_of(self, identifier: int) -> Constant:
        """Inverse of :meth:`id_of`."""
        return self._constants[identifier]

    def __contains__(self, constant: Constant) -> bool:
        return constant.value in self._index

    def __len__(self) -> int:
        return len(self._constants)

    def __iter__(self) -> Iterator[Constant]:
        return iter(self._constants)

    def constants(self) -> List[Constant]:
        """A copy of the constant list, in id order."""
        return list(self._constants)

    def values(self) -> List[str]:
        """The constants' values, in id order."""
        return list(self._index)


class DomainRegistry:
    """All typed domains of an MLN program, keyed by type name."""

    def __init__(self) -> None:
        self._domains: Dict[str, Domain] = {}

    def domain(self, type_name: str) -> Domain:
        """Return (creating if necessary) the domain for a type."""
        if type_name not in self._domains:
            self._domains[type_name] = Domain(type_name)
        return self._domains[type_name]

    def add_constant(self, type_name: str, constant: Constant) -> int:
        return self.domain(type_name).add(constant)

    def add_constants(self, type_name: str, values: Iterable[str]) -> None:
        domain = self.domain(type_name)
        for value in values:
            domain.add_value(value)

    def type_names(self) -> List[str]:
        return list(self._domains)

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._domains

    def __getitem__(self, type_name: str) -> Domain:
        return self._domains[type_name]

    def __len__(self) -> int:
        return len(self._domains)

    def total_constants(self) -> int:
        """Total number of distinct constants across all domains."""
        return sum(len(domain) for domain in self._domains.values())

    def summary(self) -> Dict[str, int]:
        """``{type name: domain size}`` — used by dataset statistics."""
        return {name: len(domain) for name, domain in self._domains.items()}
