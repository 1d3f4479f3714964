"""Union-find (disjoint set union) with path compression and union by size.

The greedy partitioner (:mod:`repro.partitioning.greedy`, the paper's
Algorithm 3) grows partitions with it: clause by clause, in weight order,
it merges a clause's atoms unless the merged partition would exceed the
size bound — a decision per clause that depends on the merges before it.
(Component detection, which the paper also describes with a union-find,
needs only the final sets; it labels them with array passes instead, see
:mod:`repro.mrf.components`.)  The unit of work is a whole clause, so the
primitive is :meth:`UnionFind.union_sequence` — merge the sets of a run
of registered elements in one call; :meth:`UnionFind.union` is the
two-element case.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional


class UnionFind:
    """Disjoint sets over arbitrary hashable elements."""

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        for element in elements:
            self.add(element)

    def add(self, element: Hashable) -> None:
        """Register an element as its own singleton set (idempotent)."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, element: Hashable) -> Hashable:
        """Return the representative of the element's set (path compression)."""
        parent = self._parent
        try:
            root = parent[element]
        except KeyError:
            raise KeyError(f"unknown element {element!r}") from None
        while parent[root] != root:
            root = parent[root]
        while parent[element] != root:
            parent[element], element = root, parent[element]
        return root

    def union_sequence(self, elements: Iterable[Hashable]) -> Optional[Hashable]:
        """Merge the sets of already-registered elements, left to right.

        Equivalent to ``union(e0, e1); union(e1, e2); ...`` — the same
        by-size root choice at every step, so the final roots are
        identical; repeated elements are harmless.  Returns the merged
        set's root (``None`` for an empty sequence); an unregistered
        element raises ``KeyError``.
        """
        parent = self._parent
        size = self._size
        merged = None
        for element in elements:
            root = parent[element]
            if parent[root] != root:
                while parent[root] != root:
                    root = parent[root]
                while parent[element] != root:
                    parent[element], element = root, parent[element]
            if merged is None:
                merged = root
            elif root != merged:
                if size[merged] < size[root]:
                    merged, root = root, merged
                parent[root] = merged
                size[merged] += size[root]
        return merged

    def union(self, left: Hashable, right: Hashable) -> Hashable:
        """Merge the sets containing the two elements; returns the new root."""
        self.add(left)
        self.add(right)
        return self.union_sequence((left, right))

    def connected(self, left: Hashable, right: Hashable) -> bool:
        return self.find(left) == self.find(right)

    def component_size(self, element: Hashable) -> int:
        return self._size[self.find(element)]

    def groups(self) -> Dict[Hashable, List[Hashable]]:
        """All sets, keyed by their representative."""
        result: Dict[Hashable, List[Hashable]] = {}
        find = self.find
        for element in self._parent:
            result.setdefault(find(element), []).append(element)
        return result

    def component_count(self) -> int:
        return sum(1 for element in self._parent if self.find(element) == element)
