"""Page-based storage manager and buffer pool with I/O accounting.

The engine keeps every table's rows grouped into fixed-size *pages*.  A
:class:`BufferPool` of limited capacity sits in front of the pages: page
accesses that hit the pool are free, misses are charged to a simulated clock
(and counted), mirroring the way a real RDBMS pays a per-page cost for data
that does not fit in its buffer cache.

Two consumers rely on this:

* the grounding executor charges *sequential* page reads per scan, which the
  optimizer's cost model also uses, and
* the RDBMS-backed WalkSAT (Tuffy-mm, Appendix B.2 of the paper) performs
  *random* page accesses per flip, which is exactly the access pattern the
  paper identifies as the reason in-database search is three to five orders
  of magnitude slower than in-memory search.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.utils.clock import SimulatedClock

DEFAULT_PAGE_SIZE = 128


@dataclass
class Page:
    """A fixed-capacity block of rows belonging to one table."""

    table_name: str
    page_number: int
    rows: List[Tuple[Any, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class IOStatistics:
    """Counters of storage activity, reported by benchmarks."""

    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    sequential_reads: int = 0
    random_reads: int = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.buffer_hits = 0
        self.buffer_misses = 0
        self.sequential_reads = 0
        self.random_reads = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "buffer_hits": self.buffer_hits,
            "buffer_misses": self.buffer_misses,
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
        }


class BufferPool:
    """An LRU cache of pages with hit/miss accounting.

    ``capacity_pages`` bounds how many pages are "in memory" at once.  When
    a clock is attached, each miss advances it by the configured page-read
    cost (sequential or random, depending on how the access was declared).
    """

    def __init__(
        self,
        capacity_pages: int = 1024,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self.capacity_pages = capacity_pages
        self.clock = clock
        self.stats = IOStatistics()
        self._cache: "OrderedDict[Tuple[str, int], Page]" = OrderedDict()

    def access(self, page: Page, sequential: bool = True) -> Page:
        """Record an access to a page, returning it for convenience."""
        key = (page.table_name, page.page_number)
        self.stats.page_reads += 1
        if sequential:
            self.stats.sequential_reads += 1
        else:
            self.stats.random_reads += 1
        if key in self._cache:
            self.stats.buffer_hits += 1
            self._cache.move_to_end(key)
            return page
        self.stats.buffer_misses += 1
        if self.clock is not None:
            event = "sequential_page_read" if sequential else "page_read"
            self.clock.charge(event)
        self._cache[key] = page
        while len(self._cache) > self.capacity_pages:
            self._cache.popitem(last=False)
        return page

    def write(self, page: Page) -> None:
        """Record a page write (dirty page flush)."""
        self.stats.page_writes += 1
        if self.clock is not None:
            self.clock.charge("page_write")
        key = (page.table_name, page.page_number)
        self._cache[key] = page
        self._cache.move_to_end(key)
        while len(self._cache) > self.capacity_pages:
            self._cache.popitem(last=False)

    def resident_pages(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()


class StorageManager:
    """Owns the pages of every table and routes accesses through a pool."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool: Optional[BufferPool] = None,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self.buffer_pool = buffer_pool or BufferPool()
        self._pages: Dict[str, List[Page]] = {}

    @property
    def stats(self) -> IOStatistics:
        return self.buffer_pool.stats

    def create_table(self, table_name: str) -> None:
        self._pages.setdefault(table_name, [])

    def drop_table(self, table_name: str) -> None:
        self._pages.pop(table_name, None)

    def append_row(self, table_name: str, row: Tuple[Any, ...]) -> Tuple[int, int]:
        """Append a row, returning its ``(page_number, slot)`` address."""
        pages = self._pages.setdefault(table_name, [])
        if not pages or len(pages[-1]) >= self.page_size:
            pages.append(Page(table_name, len(pages)))
        page = pages[-1]
        page.rows.append(row)
        return page.page_number, len(page.rows) - 1

    def bulk_load(self, table_name: str, rows: Sequence[Tuple[Any, ...]]) -> None:
        """Append many rows, charging one write per newly started page.

        The resulting page layout and write charges are identical to
        repeated :meth:`append_row` calls.
        """
        self.fill_rows(table_name, self.reserve_rows(table_name, len(rows)), rows)

    def reserve_rows(self, table_name: str, count: int) -> int:
        """Extend a table by ``count`` empty slots; returns the first one's row number.

        Charges exactly what :meth:`bulk_load` of ``count`` rows charges —
        one write per newly started page — so a producer can pay for a
        load from its row count alone and :meth:`fill_rows` the slots only
        if a reader ever asks for rows.  Row ``n`` of a table lives in page
        ``n // page_size``, slot ``n % page_size``: pages fill in order.
        """
        pages = self._pages.setdefault(table_name, [])
        page_size = self.page_size
        first = (len(pages) - 1) * page_size + len(pages[-1]) if pages else 0
        left = count
        while left:
            if not pages or len(pages[-1]) >= page_size:
                pages.append(Page(table_name, len(pages)))
                self.buffer_pool.stats.page_writes += 1
            page = pages[-1]
            take = min(page_size - len(page.rows), left)
            page.rows.extend([None] * take)  # type: ignore[list-item]
            left -= take
        return first

    def fill_rows(self, table_name: str, first: int, rows: Sequence[Tuple[Any, ...]]) -> None:
        """Write rows into slots :meth:`reserve_rows` made, from row ``first`` on (no charge)."""
        pages = self._pages[table_name]
        page_size = self.page_size
        done = 0
        while done < len(rows):
            number, slot = divmod(first + done, page_size)
            chunk = rows[done : done + page_size - slot]
            pages[number].rows[slot : slot + len(chunk)] = chunk
            done += len(chunk)

    def page_count(self, table_name: str) -> int:
        return len(self._pages.get(table_name, []))

    def row_count(self, table_name: str) -> int:
        return sum(len(page) for page in self._pages.get(table_name, []))

    def scan(self, table_name: str) -> Iterator[Tuple[Any, ...]]:
        """Sequentially scan a table, charging sequential page reads."""
        for page in self._pages.get(table_name, []):
            self.buffer_pool.access(page, sequential=True)
            yield from page.rows

    def charge_scan(self, table_name: str) -> None:
        """Charge a full sequential scan without yielding rows.

        The columnar backend reads tables from its cached column arrays but
        must pay the same per-page costs as a row scan; this walks the pages
        through the buffer pool exactly like :meth:`scan` does.
        """
        for page in self._pages.get(table_name, []):
            self.buffer_pool.access(page, sequential=True)

    def read_row(self, table_name: str, page_number: int, slot: int) -> Tuple[Any, ...]:
        """Random access to a single row, charging a random page read."""
        page = self._page(table_name, page_number)
        self.buffer_pool.access(page, sequential=False)
        return page.rows[slot]

    def write_row(
        self, table_name: str, page_number: int, slot: int, row: Tuple[Any, ...]
    ) -> None:
        """Random in-place update of a single row (charged as a page write)."""
        page = self._page(table_name, page_number)
        self.buffer_pool.access(page, sequential=False)
        page.rows[slot] = row
        self.buffer_pool.write(page)

    def _page(self, table_name: str, page_number: int) -> Page:
        try:
            return self._pages[table_name][page_number]
        except (KeyError, IndexError) as error:
            raise KeyError(
                f"no page {page_number} in table {table_name!r}"
            ) from error
