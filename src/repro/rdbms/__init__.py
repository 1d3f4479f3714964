"""A small in-Python relational engine.

The paper's Tuffy system delegates the grounding phase of MLN inference to
PostgreSQL so it can benefit from the relational optimizer (join algorithm
selection, join ordering, predicate pushdown).  This package is the offline
substitute for PostgreSQL: it provides

* a catalog of typed tables (:mod:`schema`, :mod:`table`, :mod:`catalog`),
* a page-based storage manager with a buffer pool and I/O accounting
  (:mod:`storage`) used both for realistic scan costs and for the
  RDBMS-backed search variant (Tuffy-mm),
* expression trees for filters and join conditions (:mod:`expressions`),
  each compilable to a per-row evaluator (``bind``) or a vectorized numpy
  mask (``bind_batch``),
* physical operators — sequential scan, filter, project, nested-loop /
  hash / sort-merge join, distinct, sort, aggregate (:mod:`operators`) —
  executable under two models off the same plan: the tuple-at-a-time
  iterator model (the executable specification) and the batch-at-a-time
  columnar model over :class:`~repro.rdbms.column_batch.ColumnBatch`
  arrays (dictionary-encoded columns + selection vectors, joins emitting
  gather indices),
* table statistics and cardinality estimation (:mod:`stats`),
* a query optimizer with the lesion-study knobs from Table 6 of the paper
  (:mod:`optimizer`), and
* an executor resolving the ``auto | row | columnar`` execution-backend
  seam per plan (:mod:`executor`, mirroring the search kernel's
  ``resolve_backend``) behind a :class:`~repro.rdbms.database.Database`
  facade tying it all together.

Both execution backends are *order-identical* — same rows, same order,
same operator counters and I/O charges — so every consumer, including the
grounding pipeline's bit-identical-results guarantee, is backend-agnostic;
the columnar engine is purely a performance choice (see
``tests/test_rdbms_columnar.py`` and ROADMAP.md "Execution backend").

The engine is deliberately scoped to what MLN grounding needs: conjunctive
select-project-join queries with equality predicates, constant filters and
duplicate elimination.  It does not aim to be a general SQL system.
"""

from repro.rdbms.catalog import Catalog
from repro.rdbms.column_batch import ColumnBatch, ColumnarContext, ValueEncoder
from repro.rdbms.database import Database
from repro.rdbms.executor import (
    EXECUTION_BACKENDS,
    Executor,
    resolve_execution_backend,
)
from repro.rdbms.expressions import (
    And,
    ColumnRef,
    Comparison,
    Const,
    Expression,
    Not,
    Or,
)
from repro.rdbms.optimizer import ConjunctiveQuery, Optimizer, OptimizerOptions
from repro.rdbms.schema import Column, TableSchema
from repro.rdbms.storage import BufferPool, StorageManager
from repro.rdbms.table import Table
from repro.rdbms.types import ColumnType

__all__ = [
    "And",
    "BufferPool",
    "Catalog",
    "Column",
    "ColumnBatch",
    "ColumnRef",
    "ColumnType",
    "ColumnarContext",
    "Comparison",
    "ConjunctiveQuery",
    "Const",
    "Database",
    "EXECUTION_BACKENDS",
    "Executor",
    "Expression",
    "Not",
    "Optimizer",
    "OptimizerOptions",
    "Or",
    "StorageManager",
    "Table",
    "TableSchema",
    "ValueEncoder",
    "resolve_execution_backend",
]
