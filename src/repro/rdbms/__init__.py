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
  hash / sort-merge join and distinct, the ones the optimizer plans
  (:mod:`operators`) — evaluated batch-at-a-time over
  :class:`~repro.rdbms.column_batch.ColumnBatch` arrays
  (dictionary-encoded columns + selection vectors, joins emitting gather
  indices),
* table statistics and cardinality estimation (:mod:`stats`),
* a query optimizer with the lesion-study knobs from Table 6 of the paper
  (:mod:`optimizer`), and
* an executor running the plans (:mod:`executor`) behind a
  :class:`~repro.rdbms.database.Database` facade tying it all together.

There is one engine.  Its output is in tuple-at-a-time order — the rows,
row order, operator counters and I/O charges of the textbook iterator
model — which the grounding pipeline's bit-identical results rely on.
That iterator model lives in ``tests/row_oracle.py`` as the test oracle
over the same plan trees; the parity suites (``tests/test_rdbms_columnar.py``
and ``tests/test_grounding_columnar_parity.py``) compare the engine
against it.

The engine is deliberately scoped to what MLN grounding needs: conjunctive
select-project-join queries with equality predicates, constant filters and
duplicate elimination.  It does not aim to be a general SQL system.
"""

from repro.rdbms.catalog import Catalog
from repro.rdbms.column_batch import ColumnBatch, ColumnarContext, ValueEncoder
from repro.rdbms.database import Database
from repro.rdbms.executor import Executor
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
]
