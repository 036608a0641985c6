"""Block-structured in-memory tables.

A :class:`Table` is a row store: a list of plain tuples plus a
:class:`~repro.storage.schema.Schema`. Rows are grouped into fixed-size
*blocks* (pages). Blocks matter for one reason only — the paper's sampling
scheme draws a *block-level* random sample of each base table, then scans the
remainder "excluding tuples that were already in the sample" (a block-id
antijoin). :mod:`repro.storage.sampling` implements that over these blocks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.common.errors import SchemaError
from repro.storage.schema import Schema

__all__ = ["Table", "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 128


class Table:
    """An immutable, block-structured relation.

    Parameters
    ----------
    name:
        Relation name; also the default qualifier of its columns.
    schema:
        Column layout. Columns without a qualifier are qualified by ``name``.
    rows:
        Row tuples. Each must match the schema arity.
    block_size:
        Rows per block (page) for block-level sampling.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[tuple],
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.name = name
        # The un-aliased relation name: survives aliased() views, so plan
        # fingerprints hash self-join variants of one table identically.
        self.base_name = name
        self.schema = Schema(
            c if c.qualifier else c.with_qualifier(name) for c in schema
        )
        self._rows: list[tuple] = [tuple(r) for r in rows]
        arity = len(self.schema)
        for r in self._rows[:1] + self._rows[-1:]:
            if len(r) != arity:
                raise SchemaError(
                    f"row arity {len(r)} does not match schema arity {arity}"
                )
        self.block_size = block_size

    # -- basic accessors ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.num_rows}, blocks={self.num_blocks})"

    def rows(self) -> Sequence[tuple]:
        return self._rows

    def column_values(self, column: str) -> list:
        """All values of one column, in row order."""
        idx = self.schema.index_of(column)
        return [r[idx] for r in self._rows]

    # -- blocks --------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return (len(self._rows) + self.block_size - 1) // self.block_size

    def block(self, block_id: int) -> Sequence[tuple]:
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block {block_id} out of range [0, {self.num_blocks})")
        start = block_id * self.block_size
        return self._rows[start : start + self.block_size]

    def iter_blocks(self, block_ids: Iterable[int] | None = None) -> Iterator[tuple]:
        """Yield rows block by block, optionally restricted to ``block_ids``."""
        ids = range(self.num_blocks) if block_ids is None else block_ids
        for bid in ids:
            yield from self.block(bid)

    # -- derivation ----------------------------------------------------------

    def aliased(self, alias: str) -> "Table":
        """A view of this table under a different relation name/qualifier.

        Rows are shared, not copied; used for self-joins
        (e.g. the paper's ``C``, ``C¹``, ``C²`` customer variants join the
        same schema under distinct names).
        """
        view = Table.__new__(Table)
        view.name = alias
        view.base_name = self.base_name
        view.schema = self.schema.with_qualifier(alias)
        view._rows = self._rows
        view.block_size = self.block_size
        return view

    def filtered(self, predicate: Callable[[tuple], bool], name: str | None = None) -> "Table":
        """Materialise the subset of rows satisfying ``predicate``."""
        return Table(
            name or self.name,
            self.schema,
            (r for r in self._rows if predicate(r)),
            self.block_size,
        )
