"""System catalog: registered tables and their statistics.

The catalog is the meeting point of the substrate and the estimation
framework: operators resolve tables here, the optimizer pulls statistics
from here, and the progress framework reads base-table sizes (which the
paper assumes are "usually available in the system catalogs").
"""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import CatalogError
from repro.storage.statistics import TableStatistics, build_statistics
from repro.storage.table import Table

__all__ = ["Catalog"]


class Catalog:
    """A registry of named tables plus per-table statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, TableStatistics] = {}
        # Bumped by register / drop / analyze: tables are immutable, so a
        # plan compiled at one version stays valid until it moves.
        self.version = 0

    def register(self, table: Table, analyze: bool = True, **analyze_kwargs) -> Table:
        """Register ``table`` under its name; optionally collect statistics.

        Re-registering a name replaces the table and invalidates its stats.
        """
        self._tables[table.name] = table
        self._statistics.pop(table.name, None)
        self.version += 1
        if analyze:
            self.analyze(table.name, **analyze_kwargs)
        return table

    def drop(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]
        self._statistics.pop(name, None)
        self.version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            known = sorted(self._tables)
            raise CatalogError(f"unknown table {name!r}; catalog has {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def analyze(self, name: str, **kwargs) -> TableStatistics:
        """(Re)collect statistics for a registered table."""
        stats = build_statistics(self.table(name), **kwargs)
        self._statistics[name] = stats
        self.version += 1
        return stats

    def statistics(self, name: str) -> TableStatistics:
        # A first, lazy collection does not move the version: every reader
        # would have collected the same statistics.
        if name not in self._statistics:
            self._statistics[name] = build_statistics(self.table(name))
        return self._statistics[name]

    def row_count(self, name: str) -> int:
        return self.table(name).num_rows
