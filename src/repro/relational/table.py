"""Tables, columns and constraints for the simulated relational engine."""

from __future__ import annotations

import threading
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import SQLError

#: SQL type name -> (python check, xs: type for the XML-ification)
SQL_TO_XS = {
    "VARCHAR": "xs:string",
    "CHAR": "xs:string",
    "INTEGER": "xs:int",
    "BIGINT": "xs:long",
    "SMALLINT": "xs:short",
    "DECIMAL": "xs:decimal",
    "FLOAT": "xs:double",
    "DOUBLE": "xs:double",
    "BOOLEAN": "xs:boolean",
    "DATE": "xs:date",
    "TIMESTAMP": "xs:dateTime",
}


@dataclass(frozen=True)
class Column:
    name: str
    sql_type: str = "VARCHAR"
    nullable: bool = True

    @property
    def xs_type(self) -> str:
        return SQL_TO_XS.get(self.sql_type.upper(), "xs:string")

    def check(self, value) -> object:
        if value is None:
            if not self.nullable:
                raise SQLError(f"column {self.name} is NOT NULL")
            return None
        sql_type = self.sql_type.upper()
        if sql_type in ("INTEGER", "BIGINT", "SMALLINT"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SQLError(f"column {self.name}: expected integer, got {value!r}")
        elif sql_type in ("FLOAT", "DOUBLE", "DECIMAL"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SQLError(f"column {self.name}: expected number, got {value!r}")
        elif sql_type == "BOOLEAN":
            if not isinstance(value, bool):
                raise SQLError(f"column {self.name}: expected boolean, got {value!r}")
        elif sql_type in ("VARCHAR", "CHAR", "DATE", "TIMESTAMP"):
            if not isinstance(value, str):
                raise SQLError(f"column {self.name}: expected string, got {value!r}")
        return value


@dataclass(frozen=True)
class ForeignKey:
    """``columns`` of this table reference ``ref_columns`` of ``ref_table``.

    Introspection (section 2.1) turns these into navigation functions that
    encapsulate the join path."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


class Table:
    """An in-memory table with primary-key enforcement and hash indexes.

    Access paths: the executor answers equality, ``IN`` and
    OR-of-equalities predicates through :meth:`lookup`.  A single-column
    primary key is answered from the PK index (``_pk_index``, always
    maintained: it also enforces uniqueness); any other column from a
    per-column hash index built on its first probe.  Both map a value to
    row positions in table order.

    Index maintenance: :meth:`insert` appends the new position to every
    built index; :meth:`update_at` moves the position between buckets of
    the indexed columns whose value changed; :meth:`delete_at`,
    :meth:`delete_positions` and :meth:`restore` (transaction rollback)
    shift positions, so they drop the built column indexes, which the next
    probe rebuilds.

    Thread-safety: every mutator, every probe and the lazy index build run
    under ``_lock``, so a probe never pairs an index with rows it was not
    built from.  A build fills a local dict and publishes it with one
    assignment to ``_indexes``: a reader of ``_indexes`` sees either no
    index for a column or a complete one.  Scans read ``rows`` without the
    lock; they see each row as it was before or after a concurrent write.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ):
        self.name = name
        self.columns = list(columns)
        self._column_index = {c.name: c for c in self.columns}
        if len(self._column_index) != len(self.columns):
            raise SQLError(f"table {name}: duplicate column names")
        #: the column names, shared by every compiled statement's scope
        self.column_set = frozenset(self._column_index)
        for key_col in primary_key:
            if key_col not in self._column_index:
                raise SQLError(f"table {name}: primary key column {key_col} not found")
        self.primary_key = tuple(primary_key)
        self.foreign_keys = list(foreign_keys)
        self.rows: list[dict] = []
        self._pk_index: dict[tuple, int] = {}
        #: the column a single-column primary key indexes (None otherwise)
        self.pk_column = self.primary_key[0] if len(self.primary_key) == 1 else None
        #: column -> value -> ascending row positions, built on first probe
        self._indexes: dict[str, dict[object, list[int]]] = {}
        self._lock = threading.Lock()

    # -- schema ---------------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._column_index[name]
        except KeyError:
            raise SQLError(f"table {self.name}: no column {name}") from None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name in self._column_index

    # -- data -----------------------------------------------------------------

    def _pk_of(self, row: dict) -> tuple | None:
        if not self.primary_key:
            return None
        return tuple(row.get(c) for c in self.primary_key)

    def insert(self, values: dict) -> dict:
        row = {}
        for column in self.columns:
            row[column.name] = column.check(values.get(column.name))
        unknown = set(values) - set(self._column_index)
        if unknown:
            raise SQLError(f"table {self.name}: unknown columns {sorted(unknown)}")
        pk = self._pk_of(row)
        if pk is not None and any(v is None for v in pk):
            raise SQLError(f"table {self.name}: NULL in primary key")
        with self._lock:
            if pk is not None:
                if pk in self._pk_index:
                    raise SQLError(f"table {self.name}: duplicate primary key {pk}")
                self._pk_index[pk] = len(self.rows)
            position = len(self.rows)
            self.rows.append(row)
            for column, index in list(self._indexes.items()):
                self._index_add(column, index, row[column], position)
        return row

    def delete_at(self, index: int) -> dict:
        with self._lock:
            row = self.rows.pop(index)
            self._positions_shifted()
        return row

    def delete_positions(self, positions: Iterable[int]) -> None:
        """Remove the rows at ``positions`` (one pass, order kept)."""
        doomed = set(positions)
        if not doomed:
            return
        with self._lock:
            self.rows = [row for i, row in enumerate(self.rows) if i not in doomed]
            self._positions_shifted()

    def update_at(self, index: int, changes: dict) -> dict:
        row = dict(self.rows[index])
        for name, value in changes.items():
            row[name] = self.column(name).check(value)
        with self._lock:
            old = self.rows[index]
            old_pk = self._pk_of(old)
            new_pk = self._pk_of(row)
            if new_pk != old_pk:
                if new_pk in self._pk_index:
                    raise SQLError(f"table {self.name}: duplicate primary key {new_pk}")
                del self._pk_index[old_pk]  # type: ignore[arg-type]
                self._pk_index[new_pk] = index  # type: ignore[index]
            self.rows[index] = row
            for column, built in list(self._indexes.items()):
                before, after = old[column], row[column]
                if before is after or before == after:
                    continue
                bucket = built.get(before)
                if bucket is not None:
                    bucket.remove(index)
                    if not bucket:
                        del built[before]
                self._index_add(column, built, after, index)
        return row

    def lookup_pk(self, key: tuple) -> dict | None:
        with self._lock:
            index = self._pk_index.get(key)
            return self.rows[index] if index is not None else None

    def pk_position(self, key: tuple) -> int | None:
        """The row position holding primary key ``key``, or None."""
        with self._lock:
            return self._pk_index.get(key)

    def lookup(self, column: str, keys: Sequence) -> tuple[list[int], list[dict]] | None:
        """Positions and rows, in table order, whose ``column`` equals one of
        ``keys`` (hashable, non-NULL values; duplicates allowed).

        Hash equality agrees with SQL ``=`` for strings and numbers, which
        is what the executor passes.  None when the column holds an
        unhashable value and so cannot be indexed: the caller scans."""
        with self._lock:
            rows = self.rows
            if column == self.pk_column:
                pk_index = self._pk_index
                positions = [p for p in (pk_index.get((key,)) for key in keys)
                             if p is not None]
            else:
                index = self._indexes.get(column)
                if index is None:
                    index = self._build_index(column)
                    if index is None:
                        return None
                if len(keys) == 1:
                    positions = list(index.get(keys[0], ()))
                else:
                    positions = []
                    for key in keys:
                        positions.extend(index.get(key, ()))
            if len(keys) > 1:
                positions = sorted(set(positions))
            return positions, [rows[p] for p in positions]

    def _build_index(self, column: str) -> dict | None:  # caller-holds: _lock
        built: dict[object, list[int]] = {}
        try:
            for position, row in enumerate(self.rows):
                value = row[column]
                bucket = built.get(value)
                if bucket is None:
                    built[value] = [position]
                else:
                    bucket.append(position)
        except TypeError:
            return None
        self._indexes = {**self._indexes, column: built}
        return built

    def _index_add(self, column: str, built: dict, value, position: int) -> None:  # caller-holds: _lock
        try:
            bucket = built.get(value)
        except TypeError:  # an unhashable value: this column cannot be indexed
            self._indexes = {c: i for c, i in self._indexes.items() if c != column}
            return
        if bucket is None:
            built[value] = [position]
        elif bucket[-1] < position:
            bucket.append(position)
        else:
            insort(bucket, position)

    def _positions_shifted(self) -> None:  # caller-holds: _lock
        self._indexes = {}
        if self.primary_key:
            self._pk_index = {
                self._pk_of(row): i for i, row in enumerate(self.rows)  # type: ignore[misc]
            }

    def snapshot(self) -> list[dict]:
        return [dict(row) for row in self.rows]

    def restore(self, rows: Iterable[dict]) -> None:
        fresh = [dict(row) for row in rows]
        with self._lock:
            self.rows = fresh
            self._positions_shifted()

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self.rows)} rows)"
