"""SQL execution over the simulated database.

Implements enough of SQL semantics to run every statement the pushdown
framework generates (Tables 1 and 2 of the paper) plus the DML the update
decomposer emits: joins and left outer joins (preserving left-branch order,
which is what keeps pushed outer joins *clustered* on the outer key — the
property ALDSP's streaming group-by relies on, section 4.2), grouping and
aggregates, DISTINCT, CASE, EXISTS, IN, LIKE, ROWNUM / ROW_NUMBER() OVER
pagination, positional parameters, and three-valued NULL logic.

Statements are compiled once into closures (:func:`compile_statement`);
a :class:`~repro.relational.prepared.PreparedStatement` keeps its plan, a
bare :class:`Executor` compiles on the fly.  Column references are
resolved at compile time to a (scope depth, slot) pair, so evaluating one
is two indexings, not a walk over name bindings.

Access paths: a WHERE conjunct of the form ``col = k``, ``col IN (k, ...)``
or an OR of those on one column — PP-k's block predicate — where every
``k`` is a literal, a parameter or an outer-scope column, is answered from
the table's hash index instead of a scan (:meth:`Table.lookup`), for any
table whose rows the conjunct may filter before the join (a top-level FROM
table or a preserved side of a join).  The index returns rows in table
order, so results are the scan's, row for row.  When every key is a string
or number, hash equality is SQL ``=`` exactly and the conjunct is dropped
from the residual predicate; otherwise the path scans and the whole WHERE
applies.  UPDATE and DELETE use the same paths.  ``Executor.examined`` counts
the rows the access paths read (scanned, or fetched from an index).
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Callable, Optional, Sequence

from ..errors import SQLError
from ..sql.ast_nodes import (
    AggCall,
    BinOp,
    CaseExpr,
    ColumnRef,
    Delete,
    ExistsExpr,
    FromItem,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Join,
    NotExpr,
    Param,
    RowNumberOver,
    RowNumExpr,
    ScalarSubquery,
    Select,
    SelectItem,
    SqlExpr,
    SqlLiteral,
    SubqueryRef,
    TableRef,
    Update,
)
from .database import Database
from .table import Table

#: a compiled expression: env -> value (None is SQL NULL)
ExprFn = Callable[["_Env"], object]
#: a compiled statement: executor -> rows (SELECT) or affected count (DML)
Plan = Callable[["Executor"], "list[dict] | int"]

#: key types whose hash equality is exactly SQL ``=`` (NaN excluded)
_INDEXABLE_KEYS = (str, int, float)


class _Env:
    """One runtime scope level: the row bound to each slot of the
    compile-time :class:`_Scope`, the enclosing level (correlated
    subqueries, join conditions) and the executing :class:`Executor`."""

    __slots__ = ("rows", "outer", "run", "rownum", "group")

    def __init__(self, rows: tuple, outer: "Optional[_Env]", run: "Executor"):
        self.rows = rows
        self.outer = outer
        self.run = run
        #: output position, set while projecting (ROWNUM, ROW_NUMBER())
        self.rownum: int | None = None
        #: the member envs when this env stands for a group (aggregates)
        self.group: list[_Env] | None = None


class _Scope:
    """Compile-time mirror of one :class:`_Env` level: each slot's alias
    and column names, and the enclosing level."""

    __slots__ = ("slots", "outer", "by_alias")

    def __init__(self, slots: list[tuple[str, frozenset]], outer: "Optional[_Scope]"):
        self.slots = slots
        self.outer = outer
        #: alias -> slot; a repeated alias binds its last occurrence but
        #: keeps its first position (dict-merge semantics of SQL scoping)
        self.by_alias: dict[str, int] = {}
        for slot, (alias, _columns) in enumerate(slots):
            self.by_alias[alias] = slot

    def local(self, table: Optional[str], column: str) -> int | None:
        if table is not None:
            slot = self.by_alias.get(table)
            if slot is not None and column in self.slots[slot][1]:
                return slot
            return None
        for slot in self.by_alias.values():
            if column in self.slots[slot][1]:
                return slot
        return None

    def resolve(self, table: Optional[str], column: str) -> tuple[int, int] | None:
        """(depth, slot) of a column reference, innermost scope first."""
        scope: Optional[_Scope] = self
        depth = 0
        while scope is not None:
            slot = scope.local(table, column)
            if slot is not None:
                return depth, slot
            scope = scope.outer
            depth += 1
        return None


class _IndexPath:
    """An index conjunct for one table slot: ``column`` equals one of the
    keys (compiled against the select's outer scope)."""

    __slots__ = ("column", "keys", "conjunct")

    def __init__(self, column: str, keys: list[ExprFn], conjunct: SqlExpr):
        self.column = column
        self.keys = keys
        self.conjunct = conjunct


class Executor:
    """Runs one statement.  ``tables`` are pre-resolved at prepare time
    (see relational.prepared); names outside that set fall back to the
    live catalog.  ``plan`` is the statement's compiled form when the
    caller has one cached; otherwise :meth:`execute` compiles."""

    def __init__(self, database: Database, params: Sequence | None = None,
                 tables: dict | None = None, plan: Plan | None = None):
        self.db = database
        self.params = list(params or [])
        self._tables = tables or {}
        self._plan = plan
        #: rows read by access paths (scanned, or fetched from an index)
        self.examined = 0

    def _table(self, name: str) -> Table:
        table = self._tables.get(name)
        return table if table is not None else self.db.table(name)

    def execute(self, stmt) -> list[dict] | int:
        """Execute a statement.  SELECT returns rows (alias -> value);
        DML returns the affected-row count."""
        plan = self._plan if self._plan is not None else compile_statement(stmt, self._table)
        return plan(self)


def compile_statement(stmt, resolve_table: Callable[[str], Table]) -> Plan:
    """Compile a parsed statement into a reusable plan.  ``resolve_table``
    maps the FROM/DML table names to tables; subqueries in expressions are
    compiled on their first evaluation, against the executor's tables."""
    compiler = _Compiler(resolve_table)
    if isinstance(stmt, Select):
        runner = compiler.select(stmt, None)
        return lambda run: runner(run, None)
    if isinstance(stmt, Insert):
        return compiler.insert(stmt)
    if isinstance(stmt, Update):
        return compiler.update(stmt)
    if isinstance(stmt, Delete):
        return compiler.delete(stmt)
    name = type(stmt).__name__

    def fail(run):
        raise SQLError(f"cannot execute {name}")

    return fail


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, resolve_table: Callable[[str], Table]):
        self.resolve_table = resolve_table

    # -- SELECT -----------------------------------------------------------------

    def select(self, stmt: Select, outer: Optional[_Scope]):
        """A runner ``(executor, outer_env) -> list[dict]``."""
        conjuncts = _conjuncts(stmt.where)
        scope, source, paths = self._from(stmt.from_items, outer, conjuncts)
        where, residual = self._where(conjuncts, scope, paths)

        aliases = _output_aliases(stmt.items)
        window = _find_window(stmt.items)
        aggregated = bool(stmt.group_by) or any(
            _contains_aggregate(item.expr) for item in stmt.items)
        if aggregated:
            shape = self._aggregate(stmt, scope, aliases, window)
        else:
            shape = self._project(stmt, scope, aliases, window)
        order = self._order(stmt, scope, aliases) if stmt.order_by else None
        distinct = stmt.distinct
        fetch = stmt.fetch

        def run_select(run: Executor, outer_env: Optional[_Env]) -> list[dict]:
            envs, proved = source(run, outer_env)
            keep = residual if proved else where
            if keep is not None:
                envs = [env for env in envs if keep(env)]
            pairs = shape(run, outer_env, envs)
            if distinct:
                seen: set[tuple] = set()
                unique = []
                for pair in pairs:
                    key = tuple(sorted(pair[0].items()))
                    if key not in seen:
                        seen.add(key)
                        unique.append(pair)
                pairs = unique
            if order is not None:
                pairs = sorted(pairs, key=order)
            result = [row for row, _env in pairs]
            if fetch is not None:
                offset, count = fetch
                lo = max(0, offset - 1)
                result = result[lo:] if count is None else result[lo : max(lo, offset - 1 + count)]
            return result

        return run_select

    def _project(self, stmt: Select, scope: _Scope, aliases: list[str], window):
        items = [(alias, self._expr(item.expr, scope, in_list=True))
                 for alias, item in zip(aliases, stmt.items)]
        window_key = None
        if window is not None:
            window_key = self._sort_key(
                [(self._expr(o.expr, scope), o.descending) for o in window.order_by])

        # A list of plain local columns (the shape pushdown emits) reads
        # the bound rows directly instead of calling a closure per column.
        refs = [(alias, scope.resolve(item.expr.table, item.expr.column))
                for alias, item in zip(aliases, stmt.items)
                if isinstance(item.expr, ColumnRef)]
        columns = None
        if len(refs) == len(items) and all(
                found is not None and found[0] == 0 for _alias, found in refs):
            columns = [(alias, found[1], item.expr.column)  # type: ignore[index]
                       for (alias, found), item in zip(refs, stmt.items)]

        def project(run, outer_env, envs: list[_Env]):
            if window_key is not None:
                envs = sorted(envs, key=window_key)
            pairs = []
            for position, env in enumerate(envs, start=1):
                env.rownum = position
                if columns is not None:
                    bound = env.rows
                    row = {alias: bound[slot][column] for alias, slot, column in columns}
                else:
                    row = {alias: fn(env) for alias, fn in items}
                pairs.append((row, env))
            return pairs

        return project

    def _aggregate(self, stmt: Select, scope: _Scope, aliases: list[str], window):
        group_fns = [self._expr(expr, scope) for expr in stmt.group_by]
        having = self._pred(stmt.having, scope) if stmt.having is not None else None
        items = [(alias, None if isinstance(item.expr, RowNumberOver)
                  else self._expr(item.expr, scope))
                 for alias, item in zip(aliases, stmt.items)]
        window_alias = None
        window_key = None
        if window is not None:
            for alias, item in zip(aliases, stmt.items):
                if item.expr is window:
                    window_alias = alias
            key = self._sort_key(
                [(self._expr(o.expr, scope), o.descending) for o in window.order_by])
            window_key = lambda pair: key(pair[1])  # noqa: E731
        nulls = tuple({column: None for column in columns} for _alias, columns in scope.slots)

        def aggregate(run, outer_env, envs: list[_Env]):
            if group_fns:
                groups: dict[tuple, list[_Env]] = {}
                for env in envs:
                    key = tuple(fn(env) for fn in group_fns)
                    members = groups.get(key)
                    if members is None:
                        groups[key] = [env]
                    else:
                        members.append(env)
                grouped = list(groups.values())
            else:
                grouped = [envs]
            pairs = []
            for group in grouped:
                first = group[0] if group else None
                genv = (_Env(first.rows, first.outer, run) if first is not None
                        else _Env(nulls, outer_env, run))
                genv.group = group
                if having is not None and not having(genv):
                    continue
                row = {alias: None if fn is None else fn(genv) for alias, fn in items}
                pairs.append((row, genv))
            if window_key is not None and window_alias is not None:
                pairs.sort(key=window_key)
                for position, (row, _env) in enumerate(pairs, start=1):
                    row[window_alias] = position
            return pairs

        return aggregate

    def _order(self, stmt: Select, scope: _Scope, aliases: list[str]):
        """Sort key over (row, env) pairs.  ORDER BY may name an output
        alias (unless qualified by a FROM alias) or a source expression."""
        output = set(aliases)
        local = set(scope.by_alias)
        keys = []
        for item in stmt.order_by:
            expr = item.expr
            if isinstance(expr, ColumnRef) and expr.column in output and (
                expr.table is None or expr.table not in local
            ):
                column = expr.column
                keys.append((lambda pair, column=column: pair[0][column], item.descending))
            else:
                fn = self._expr(expr, scope)
                keys.append((lambda pair, fn=fn: fn(pair[1]), item.descending))
        return self._sort_key(keys)

    @staticmethod
    def _sort_key(keys: list[tuple[Callable, bool]]):
        # NULLs sort first ascending / last descending (stable rule).
        return lambda entry: [_NullKey(fn(entry), descending) for fn, descending in keys]

    # -- FROM ------------------------------------------------------------------

    def _from(self, items: list[FromItem], outer: Optional[_Scope],
              conjuncts: list[SqlExpr]):
        """(scope, source, index paths): the FROM scope and a source
        ``(executor, outer_env) -> (envs, proved)``; ``proved`` is False
        when an index conjunct fell back to a scan, so the whole WHERE
        must apply."""
        slots: list[tuple[str, frozenset]] = []
        tables: dict[int, Table] = {}
        preserved: list[int] = []
        laid_out = []
        for item in items:
            partial = _Scope(list(slots), outer)
            base = len(slots)
            self._layout(item, slots, tables, preserved, True)
            laid_out.append((item, partial, base))
        scope = _Scope(slots, outer)
        key_scope = _Scope([], outer)
        paths = self._choose_paths(conjuncts, scope, key_scope, tables, preserved)
        producers = [self._producer(item, partial, base, tables, paths)
                     for item, partial, base in laid_out]

        def source(run: Executor, outer_env: Optional[_Env]):
            combos: list[tuple] = [()]
            proved = True
            for producer, independent in producers:
                if not combos:
                    break
                if independent:
                    rows, ok = producer(run, None, outer_env)
                    proved = proved and ok
                    if combos == [()]:
                        combos = rows
                    else:
                        combos = [combo + row for combo in combos for row in rows]
                    continue
                expanded = []
                for combo in combos:
                    rows, ok = producer(run, _Env(combo, outer_env, run), outer_env)
                    proved = proved and ok
                    expanded.extend(combo + row for row in rows)
                combos = expanded
            return [_Env(combo, outer_env, run) for combo in combos], proved

        return scope, source, list(paths.values())

    def _layout(self, item: FromItem, slots: list, tables: dict,
                preserved: list, keep: bool) -> None:
        """Assign slots to a FROM item's aliases (left to right).  A table
        is *preserved* when no outer join null-extends it, so a WHERE
        conjunct on it alone may filter its rows before the join."""
        if isinstance(item, TableRef):
            table = self.resolve_table(item.name)
            if keep:
                preserved.append(len(slots))
            tables[len(slots)] = table
            slots.append((item.alias, table.column_set))
        elif isinstance(item, SubqueryRef):
            slots.append((item.alias, frozenset(_output_aliases(item.subquery.items))))
        elif isinstance(item, Join):
            self._layout(item.left, slots, tables, preserved, keep)
            self._layout(item.right, slots, tables, preserved, keep and item.kind != "left")
        else:
            raise SQLError(f"cannot evaluate FROM item {type(item).__name__}")

    def _producer(self, item: FromItem, partial: _Scope, base: int,
                  tables: dict, paths: dict):
        """(producer, independent): a producer ``(executor, partial_env,
        outer_env) -> (row tuples, proved)`` for one FROM item.  An
        independent producer ignores the partial env (the FROM items to
        its left), so it runs once, not once per left combination."""
        if isinstance(item, TableRef):
            return self._table_access(tables[base], paths.get(base)), True
        if isinstance(item, SubqueryRef):
            runner = self.select(item.subquery, partial)

            def subquery(run, partial_env, outer_env):
                return [(row,) for row in runner(run, partial_env)], True

            return subquery, False
        if isinstance(item, Join):
            return self._join(item, partial, base, tables, paths), False
        raise SQLError(f"cannot evaluate FROM item {type(item).__name__}")

    def _join(self, join: Join, partial: _Scope, base: int, tables: dict, paths: dict):
        """Left-order-preserving join: for each left binding, all matching
        right bindings are emitted contiguously.  This is what keeps pushed
        outer joins clustered on the outer key."""
        left_slots: list = []
        self._layout(join.left, left_slots, {}, [], False)
        right_slots: list = []
        self._layout(join.right, right_slots, {}, [], False)
        left, _ = self._producer(join.left, partial, base, tables, paths)
        right, _ = self._producer(join.right, partial, base + len(left_slots), tables, paths)
        condition = None
        if join.condition is not None:
            condition = self._pred(join.condition, _Scope(left_slots + right_slots, partial))
        nulls = tuple({column: None for column in columns} for _alias, columns in right_slots)
        outer_join = join.kind == "left"

        def run_join(run, partial_env, outer_env):
            if partial_env is None:
                partial_env = _Env((), outer_env, run)
            left_rows, left_ok = left(run, partial_env, outer_env)
            right_rows, right_ok = right(run, partial_env, outer_env)
            out = []
            for lrow in left_rows:
                matched = False
                for rrow in right_rows:
                    merged = lrow + rrow
                    if condition is None or condition(_Env(merged, partial_env, run)):
                        matched = True
                        out.append(merged)
                if not matched and outer_join:
                    out.append(lrow + nulls)
            return out, left_ok and right_ok

        return run_join

    # -- access paths -------------------------------------------------------------

    def _choose_paths(self, conjuncts: list[SqlExpr], scope: _Scope, key_scope: _Scope,
                      tables: dict, preserved: list) -> dict[int, _IndexPath]:
        """One index conjunct per preserved table slot: the first on its
        single-column primary key, else the first on any column."""
        chosen: dict[int, _IndexPath] = {}
        for conjunct in conjuncts:
            found = self._equality_keys(conjunct, scope)
            if found is None:
                continue
            slot, column, key_exprs = found
            if slot not in preserved:
                continue
            current = chosen.get(slot)
            if current is not None and (
                current.column == tables[slot].pk_column
                or column != tables[slot].pk_column
            ):
                continue
            keys = [self._expr(expr, key_scope) for expr in key_exprs]
            chosen[slot] = _IndexPath(column, keys, conjunct)
        return chosen

    def _equality_keys(self, expr: SqlExpr, scope: _Scope):
        """(slot, column, key exprs) when ``expr`` is ``col = k``, ``col IN
        (k, ...)`` or an OR of those on one local column, each ``k`` a
        literal, parameter or outer-scope column; else None."""
        if isinstance(expr, BinOp) and expr.op == "=":
            for col, key in ((expr.left, expr.right), (expr.right, expr.left)):
                target = self._local_column(col, scope)
                if target is not None and self._is_key(key, scope):
                    return target[0], target[1], [key]
            return None
        if isinstance(expr, InList) and not expr.negated:
            target = self._local_column(expr.operand, scope)
            if target is not None and all(self._is_key(v, scope) for v in expr.values):
                return target[0], target[1], list(expr.values)
            return None
        if isinstance(expr, BinOp) and expr.op == "OR":
            left = self._equality_keys(expr.left, scope)
            right = self._equality_keys(expr.right, scope)
            if left is not None and right is not None and left[:2] == right[:2]:
                return left[0], left[1], left[2] + right[2]
        return None

    @staticmethod
    def _local_column(expr: SqlExpr, scope: _Scope) -> tuple[int, str] | None:
        if isinstance(expr, ColumnRef):
            slot = scope.local(expr.table, expr.column)
            if slot is not None:
                return slot, expr.column
        return None

    @staticmethod
    def _is_key(expr: SqlExpr, scope: _Scope) -> bool:
        if isinstance(expr, (SqlLiteral, Param)):
            return True
        if isinstance(expr, ColumnRef):
            found = scope.resolve(expr.table, expr.column)
            return found is not None and found[0] > 0
        return False

    @staticmethod
    def _table_access(table: Table, path: Optional[_IndexPath]):
        """A producer for one table: an index probe when a path was chosen
        and every key is indexable, else a scan."""
        if path is None:
            def scan(run, partial_env, outer_env):
                rows = table.rows
                run.examined += len(rows)
                return [(row,) for row in rows], True

            return scan
        column, key_fns = path.column, path.keys

        def probe(run, partial_env, outer_env):
            rows = table.rows
            if not rows:
                return [], True
            found = _probe(table, column, key_fns, _Env((), outer_env, run))
            if found is None:
                run.examined += len(rows)
                return [(row,) for row in rows], False
            run.examined += len(found[0])
            return [(row,) for row in found[1]], True

        return probe

    # -- DML ---------------------------------------------------------------------------

    def insert(self, stmt: Insert) -> Plan:
        if len(stmt.columns) != len(stmt.values):
            def mismatch(run):
                raise SQLError("INSERT: column/value count mismatch")

            return mismatch
        scope = _Scope([], None)
        values = [(column, self._expr(expr, scope))
                  for column, expr in zip(stmt.columns, stmt.values)]
        name = stmt.table

        def run_insert(run: Executor) -> int:
            env = _Env((), None, run)
            run._table(name).insert({column: fn(env) for column, fn in values})
            return 1

        return run_insert

    def _dml_target(self, name: str, where: Optional[SqlExpr]):
        """(table, scope, candidates): ``candidates(executor)`` returns the
        positions whose row may match and the predicate still to apply."""
        table = self.resolve_table(name)
        scope = _Scope([(name, table.column_set)], None)
        conjuncts = _conjuncts(where)
        paths = self._choose_paths(conjuncts, scope, _Scope([], None), {0: table}, [0])
        full, residual = self._where(conjuncts, scope, list(paths.values()))
        path = paths.get(0)
        if path is None:
            def scan(run: Executor):
                count = len(table.rows)
                run.examined += count
                return range(count), full

            return table, scope, scan
        column, key_fns = path.column, path.keys

        def probe(run: Executor):
            count = len(table.rows)
            if not count:
                return range(0), full
            found = _probe(table, column, key_fns, _Env((), None, run))
            if found is None:
                run.examined += count
                return range(count), full
            run.examined += len(found[0])
            return found[0], residual

        return table, scope, probe

    def update(self, stmt: Update) -> Plan:
        table, scope, candidates = self._dml_target(stmt.table, stmt.where)
        assignments = [(column, self._expr(expr, scope)) for column, expr in stmt.assignments]

        def run_update(run: Executor) -> int:
            positions, keep = candidates(run)
            count = 0
            for index in positions:
                env = _Env((table.rows[index],), None, run)
                if keep is None or keep(env):
                    table.update_at(index, {column: fn(env) for column, fn in assignments})
                    count += 1
            return count

        return run_update

    def delete(self, stmt: Delete) -> Plan:
        table, _scope, candidates = self._dml_target(stmt.table, stmt.where)

        def run_delete(run: Executor) -> int:
            positions, keep = candidates(run)
            rows = table.rows
            doomed = [index for index in positions
                      if keep is None or keep(_Env((rows[index],), None, run))]
            table.delete_positions(doomed)
            return len(doomed)

        return run_delete

    def _where(self, conjuncts: list[SqlExpr], scope: _Scope, paths: list[_IndexPath]):
        """(whole WHERE, residual): the residual leaves out the conjuncts
        the index paths prove; each conjunct compiles once for both."""
        preds = [self._pred(c, scope) for c in conjuncts]
        residual = [pred for conjunct, pred in zip(conjuncts, preds)
                    if not any(conjunct is path.conjunct for path in paths)]
        return _all_of(preds), _all_of(residual)

    # -- expressions -------------------------------------------------------------------

    def _pred(self, expr: SqlExpr, scope: _Scope, in_list: bool = False) -> ExprFn:
        """A closure that is truthy exactly when ``expr`` is SQL-true (so
        AND / OR short-circuit: unknown and false both reject)."""
        if isinstance(expr, BinOp) and expr.op in ("AND", "OR"):
            left = self._pred(expr.left, scope, in_list)
            right = self._pred(expr.right, scope, in_list)
            if expr.op == "AND":
                return lambda env: left(env) and right(env)
            return lambda env: left(env) or right(env)
        if isinstance(expr, BinOp) and expr.op == "=":
            lf = self._expr(expr.left, scope, in_list)
            rf = self._expr(expr.right, scope, in_list)

            def equal(env):
                left = lf(env)
                if left is None:
                    return False
                right = rf(env)
                return right is not None and left == right

            return equal
        if isinstance(expr, NotExpr):
            fn = self._expr(expr.operand, scope, in_list)

            def negation(env):
                value = fn(env)
                return value is not None and not _truth(value)

            return negation
        fn = self._expr(expr, scope, in_list)
        return lambda env: _truth(fn(env))

    def _expr(self, expr: SqlExpr, scope: _Scope, in_list: bool = False) -> ExprFn:
        """Compile a scalar expression.  ``in_list`` is True directly in a
        non-aggregated SELECT list, where ROW_NUMBER() is the position."""
        handler = _EXPR_COMPILERS.get(type(expr))
        if handler is None:
            name = type(expr).__name__

            def unknown(env):
                raise SQLError(f"cannot evaluate {name}")

            return unknown
        return handler(self, expr, scope, in_list)

    def _literal(self, expr: SqlLiteral, scope, in_list) -> ExprFn:
        value = expr.value
        return lambda env: value

    def _param(self, expr: Param, scope, in_list) -> ExprFn:
        index = expr.index

        def param(env):
            try:
                return env.run.params[index]
            except IndexError:
                raise SQLError(f"missing parameter {index + 1}") from None

        return param

    def _column(self, expr: ColumnRef, scope: _Scope, in_list) -> ExprFn:
        found = scope.resolve(expr.table, expr.column)
        column = expr.column
        if found is None:
            name = f"{expr.table + '.' if expr.table else ''}{column}"

            def unknown(env):
                raise SQLError(f"unknown column {name}")

            return unknown
        depth, slot = found
        if depth == 0:
            return lambda env: env.rows[slot][column]
        if depth == 1:
            return lambda env: env.outer.rows[slot][column]

        def outer_column(env):
            for _ in range(depth):
                env = env.outer
            return env.rows[slot][column]

        return outer_column

    def _binop(self, expr: BinOp, scope: _Scope, in_list: bool) -> ExprFn:
        op = expr.op
        lf = self._expr(expr.left, scope, in_list)
        rf = self._expr(expr.right, scope, in_list)
        if op == "AND":
            def conjunction(env):
                left = lf(env)
                lt = None if left is None else _truth(left)
                if lt is False:
                    return False
                right = rf(env)
                rt = None if right is None else _truth(right)
                if rt is False:
                    return False
                return None if lt is None or rt is None else True

            return conjunction
        if op == "OR":
            def disjunction(env):
                left = lf(env)
                lt = None if left is None else _truth(left)
                if lt is True:
                    return True
                right = rf(env)
                rt = None if right is None else _truth(right)
                if rt is True:
                    return True
                return None if lt is None or rt is None else False

            return disjunction
        if op == "||":
            def concat(env):
                left, right = lf(env), rf(env)
                if left is None or right is None:
                    return None
                return str(left) + str(right)

            return concat
        if op == "LIKE":
            def like(env):
                left, right = lf(env), rf(env)
                if left is None or right is None:
                    return None
                return _like_regex(str(right)).fullmatch(str(left)) is not None

            return like
        if op == "/":
            def divide(env):
                left, right = lf(env), rf(env)
                if left is None or right is None:
                    return None
                if right == 0:
                    raise SQLError("division by zero")
                return left / right

            return divide
        binary = _BINARY.get(op)
        if binary is None:
            def unknown(env):
                left, right = lf(env), rf(env)
                if left is None or right is None:
                    return None
                raise SQLError(f"unknown operator {op}")

            return unknown
        ordered = op in ("<", "<=", ">", ">=")

        def apply(env):
            left, right = lf(env), rf(env)
            if left is None or right is None:
                return None
            if ordered:
                _check_comparable(left, right)
            return binary(left, right)

        return apply

    def _not(self, expr: NotExpr, scope, in_list) -> ExprFn:
        fn = self._expr(expr.operand, scope, in_list)

        def negate(env):
            value = fn(env)
            return None if value is None else not _truth(value)

        return negate

    def _is_null(self, expr: IsNull, scope, in_list) -> ExprFn:
        fn = self._expr(expr.operand, scope, in_list)
        if expr.negated:
            return lambda env: fn(env) is not None
        return lambda env: fn(env) is None

    def _in_list(self, expr: InList, scope, in_list) -> ExprFn:
        """``v IN (c, ...)``: true on a match; else unknown if some ``c``
        (or ``v``) is NULL; else false.  NOT IN negates that."""
        fn = self._expr(expr.operand, scope, in_list)
        candidates = [self._expr(v, scope, in_list) for v in expr.values]
        negated = expr.negated

        def member(env):
            value = fn(env)
            if value is None:
                return None
            unknown = False
            for candidate_fn in candidates:
                candidate = candidate_fn(env)
                if candidate is None:
                    unknown = True
                elif candidate == value:
                    return not negated
            return None if unknown else negated

        return member

    def _func(self, expr: FuncCall, scope, in_list) -> ExprFn:
        args = [self._expr(a, scope, in_list) for a in expr.args]
        name = expr.name.upper()
        if name in ("COALESCE", "NVL"):
            def coalesce(env):
                values = [fn(env) for fn in args]
                for value in values:
                    if value is not None:
                        return value
                return None

            return coalesce
        impl = _FUNCTIONS.get(name)
        original = expr.name

        def call(env):
            values = [fn(env) for fn in args]
            if any(value is None for value in values):
                return None
            if impl is None:
                raise SQLError(f"unknown SQL function {original}")
            return impl(values)

        return call

    def _agg(self, expr: AggCall, scope, in_list) -> ExprFn:
        name = expr.name
        arg = self._expr(expr.arg, scope) if expr.arg is not None else None
        distinct = expr.distinct

        def aggregate(env):
            group = env.group
            if group is None:
                raise SQLError(f"aggregate {name} outside grouping context")
            if arg is None:
                if name == "COUNT":
                    return len(group)
                raise SQLError("cannot evaluate NoneType")
            values = []
            for member in group:
                value = arg(member)
                if value is not None:
                    values.append(value)
            if distinct:
                values = list(dict.fromkeys(values))
            if name == "COUNT":
                return len(values)
            if not values:
                return None
            if name == "SUM":
                return sum(values)
            if name == "AVG":
                return sum(values) / len(values)
            if name == "MIN":
                return min(values)
            if name == "MAX":
                return max(values)
            raise SQLError(f"unknown aggregate {name}")

        return aggregate

    def _case(self, expr: CaseExpr, scope, in_list) -> ExprFn:
        whens = [(self._pred(cond, scope, in_list), self._expr(value, scope, in_list))
                 for cond, value in expr.whens]
        default = (self._expr(expr.else_value, scope, in_list)
                   if expr.else_value is not None else None)

        def case(env):
            for condition, value in whens:
                if condition(env):
                    return value(env)
            return default(env) if default is not None else None

        return case

    def _subquery(self, select: Select, scope: _Scope):
        """``plan_of(executor) -> runner``: a subquery inside an expression
        compiles on its first evaluation, so its tables resolve (and a
        missing one fails) only when it runs, as they did uncompiled."""
        cell: list = []

        def plan_of(run: Executor):
            if not cell:
                cell.append(_Compiler(run._table).select(select, scope))
            return cell[0]

        return plan_of

    def _exists(self, expr: ExistsExpr, scope, in_list) -> ExprFn:
        plan_of = self._subquery(expr.subquery, scope)
        negated = expr.negated

        def exists(env):
            found = len(plan_of(env.run)(env.run, env)) > 0
            return (not found) if negated else found

        return exists

    def _scalar(self, expr: ScalarSubquery, scope, in_list) -> ExprFn:
        plan_of = self._subquery(expr.subquery, scope)

        def scalar(env):
            rows = plan_of(env.run)(env.run, env)
            if not rows:
                return None
            if len(rows) > 1:
                raise SQLError("scalar subquery returned more than one row")
            return next(iter(rows[0].values()))

        return scalar

    def _rownum(self, expr: RowNumExpr, scope, in_list) -> ExprFn:
        def rownum(env):
            if env.rownum is None:
                raise SQLError("ROWNUM used outside a SELECT list")
            return env.rownum

        return rownum

    def _row_number(self, expr: RowNumberOver, scope, in_list) -> ExprFn:
        if in_list:
            return lambda env: env.rownum

        def outside(env):
            raise SQLError("ROW_NUMBER() used outside a SELECT list")

        return outside


_EXPR_COMPILERS = {
    SqlLiteral: _Compiler._literal,
    Param: _Compiler._param,
    ColumnRef: _Compiler._column,
    BinOp: _Compiler._binop,
    NotExpr: _Compiler._not,
    IsNull: _Compiler._is_null,
    InList: _Compiler._in_list,
    FuncCall: _Compiler._func,
    AggCall: _Compiler._agg,
    CaseExpr: _Compiler._case,
    ExistsExpr: _Compiler._exists,
    ScalarSubquery: _Compiler._scalar,
    RowNumExpr: _Compiler._rownum,
    RowNumberOver: _Compiler._row_number,
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _probe(table: Table, column: str, key_fns: list[ExprFn], key_env: _Env):
    """Index lookup for one execution: (positions, rows), or None when a
    key is not a string or number (or the column cannot be indexed), in
    which case the caller scans and applies the whole predicate."""
    keys = []
    for fn in key_fns:
        key = fn(key_env)
        if key is None or key != key:  # NULL (or NaN) equals nothing
            continue
        if not isinstance(key, _INDEXABLE_KEYS):
            return None
        keys.append(key)
    if not keys:
        return [], []
    return table.lookup(column, keys)


def _conjuncts(expr: Optional[SqlExpr]) -> list[SqlExpr]:
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _all_of(preds: list[ExprFn]) -> ExprFn | None:
    """The short-circuit AND of compiled predicates, left to right."""
    if not preds:
        return None
    result = preds[0]
    for pred in preds[1:]:
        result = (lambda left, right: lambda env: left(env) and right(env))(result, pred)
    return result


def _truth(value) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise SQLError(f"non-boolean WHERE value {value!r}")


def _output_aliases(items: list[SelectItem]) -> list[str]:
    aliases = []
    for i, item in enumerate(items):
        if item.alias:
            aliases.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            aliases.append(item.expr.column)
        else:
            aliases.append(f"c{i + 1}")
    return aliases


def _contains_aggregate(expr) -> bool:
    if isinstance(expr, AggCall):
        return True
    if isinstance(expr, (ScalarSubquery, ExistsExpr)):
        return False  # aggregates inside subqueries belong to the subquery
    if hasattr(expr, "__dataclass_fields__"):
        for name in expr.__dataclass_fields__:
            value = getattr(expr, name)
            if isinstance(value, (list, tuple)):
                if any(_contains_aggregate(v) for v in value):
                    return True
            elif _contains_aggregate(value):
                return True
    return False


def _find_window(items: list[SelectItem]) -> RowNumberOver | None:
    for item in items:
        if isinstance(item.expr, RowNumberOver):
            return item.expr
    return None


def _check_comparable(left, right) -> None:
    if isinstance(left, str) != isinstance(right, str):
        raise SQLError(f"cannot compare {type(left).__name__} with {type(right).__name__}")


_BINARY = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,  # also SQL Server string '+'
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
}


def _substr(args):
    text = str(args[0])
    lo = max(0, int(args[1]) - 1)
    if len(args) > 2:
        return text[lo : lo + int(args[2])]
    return text[lo:]


def _ceil(args):
    import math

    return math.ceil(args[0])


def _floor(args):
    import math

    return math.floor(args[0])


def _round(args):
    import math

    return math.floor(args[0] + 0.5)


#: scalar SQL functions over their (non-NULL) evaluated arguments
_FUNCTIONS: dict[str, Callable[[list], object]] = {
    "UPPER": lambda args: str(args[0]).upper(),
    "LOWER": lambda args: str(args[0]).lower(),
    "LENGTH": lambda args: len(str(args[0])),
    "LEN": lambda args: len(str(args[0])),
    "SUBSTR": _substr,
    "SUBSTRING": _substr,
    "ABS": lambda args: abs(args[0]),
    "CEIL": _ceil,
    "CEILING": _ceil,
    "FLOOR": _floor,
    "ROUND": _round,
    "CONCAT": lambda args: "".join(str(a) for a in args),
}


class _NullKey:
    """Sort key wrapper implementing NULLS FIRST (asc) and reversal."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_NullKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        if self.descending:
            return b < a
        return a < b

    def __eq__(self, other) -> bool:
        return isinstance(other, _NullKey) and self.value == other.value


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    return re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."))
