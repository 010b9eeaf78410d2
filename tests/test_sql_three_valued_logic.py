"""Differential oracle for the SQL executor: WHERE, UPDATE and DELETE
against a pure-Python Kleene (three-valued) reference, over randomized
rows containing NULLs.

The generated predicates include the shapes the executor answers from an
index — ``col = k`` in either orientation, ``IN`` lists (with NULL
members) and one-column OR-of-equalities, PP-k's block predicate — with
keys mixing ``1`` / ``1.0`` / ``True``, which SQL ``=`` (and so the index)
must treat as one value.  Results are compared as ordered row lists: an
index probe must return rows in table order, exactly as a scan does."""

from hypothesis import given, settings, strategies as st

from repro.relational import Database, Executor
from repro.sql import (
    BinOp,
    ColumnRef,
    Delete,
    InList,
    IsNull,
    NotExpr,
    Param,
    Select,
    SelectItem,
    SqlLiteral,
    TableRef,
    Update,
)

_VALUES = st.one_of(st.none(), st.integers(-3, 3))
_FLOATS = st.sampled_from([None, 0, 1, 1.0, 2.5, -1.0])
_ROWS = st.lists(
    st.tuples(_VALUES, _VALUES, _FLOATS), min_size=0, max_size=8
).map(lambda rows: [{"ID": i, "A": a, "B": b, "F": f}
                    for i, (a, b, f) in enumerate(rows)])
#: key values: equal-under-'=' spellings of 1 and 0, other numbers, NULL
_KEYS = st.sampled_from([None, 0, 1, 1.0, True, False, 2, -1.0, 2.5, 7])
_PARAMS = st.lists(_KEYS, min_size=3, max_size=3)
_COLUMNS = ("ID", "A", "B", "F")


@st.composite
def where_exprs(draw, alias="t", depth=2):
    column = st.sampled_from([ColumnRef(alias, c) for c in _COLUMNS])
    key = st.one_of(_KEYS.map(SqlLiteral), st.integers(0, 2).map(Param))
    operand = st.one_of(column, key)
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
            return BinOp(op, draw(operand), draw(operand))
        if kind == 1:
            return IsNull(draw(operand), draw(st.booleans()))
        if kind == 2:  # literal = column, column = literal
            col, k = draw(column), draw(key)
            return BinOp("=", k, col) if draw(st.booleans()) else BinOp("=", col, k)
        if kind == 3:  # IN list, NULL members allowed
            return InList(draw(column), draw(st.lists(key, min_size=1, max_size=4)),
                          draw(st.booleans()))
        # one-column OR-of-equalities (a PP-k block predicate)
        col = draw(column)
        disjunction = BinOp("=", col, draw(key))
        for k in draw(st.lists(key, min_size=1, max_size=4)):
            disjunction = BinOp("OR", disjunction, BinOp("=", col, k))
        return disjunction
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return BinOp("AND", draw(where_exprs(alias, depth - 1)),
                     draw(where_exprs(alias, depth - 1)))
    if kind == 1:
        return BinOp("OR", draw(where_exprs(alias, depth - 1)),
                     draw(where_exprs(alias, depth - 1)))
    return NotExpr(draw(where_exprs(alias, depth - 1)))


def reference_eval(expr, row, params=()):
    """Kleene three-valued reference semantics: True/False/None."""
    if isinstance(expr, SqlLiteral):
        return expr.value
    if isinstance(expr, Param):
        return params[expr.index]
    if isinstance(expr, ColumnRef):
        return row[expr.column]
    if isinstance(expr, IsNull):
        value = reference_eval(expr.operand, row, params)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, NotExpr):
        inner = reference_eval(expr.operand, row, params)
        return None if inner is None else not inner
    if isinstance(expr, InList):
        # v IN (c1, ...) is the OR of v = ci; NOT IN negates it
        value = reference_eval(expr.operand, row, params)
        result = False
        for candidate in expr.values:
            c = reference_eval(candidate, row, params)
            equal = None if value is None or c is None else value == c
            if equal is True:
                result = True
                break
            if equal is None:
                result = None
        if expr.negated:
            return None if result is None else not result
        return result
    assert isinstance(expr, BinOp)
    if expr.op in ("AND", "OR"):
        left = reference_eval(expr.left, row, params)
        right = reference_eval(expr.right, row, params)
        if expr.op == "AND":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    left = reference_eval(expr.left, row, params)
    right = reference_eval(expr.right, row, params)
    if left is None or right is None:
        return None
    return {
        "=": left == right, "<>": left != right, "<": left < right,
        "<=": left <= right, ">": left > right, ">=": left >= right,
    }[expr.op]


def _database(rows):
    db = Database("p")
    db.create_table("T", [("ID", "INTEGER", False), ("A", "INTEGER"), ("B", "INTEGER"),
                          ("F", "FLOAT")], primary_key=["ID"])
    db.load("T", rows)
    return db


def _select(where):
    return Select(items=[SelectItem(ColumnRef("t", c), c.lower()) for c in _COLUMNS],
                  from_items=[TableRef("T", "t")], where=where)


@settings(max_examples=120, deadline=None)
@given(rows=_ROWS, where=where_exprs())
def test_property_where_matches_kleene_reference(rows, where):
    db = _database(rows)
    stmt = Select(items=[SelectItem(ColumnRef("t", "ID"), "id")],
                  from_items=[TableRef("T", "t")], where=where)
    engine_ids = [row["id"] for row in Executor(db, [1, None, 2]).execute(stmt)]
    # SQL keeps a row iff the predicate is *true* (unknown drops it)
    reference_ids = [
        row["ID"] for row in rows if reference_eval(where, row, [1, None, 2]) is True
    ]
    assert engine_ids == reference_ids


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS, where=where_exprs(), params=_PARAMS)
def test_property_select_rows_in_table_order(rows, where, params):
    db = _database(rows)
    got = Executor(db, params).execute(_select(where))
    expected = [{c.lower(): row[c] for c in _COLUMNS}
                for row in rows if reference_eval(where, row, params) is True]
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(rows=_ROWS, where=where_exprs(alias="T"), params=_PARAMS,
       value=st.one_of(st.none(), st.integers(-3, 3)))
def test_property_update_matches_reference(rows, where, params, value):
    db = _database(rows)
    stmt = Update("T", [("B", SqlLiteral(value))], where)
    count = Executor(db, params).execute(stmt)
    hit = [reference_eval(where, row, params) is True for row in rows]
    expected = [dict(row, B=value) if h else row for row, h in zip(rows, hit)]
    assert count == sum(hit)
    assert db.table("T").rows == expected


@settings(max_examples=120, deadline=None)
@given(rows=_ROWS, where=where_exprs(alias="T"), params=_PARAMS)
def test_property_delete_matches_reference(rows, where, params):
    db = _database(rows)
    count = Executor(db, params).execute(Delete("T", where))
    kept = [row for row in rows if reference_eval(where, row, params) is not True]
    assert count == len(rows) - len(kept)
    assert db.table("T").rows == kept
    # the PK index follows the surviving rows
    assert [db.table("T").pk_position((row["ID"],)) for row in kept] == list(range(len(kept)))
