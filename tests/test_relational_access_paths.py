"""Index access paths in the simulated relational engine.

* index maintenance: inserts, updates (PK-changing or not), deletes and
  transaction rollbacks interleaved with equality / IN / OR-of-equality
  probes, each probe checked against a pure-Python scan of ``table.rows``;
* ``rows_examined``: a deterministic count of the rows the access paths
  read, on ``SourceStats``, in the metrics snapshot and on every
  ``source.roundtrip`` span — point lookups and PP-k blocks read only
  their matched rows, whatever the table size.
"""

import random

import pytest

from repro.demo import build_demo_platform
from repro.relational import Column, Connection, Database, Table

_SELECT = 'SELECT t."ID" AS id, t."GRP" AS grp, t."NAME" AS name FROM "T" t WHERE '


def _database() -> Database:
    db = Database("idx")
    db.create_table("T", [("ID", "INTEGER", False), ("GRP", "INTEGER"),
                          ("NAME", "VARCHAR")], primary_key=["ID"])
    return db


def _project(rows):
    return [{"id": r["ID"], "grp": r["GRP"], "name": r["NAME"]} for r in rows]


class _Harness:
    """Drives one table through SQL and checks probes against a scan."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.db = _database()
        self.table = self.db.table("T")
        self.conn = Connection(self.db)
        self.next_id = 0

    def fresh_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def some_id(self) -> int:
        rows = self.table.rows
        return self.rng.choice(rows)["ID"] if rows else 0

    def group(self):
        return self.rng.choice([None, 0, 1, 2, 3])

    # -- mutations -----------------------------------------------------------

    def insert(self) -> None:
        self.conn.execute_update(
            'INSERT INTO "T" ("ID", "GRP", "NAME") VALUES (?, ?, ?)',
            [self.fresh_id(), self.group(), self.rng.choice("abc")])

    def update_group(self) -> None:
        self.conn.execute_update('UPDATE "T" SET "GRP" = ? WHERE "ID" = ?',
                                 [self.group(), self.some_id()])

    def update_name_by_group(self) -> None:
        self.conn.execute_update('UPDATE "T" SET "NAME" = ? WHERE "GRP" = ?',
                                 [self.rng.choice("xyz"), self.group()])

    def update_pk(self) -> None:
        self.conn.execute_update('UPDATE "T" SET "ID" = ? WHERE "ID" = ?',
                                 [self.fresh_id(), self.some_id()])

    def delete(self) -> None:
        if self.rng.random() < 0.5:
            self.conn.execute_update('DELETE FROM "T" WHERE "ID" = ?', [self.some_id()])
        else:
            self.conn.execute_update('DELETE FROM "T" WHERE "GRP" = ?', [self.group()])

    def rolled_back_transaction(self) -> None:
        before = [dict(r) for r in self.table.rows]
        txn = self.conn.begin()
        for step in (self.insert, self.update_pk, self.update_group, self.delete):
            step()
        txn.rollback()
        self.conn.end()
        assert self.table.rows == before

    # -- probes --------------------------------------------------------------

    def check(self, where: str, params: list, keep) -> None:
        examined = self.db.stats.rows_examined
        got = self.conn.execute_query(_SELECT + where, params)
        expected = _project([r for r in self.table.rows if keep(r)])
        assert got == expected, where
        # the probe read only its matches: no scan happened
        assert self.db.stats.rows_examined - examined == len(expected), where

    def probe(self) -> None:
        g1, g2 = self.group(), self.group()
        pk = self.some_id()
        self.check('t."GRP" = ?', [g1],
                   lambda r: g1 is not None and r["GRP"] == g1)
        self.check('? = t."GRP"', [g1],
                   lambda r: g1 is not None and r["GRP"] == g1)
        self.check('t."ID" = ?', [pk], lambda r: r["ID"] == pk)
        self.check('t."GRP" IN (?, ?, NULL)', [g1, g2],
                   lambda r: r["GRP"] is not None and r["GRP"] in (g1, g2))
        self.check('(t."GRP" = ?) OR (t."GRP" = ?) OR (t."GRP" = NULL)', [g1, g2],
                   lambda r: r["GRP"] is not None and r["GRP"] in (g1, g2))
        self.check('(t."ID" = ?) OR (t."ID" = ?) OR (t."ID" = 2)', [pk, float(pk)],
                   lambda r: r["ID"] in (pk, 2))
        # 1, 1.0 and True are one value under SQL '='; so under the index
        self.check('(t."GRP" = ?) OR (t."GRP" = ?) OR (t."GRP" = 1)', [True, 1.0],
                   lambda r: r["GRP"] == 1)


@pytest.mark.parametrize("seed", range(6))
def test_index_maintenance_matches_a_scan(seed):
    h = _Harness(seed)
    for _ in range(12):
        h.insert()
    steps = [h.insert, h.update_group, h.update_name_by_group, h.update_pk,
             h.delete, h.rolled_back_transaction]
    for _ in range(60):
        h.rng.choice(steps)()
        h.probe()


class TestTableIndexes:
    def make(self) -> Table:
        t = Table("T", [Column("ID", "INTEGER", nullable=False), Column("G", "INTEGER")],
                  primary_key=["ID"])
        for i, g in enumerate([1, 2, 1, None, 2]):
            t.insert({"ID": i, "G": g})
        return t

    def test_probe_builds_an_index_lazily_and_inserts_maintain_it(self):
        t = self.make()
        assert "G" not in t._indexes
        assert t.lookup("G", [1])[0] == [0, 2]
        assert t._indexes["G"][1] == [0, 2]
        t.insert({"ID": 9, "G": 1})
        assert t._indexes["G"][1] == [0, 2, 5]

    def test_update_moves_only_changed_indexed_columns(self):
        t = self.make()
        t.lookup("G", [1])
        t.update_at(4, {"G": 1})
        assert t._indexes["G"][1] == [0, 2, 4]
        assert t._indexes["G"][2] == [1]
        t.update_at(0, {"ID": 42})  # PK change: the PK index follows
        assert t.pk_position((42,)) == 0 and t.pk_position((0,)) is None
        assert t.lookup("ID", [42])[1] == [t.rows[0]]

    def test_deletes_and_restore_drop_built_indexes(self):
        t = self.make()
        t.lookup("G", [1])
        t.delete_at(0)
        assert t._indexes == {}
        assert t.lookup("G", [1])[0] == [1]
        t.restore([{"ID": 7, "G": 1}])
        assert t._indexes == {}
        assert t.lookup("G", [1]) == ([0], [{"ID": 7, "G": 1}])
        assert t.pk_position((7,)) == 0

    def test_keys_in_table_order_without_duplicates(self):
        t = self.make()
        assert t.lookup("G", [2, 1, 2.0])[0] == [0, 1, 2, 4]
        assert t.lookup("ID", [3, 1, 1])[0] == [1, 3]


# ---------------------------------------------------------------------------
# rows_examined: deterministic, and independent of table size for probes
# ---------------------------------------------------------------------------


def _examined(platform) -> dict:
    snapshot = platform.metrics_snapshot()
    return {name: snapshot[f"source.rows_examined{{source={name}}}"]
            for name in ("custdb", "ccdb")}


def test_point_lookup_examines_the_same_rows_at_any_scale():
    counts = []
    for customers in (50, 800):
        platform = build_demo_platform(customers=customers)
        platform.reset_stats()
        platform.execute('getProfileByID("C7")')
        counts.append(_examined(platform))
    assert counts[0] == counts[1]
    # one CUSTOMER row by key, its 3 orders and its card
    assert counts[0] == {"custdb": 4, "ccdb": 1}


def test_every_ppk_block_examines_only_its_matched_rows():
    platform = build_demo_platform(customers=60)
    platform.set_tracing(True)
    platform.execute("getProfile()")
    fetches = [span for span in _walk(platform.last_trace) if span.kind == "ppk.fetch"]
    assert fetches
    for fetch in fetches:
        [roundtrip] = [c for c in _walk(fetch) if c.kind == "source.roundtrip"]
        assert roundtrip.attrs["examined"] == roundtrip.attrs["rows"] > 0
    # the outer CUSTOMER scan is a scan: it reads every row
    scans = [span for span in _walk(platform.last_trace)
             if span.kind == "source.roundtrip" and span.attrs.get("rows") == 60]
    assert scans and all(span.attrs["examined"] == 60 for span in scans)


def test_profile_shows_rows_examined_next_to_roundtrips():
    platform = build_demo_platform(customers=8)
    text = platform.profile('getProfileByID("C2")').text
    assert "roundtrips=1, examined=1" in text  # the CUSTOMER lookup by key
    assert "examined=3" in text  # PP-k over ORDER: C2's three orders


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
