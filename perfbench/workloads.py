"""The three workloads: seeded data, the op sequence, set-up and oracles.

Each workload is built from a seed alone.  The constructor generates the
data and one *pass* of ops in pure Python; the timed phase repeats that
pass, so every pass runs the identical op list and the per-op counts
(roundtrips, rows shipped, compiles, virtual ms) do not depend on how many
passes fit into the measured seconds.

``setup()`` builds a fresh federation from the generated data, deploys,
opens sessions and runs one op of every shape (plans, statement caches,
table profiles).  ``run()`` performs one op through the engine's public
API and returns what a client would receive (serialized XML, or a submit
outcome).  ``check()`` compares that against an expectation computed in
pure Python from the generated data -- the engine is never its own
oracle.  ``corrupt()`` damages a correct result so that a run can prove
its oracle is not vacuous.
"""

from __future__ import annotations

import importlib
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from repro import Platform, demo
from repro.clock import VirtualClock
from repro.schema import leaf, shape
from repro.sdo import ConcurrencyPolicy
from repro.server import DataServer
from repro.xml.items import AtomicValue

# Looked up through the module on every call so that the traced run's
# wrapper around ``serialize`` sees the benchmark's own calls.
_XML = importlib.import_module("repro.xml.serialize")

#: every surname has six letters, so a rename (also six letters) never
#: changes the byte size of later results
SURNAMES = ["Garcia", "Nguyen", "Okafor", "Murphy", "Jensen", "Kowals",
            "Novaks", "Tanaka"]
FIRST_NAMES = ["Al", "Bo", "Cy", "Di", "Ed", "Flo", "Gus", "Hal"]
REGIONS = ["CENTRAL", "EAST", "NORTH", "SOUTH", "WEST"]


@dataclass
class Customer:
    cid: str
    first: str
    last: str
    ssn: str
    since: int
    orders: list[tuple[str, int]]   # (OID, AMOUNT)
    card: tuple[str, str]           # (CCID, NUMBER)


def make_customers(rng: random.Random, count: int) -> list[Customer]:
    """``count`` customers with 2-4 orders each (3 on average)."""
    customers = []
    oid = 0
    for i in range(1, count + 1):
        orders = []
        for _ in range(rng.randint(2, 4)):
            oid += 1
            orders.append((f"O{oid}", rng.randrange(10, 1000)))
        customers.append(Customer(
            cid=f"C{i}", first=rng.choice(FIRST_NAMES),
            last=rng.choice(SURNAMES), ssn=str(rng.randrange(100, 400)),
            since=rng.randrange(0, 10_000_000), orders=orders,
            card=(f"CC{i}", f"44{rng.randrange(10_000, 99_999)}")))
    return customers


def build_federation(customers: list[Customer],
                     ws_latency_ms: float = 30.0) -> Platform:
    """The paper's running example (Figure 3) over generated data: custdb
    (CUSTOMER, ORDER), ccdb (CREDIT_CARD), the rating Web service and the
    ``getProfile``/``getProfileByID`` data service."""
    clock = VirtualClock()
    platform = Platform(clock=clock)
    custdb = demo.build_custdb(clock, customers=0)
    custdb.load("CUSTOMER", [
        {"CID": c.cid, "FIRST_NAME": c.first, "LAST_NAME": c.last,
         "SSN": c.ssn, "SINCE": c.since} for c in customers])
    custdb.load("ORDER", [
        {"OID": oid, "CID": c.cid, "AMOUNT": amount}
        for c in customers for oid, amount in c.orders])
    ccdb = demo.build_ccdb(clock, customers=0)
    ccdb.load("CREDIT_CARD", [
        {"CCID": c.card[0], "CID": c.cid, "NUMBER": c.card[1]}
        for c in customers])
    platform.register_database(custdb)
    platform.register_database(ccdb)
    platform.register_web_service(demo.rating_service(ws_latency_ms))
    platform.deploy(demo.PROFILE_SERVICE_XQUERY, name="ProfileService")
    return platform


def zipf_picker(rng: random.Random, ids: list[str], exponent: float = 1.1):
    """Draw ids with Zipf-skewed popularity; which ids are hot is seeded."""
    hot = list(ids)
    rng.shuffle(hot)
    total = 0.0
    cumulative = []
    for rank in range(1, len(hot) + 1):
        total += 1.0 / rank ** exponent
        cumulative.append(total)
    return lambda: rng.choices(hot, cum_weights=cumulative)[0]


# -- oracle helpers ----------------------------------------------------------

def parse_items(text: str) -> list[ET.Element]:
    """The top-level elements of a serialized result sequence."""
    return list(ET.fromstring(f"<R>{text}</R>"))


def profile_facts(element: ET.Element) -> tuple:
    orders = element.find("ORDERS")
    cards = element.find("CREDIT_CARDS")
    return (
        element.tag,
        element.findtext("CID"),
        element.findtext("LAST_NAME"),
        sorted((o.findtext("OID"), o.findtext("CID"), o.findtext("AMOUNT"))
               for o in (orders if orders is not None else [])),
        sorted((c.findtext("CCID"), c.findtext("CID"), c.findtext("NUMBER"))
               for c in (cards if cards is not None else [])),
        element.findtext("RATING"),
    )


def expected_profile(customer: Customer, last: str,
                     with_rating: bool = True) -> tuple:
    return (
        "PROFILE", customer.cid, last,
        sorted((oid, customer.cid, str(amount))
               for oid, amount in customer.orders),
        [(customer.card[0], customer.cid, customer.card[1])],
        str(600 + int(customer.ssn)) if with_rating else None,
    )


def corrupt_text(text: str) -> str:
    """Damage a serialized result: bump its first digit."""
    for index, char in enumerate(text):
        if char.isdigit():
            return text[:index] + str((int(char) + 1) % 10) + text[index + 1:]
    return text + "<EXTRA/>"


@dataclass
class Env:
    """One set-up federation plus the oracle's view of its mutable state."""

    platform: Platform
    state: dict = field(default_factory=dict)
    server: DataServer | None = None
    sessions: dict = field(default_factory=dict)
    writes: int = 0

    def close(self) -> None:
        self.platform.close()


class Workload:
    name = ""
    classes: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: list[tuple] = []

    def setup(self, work_dir: Path) -> Env:
        raise NotImplementedError

    def run(self, env: Env, op: tuple):
        raise NotImplementedError

    def check(self, env: Env, op: tuple, result) -> bool:
        raise NotImplementedError

    def corrupt(self, result):
        return corrupt_text(result)

    def warmup_ops(self) -> list[tuple]:
        """One op of every shape, run during set-up."""
        raise NotImplementedError

    @staticmethod
    def result_bytes(result) -> int:
        return len(result) if isinstance(result, str) else 0


class ProfileFederation(Workload):
    """Lookups, writes and scans of ``getProfile`` through ``Platform``."""

    name = "profile-federation"
    classes = ("lookup", "write", "scan")
    #: about 300, sized so that a 25-second run holds at least 20 scans
    CUSTOMERS = 270
    #: one pass: 38 lookups, 10 writes, 2 scans (about 3/4, 1/5, 1/25)
    MIX = {"lookup": 38, "write": 10, "scan": 2}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.customers = make_customers(self.rng, self.CUSTOMERS)
        self.by_id = {c.cid: c for c in self.customers}
        pick = zipf_picker(self.rng, [c.cid for c in self.customers])
        kinds = [kind for kind, count in self.MIX.items()
                 for _ in range(count)]
        self.rng.shuffle(kinds)
        self.ops = [(kind,) if kind == "scan" else (kind, pick())
                    for kind in kinds]

    def setup(self, work_dir: Path) -> Env:
        env = Env(build_federation(self.customers))
        env.state = {c.cid: c.last for c in self.customers}
        return env

    def warmup_ops(self) -> list[tuple]:
        cid = self.customers[0].cid
        return [("lookup", cid), ("write", cid), ("scan",)]

    def run(self, env: Env, op: tuple):
        kind = op[0]
        platform = env.platform
        if kind == "lookup":
            return _XML.serialize(platform.call_python("getProfileByID", op[1]))
        if kind == "scan":
            return _XML.serialize(platform.call("getProfile"))
        env.writes += 1
        new_name = f"W{env.writes % 100_000:05d}"
        [obj] = platform.read_for_update("ProfileService", "getProfileByID",
                                         op[1])
        obj.setLAST_NAME(new_name)
        outcome = platform.submit(obj, policy=ConcurrencyPolicy.values_updated())
        return (new_name, outcome.rows_updated)

    def check(self, env: Env, op: tuple, result) -> bool:
        kind = op[0]
        if kind == "lookup":
            customer = self.by_id[op[1]]
            items = parse_items(result)
            return ([profile_facts(e) for e in items]
                    == [expected_profile(customer, env.state[op[1]])])
        if kind == "scan":
            items = parse_items(result)
            got = sorted(profile_facts(e) for e in items)
            want = sorted(expected_profile(c, env.state[c.cid])
                          for c in self.customers)
            return got == want
        new_name, rows_updated = result
        # re-read the source row directly, outside the engine
        row = env.platform.ctx.databases["custdb"].table("CUSTOMER") \
            .lookup_pk((op[1],))
        ok = rows_updated == 1 and row is not None \
            and row["LAST_NAME"] == new_name
        if ok:
            env.state[op[1]] = new_name
        return ok

    def corrupt(self, result):
        if isinstance(result, tuple):
            return (result[0], result[1] + 1)
        return corrupt_text(result)


# -- serve-adhoc ---------------------------------------------------------------

#: parameterized lookups: bound through ``variables``, so plans are cached
TEMPLATES = [
    "getProfileByID($id)",
    "for $c in CUSTOMER() where $c/CID eq $id return $c",
    "for $o in ORDER() where $o/CID eq $id return <O>{data($o/OID)}</O>",
    "CREDIT_CARD()[CID eq $id]",
]

#: (name, roles); the last tenant lacks "gold", so element-level policies
#: strip RATING from its profiles and SSN from its customers
TENANTS = [("acme", ("gold",)), ("bolt", ("gold",)), ("zeta", ("std",))]


class ServeAdhoc(Workload):
    """Parameterized lookups and literal-inlined ad hoc queries through a
    multi-tenant ``DataServer`` with continuous observability on."""

    name = "serve-adhoc"
    classes = ("lookup", "adhoc")
    CUSTOMERS = 20
    POOL = 2000
    #: adhoc texts per pass.  More than the plan cache's 256 entries, so
    #: the LRU cycle evicts every text before its next use.
    ADHOC_PER_PASS = 320
    LOOKUPS_PER_PASS = 1280

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.customers = make_customers(rng, self.CUSTOMERS)
        self.by_id = {c.cid: c for c in self.customers}
        self.pool = self._adhoc_pool(rng)
        # set-up warms the first text of each shape; a pass draws the same
        # number of other texts from each shape
        per_shape = self.POOL // 4
        self.warm_texts = [shape * per_shape for shape in range(4)]
        chosen = [index for shape in range(4) for index in rng.sample(
            range(shape * per_shape + 1, (shape + 1) * per_shape),
            self.ADHOC_PER_PASS // 4)]
        ops = [("adhoc", rng.randrange(len(TENANTS)), index)
               for index in chosen]
        # every (template, customer) pair equally often, so the virtual
        # time of a pass hardly depends on the seed
        pairs = [(template, c.cid) for template in range(len(TEMPLATES))
                 for c in self.customers]
        ops += [("lookup", rng.randrange(len(TENANTS)),
                 *pairs[i % len(pairs)])
                for i in range(self.LOOKUPS_PER_PASS)]
        rng.shuffle(ops)
        self.ops = ops

    def _adhoc_pool(self, rng: random.Random) -> list[tuple[str, object]]:
        """``POOL`` distinct (query text, expected result) pairs over four
        shapes; each inlines its literals, so each text is its own plan
        and its own SQL statement."""
        customers = self.customers
        orders = [(oid, c.cid, amount) for c in customers
                  for oid, amount in c.orders]
        pool: dict[str, object] = {}
        per_shape = self.POOL // 4
        while len(pool) < per_shape:
            cid = rng.choice(customers).cid
            floor = rng.randrange(10, 1000)
            text = (f'for $o in ORDER() where $o/CID eq "{cid}" and '
                    f'$o/AMOUNT ge {floor} return <O>{{data($o/OID)}}</O>')
            pool[text] = ("set", sorted(o[0] for o in orders
                                        if o[1] == cid and o[2] >= floor))
        while len(pool) < 2 * per_shape:
            since = rng.randrange(0, 10_000_000)
            text = (f'for $c in CUSTOMER() where $c/SINCE ge {since} '
                    f'order by $c/CID return <C>{{data($c/CID)}}</C>')
            pool[text] = ("list", sorted(c.cid for c in customers
                                         if c.since >= since))
        while len(pool) < 3 * per_shape:
            ceiling = rng.randrange(10, 1000)
            text = (f'<N>{{count(for $o in ORDER() where $o/AMOUNT lt '
                    f'{ceiling} return $o)}}</N>')
            pool[text] = ("list", [str(sum(1 for o in orders
                                           if o[2] < ceiling))])
        while len(pool) < 4 * per_shape:
            surname = rng.choice(SURNAMES)
            ssn = str(rng.randrange(100, 400))
            text = (f'for $c in CUSTOMER() where $c/LAST_NAME eq "{surname}" '
                    f'and $c/SSN ne "{ssn}" return <C>{{data($c/CID)}}</C>')
            pool[text] = ("set", sorted(c.cid for c in customers
                                        if c.last == surname and c.ssn != ssn))
        return list(pool.items())

    def setup(self, work_dir: Path) -> Env:
        platform = build_federation(self.customers)
        platform.set_continuous(True, seed=self.seed)
        platform.security.protect_element(("PROFILE", "RATING"), ["gold"])
        platform.security.protect_element(("CUSTOMER", "SSN"), ["gold"])
        server = DataServer(platform)
        env = Env(platform, server=server)
        for tenant, roles in TENANTS:
            server.register_tenant(tenant, f"{tenant}-secret", roles)
            env.sessions[tenant] = server.open_session(
                tenant, f"{tenant}-secret").session_id
        return env

    def warmup_ops(self) -> list[tuple]:
        cid = self.customers[0].cid
        ops = [("lookup", tenant, template, cid)
               for tenant in range(len(TENANTS))
               for template in range(len(TEMPLATES))]
        return ops + [("adhoc", 0, index) for index in self.warm_texts]

    def run(self, env: Env, op: tuple):
        session = env.sessions[TENANTS[op[1]][0]]
        if op[0] == "lookup":
            response = env.server.execute(
                session, TEMPLATES[op[2]],
                {"id": [AtomicValue(op[3], "xs:string")]})
        else:
            response = env.server.execute(session, self.pool[op[2]][0])
        return _XML.serialize(response.items)

    def check(self, env: Env, op: tuple, result) -> bool:
        items = parse_items(result)
        if op[0] == "adhoc":
            kind, want = self.pool[op[2]][1]
            got = [e.text or "" for e in items]
            return (sorted(got) if kind == "set" else got) == want
        gold = "gold" in TENANTS[op[1]][1]
        customer = self.by_id[op[3]]
        template = op[2]
        if template == 0:
            return ([profile_facts(e) for e in items]
                    == [expected_profile(customer, customer.last, gold)])
        if template == 1:
            got = [(e.tag, e.findtext("CID"), e.findtext("LAST_NAME"),
                    e.findtext("SSN"), e.findtext("SINCE")) for e in items]
            return got == [("CUSTOMER", customer.cid, customer.last,
                            customer.ssn if gold else None,
                            str(customer.since))]
        if template == 2:
            return sorted(e.text for e in items) == \
                sorted(oid for oid, _ in customer.orders)
        got = [(e.findtext("CCID"), e.findtext("NUMBER")) for e in items]
        return got == [customer.card]


# -- midtier-report --------------------------------------------------------------

REPORT_BY_REGION = '''
for $c in CUSTOMER()
for $r in REGIONS()
where $r/CID eq $c/CID
group $c as $g by $r/REGION as $region
order by $region
return <REGION name="{$region}">
  <CUSTOMERS>{count($g)}</CUSTOMERS>
  <SINCE>{sum($g/SINCE)}</SINCE>
</REGION>'''

REPORT_LARGE_ORDERS = '''
for $o in ORDER()
where isLarge($o/AMOUNT)
group $o as $g by $o/CID as $cid
order by sum($g/AMOUNT) descending, $cid
return <CUSTOMER id="{$cid}">
  <TOTAL>{sum($g/AMOUNT)}</TOTAL>
  <ORDERS>{count($g)}</ORDERS>
</CUSTOMER>'''

REPORT_REGION_SALES = '''
for $o in ORDER()
for $r in REGIONS()
where $o/CID eq $r/CID
group $o as $g by $r/REGION as $region
order by count($g) descending, $region
return <SALES region="{$region}">
  <ORDERS>{count($g)}</ORDERS>
  <AMOUNT>{sum($g/AMOUNT)}</AMOUNT>
</SALES>'''

REPORTS = {"by-region": REPORT_BY_REGION,
           "large-orders": REPORT_LARGE_ORDERS,
           "region-sales": REPORT_REGION_SALES}


class MidtierReport(Workload):
    """Reports whose work is done by mid-tier operators and XML
    construction: a CSV join, a Java-function filter, group-bys."""

    name = "midtier-report"
    classes = ("scan",)
    CUSTOMERS = 500
    #: one pass runs every report twice, in a seeded order
    REPEATS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.customers = make_customers(rng, self.CUSTOMERS)
        self.region = {c.cid: rng.choice(REGIONS) for c in self.customers}
        self.threshold = rng.randrange(400, 600)
        self.expected = self._expected()
        ops = [("scan", report) for report in REPORTS
               for _ in range(self.REPEATS)]
        rng.shuffle(ops)
        self.ops = ops

    def _expected(self) -> dict[str, list]:
        by_region: dict[str, list] = {}
        sales: dict[str, list] = {}
        large: dict[str, list] = {}
        for c in self.customers:
            region = self.region[c.cid]
            entry = by_region.setdefault(region, [0, 0])
            entry[0] += 1
            entry[1] += c.since
            for _oid, amount in c.orders:
                totals = sales.setdefault(region, [0, 0])
                totals[0] += 1
                totals[1] += amount
                if amount >= self.threshold:
                    mine = large.setdefault(c.cid, [0, 0])
                    mine[0] += amount
                    mine[1] += 1
        return {
            "by-region": [(region, str(n), str(total))
                          for region, (n, total) in sorted(by_region.items())],
            "large-orders": [
                (cid, str(total), str(n)) for cid, (total, n) in
                sorted(large.items(), key=lambda kv: (-kv[1][0], kv[0]))],
            "region-sales": [
                (region, str(n), str(total)) for region, (n, total) in
                sorted(sales.items(), key=lambda kv: (-kv[1][0], kv[0]))],
        }

    def setup(self, work_dir: Path) -> Env:
        platform = Platform(clock=VirtualClock())
        clock = platform.clock
        custdb = demo.build_custdb(clock, customers=0)
        custdb.load("CUSTOMER", [
            {"CID": c.cid, "FIRST_NAME": c.first, "LAST_NAME": c.last,
             "SSN": c.ssn, "SINCE": c.since} for c in self.customers])
        custdb.load("ORDER", [
            {"OID": oid, "CID": c.cid, "AMOUNT": amount}
            for c in self.customers for oid, amount in c.orders])
        platform.register_database(custdb)
        path = work_dir / f"regions-{self.seed}.csv"
        path.write_text("CID,REGION\n" + "".join(
            f"{c.cid},{self.region[c.cid]}\n" for c in self.customers))
        platform.register_csv_file(
            "REGIONS", path,
            shape("REGION_ROW", [leaf("CID", "xs:string"),
                                 leaf("REGION", "xs:string")]))
        threshold = self.threshold
        platform.register_java_function(
            "isLarge", lambda amount: amount is not None and amount >= threshold,
            ["xs:integer"], "xs:boolean")
        return Env(platform)

    def warmup_ops(self) -> list[tuple]:
        return [("scan", report) for report in REPORTS]

    def run(self, env: Env, op: tuple):
        return _XML.serialize(env.platform.execute(REPORTS[op[1]]))

    def check(self, env: Env, op: tuple, result) -> bool:
        got = [(e.get("name") or e.get("id") or e.get("region"),
                e[0].text, e[1].text) for e in parse_items(result)]
        return got == self.expected[op[1]]


WORKLOADS = {w.name: w for w in (ProfileFederation, ServeAdhoc, MidtierReport)}
