"""Seeded FlightPlan object bases, request streams and their predicted answers.

This module never imports ``repro``: it writes the instance document the
server LOADs and, for every request it generates, the response a correct
server must give.  The prediction is a plain-Python model of the object
base (pilots, aircraft, equipment, flights, logs) that replays each
write in the order its connection sends it.

Scheme (``->`` functional, ``->>`` multivalued)::

    Pilot -name-> String          Pilot -certified->> Aircraft
    Aircraft -tail-> String       Equipment -of-> Aircraft
    Equipment -kind-> String      Flight -code-> String
    Flight -pilot-> Pilot         Flight -aircraft-> Aircraft
    Log -flight-> Flight          Pilot -mentors->> Pilot

Every object has one unique printable key (``P00042``, ``N0007``,
``F000123``), so patterns anchor on a literal.  A stream is sent in
order on one connection, so every response is exactly predictable.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional, Tuple

KINDS = ["adsb", "autopilot", "efb", "gps", "radar", "radio", "tcas", "transponder"]
EQUIPMENT_PER_AIRCRAFT = 3

SCHEME = {
    "format": 1,
    "object_labels": ["Aircraft", "Equipment", "Flight", "Log", "Pilot"],
    "printable_labels": ["String"],
    "functional_edge_labels": ["aircraft", "code", "flight", "kind", "name", "of", "pilot", "tail"],
    "multivalued_edge_labels": ["certified", "mentors"],
    "properties": sorted(
        [
            ["Pilot", "name", "String"],
            ["Pilot", "certified", "Aircraft"],
            ["Aircraft", "tail", "String"],
            ["Equipment", "of", "Aircraft"],
            ["Equipment", "kind", "String"],
            ["Flight", "code", "String"],
            ["Flight", "pilot", "Pilot"],
            ["Flight", "aircraft", "Aircraft"],
            ["Log", "flight", "Flight"],
            ["Pilot", "mentors", "Pilot"],
        ]
    ),
    "isa_labels": [],
}


def pilot_name(p: int) -> str:
    return f"P{p:05d}"


def tail(a: int) -> str:
    return f"N{a:04d}"


def flight_code(f: int) -> str:
    return f"F{f:06d}"


# ----------------------------------------------------------------------
# request text
# ----------------------------------------------------------------------

def _pilot(var: str, p: int) -> str:
    return f'{var}: Pilot; {var}n: String = "{pilot_name(p)}"; {var} -name-> {var}n'


def _aircraft(var: str, a: int) -> str:
    return f'{var}: Aircraft; {var}t: String = "{tail(a)}"; {var} -tail-> {var}t'


def _flight(var: str, f: int) -> str:
    return f'{var}: Flight; {var}c: String = "{flight_code(f)}"; {var} -code-> {var}c'


def match_certified_flights(p: int) -> str:
    """Flights of pilot ``p`` on aircraft the pilot is certified for."""
    return (
        f"{{ {_pilot('p', p)}; f: Flight; f -pilot-> p; a: Aircraft; "
        "f -aircraft-> a; p -certified->> a }"
    )


def match_logged_flights(p: int) -> str:
    return f"{{ {_pilot('p', p)}; f: Flight; f -pilot-> p; l: Log; l -flight-> f }}"


def match_fitted_equipment(p: int) -> str:
    return f"{{ {_pilot('p', p)}; a: Aircraft; p -certified->> a; e: Equipment; e -of-> a }}"


def match_pilot(p: int) -> str:
    return f"{{ {_pilot('p', p)} }}"


def match_aircraft(a: int) -> str:
    return f"{{ {_aircraft('a', a)} }}"


def match_log(f: int) -> str:
    return f"{{ l: Log; l -flight-> f; {_flight('f', f)} }}"


def query_duties(p: int) -> str:
    return f"addnode Duty(pilot -> p, flight -> f) {{ {_pilot('p', p)}; f: Flight; f -pilot-> p }}"


def run_add_log(f: int) -> str:
    return f"addnode Log(flight -> f) {{ {_flight('f', f)} }}"


def run_delete_log(f: int) -> str:
    return f"delnode l {{ l: Log; l -flight-> f; {_flight('f', f)} }}"


def run_certify(p: int, a: int) -> str:
    return f"addedge {{ {_pilot('p', p)}; {_aircraft('a', a)} }} add p -certified->> a"


def run_uncertify(p: int, a: int) -> str:
    return (
        f"deledge {{ {_pilot('p', p)}; {_aircraft('a', a)}; p -certified->> a }} "
        "del p -certified->> a"
    )


def run_reassign(f: int, a: int) -> str:
    """A second ``aircraft`` edge for a flight: §3.2 rejects it."""
    return f"addedge {{ {_flight('f', f)}; {_aircraft('a', a)} }} add f -aircraft-> a"


# analytics: a fixed set of set-oriented reads (the plan cache holds them).
# The planner runs a cycle multiway only when every edge fans out at
# least 4-fold, which no functional edge does, so the multiway cycle is
# mentor and mentee certified on one aircraft; the pilot-flight-aircraft
# cycle is read through its crossed form.
CYCLIC = "{ p: Pilot; q: Pilot; a: Aircraft; p -mentors->> q; p -certified->> a; q -certified->> a }"
CHAIN = "{ p: Pilot; f: Flight; a: Aircraft; e: Equipment; f -pilot-> p; f -aircraft-> a; e -of-> a }"
CROSSED = (
    "{ p: Pilot; f: Flight; a: Aircraft; f -pilot-> p; f -aircraft-> a; "
    "no { p -certified->> a; }; }"
)
ABSTRACT = "abstract p by certified as Crew/member { p: Pilot }"


def query_roster(a: int) -> str:
    return (
        f"addnode Roster(aircraft -> a, pilot -> p) {{ {_aircraft('a', a)}; "
        "p: Pilot; p -certified->> a }"
    )


# ----------------------------------------------------------------------
# the object base and its model
# ----------------------------------------------------------------------

class FlightBase:
    """One seeded FlightPlan object base and the model of its state.

    The same object doubles as the model: the stream generators update
    ``certs``/``logs`` as they emit each write, so the model always holds
    the state the server reaches after the requests emitted so far.
    """

    def __init__(
        self,
        seed: int,
        pilots: int,
        aircraft: int,
        flights: int,
        certs_per_pilot: int,
        mentees: int = 0,
        log_share: float = 0.1,
    ) -> None:
        rng = random.Random(seed)
        self.pilots = pilots
        self.aircraft = aircraft
        self.flights = flights
        self.equipment: List[Tuple[int, int]] = []  # (aircraft, kind index)
        for a in range(aircraft):
            for k in rng.sample(range(len(KINDS)), EQUIPMENT_PER_AIRCRAFT):
                self.equipment.append((a, k))
        self.certs: List[set] = [
            set(rng.sample(range(aircraft), certs_per_pilot)) for _ in range(pilots)
        ]
        self.mentees: List[List[int]] = [
            [q for q in rng.sample(range(pilots), mentees + 1) if q != p][:mentees]
            for p in range(pilots)
        ]
        self.flight_pilot: List[int] = []
        self.flight_aircraft: List[int] = []
        self.pilot_flights: List[List[int]] = [[] for _ in range(pilots)]
        for f in range(flights):
            p = rng.randrange(pilots)
            # most flights are on an aircraft the pilot is certified
            # for; the rest feed the crossed pattern
            if rng.random() < 0.7:
                a = rng.choice(sorted(self.certs[p]))
            else:
                a = rng.randrange(aircraft)
            self.flight_pilot.append(p)
            self.flight_aircraft.append(a)
            self.pilot_flights[p].append(f)
        self.logs = set(rng.sample(range(flights), int(flights * log_share)))
        self.ids: Dict[Tuple[str, int], int] = {}

    # -- the instance document -----------------------------------------
    def document(self) -> Dict[str, Any]:
        """The format-1 instance document; records node ids in ``ids``."""
        nodes: List[Dict[str, Any]] = []
        edges: List[Dict[str, Any]] = []

        def node(label: str, key: Optional[Tuple[str, int]] = None, value: Any = None) -> int:
            node_id = len(nodes)
            entry: Dict[str, Any] = {"id": node_id, "label": label}
            if value is not None:
                entry["print"] = value
            nodes.append(entry)
            if key is not None:
                self.ids[key] = node_id
            return node_id

        def edge(source: int, label: str, target: int) -> None:
            edges.append({"source": source, "label": label, "target": target})

        kind_ids = [node("String", value=kind) for kind in KINDS]
        for a in range(self.aircraft):
            edge(node("Aircraft", ("aircraft", a)), "tail", node("String", value=tail(a)))
        for a, k in self.equipment:
            e = node("Equipment")
            edge(e, "of", self.ids[("aircraft", a)])
            edge(e, "kind", kind_ids[k])
        for p in range(self.pilots):
            pid = node("Pilot", ("pilot", p))
            edge(pid, "name", node("String", value=pilot_name(p)))
            for a in sorted(self.certs[p]):
                edge(pid, "certified", self.ids[("aircraft", a)])
        for p in range(self.pilots):
            for q in self.mentees[p]:
                edge(self.ids[("pilot", p)], "mentors", self.ids[("pilot", q)])
        for f in range(self.flights):
            fid = node("Flight", ("flight", f))
            edge(fid, "code", node("String", value=flight_code(f)))
            edge(fid, "pilot", self.ids[("pilot", self.flight_pilot[f])])
            edge(fid, "aircraft", self.ids[("aircraft", self.flight_aircraft[f])])
        for f in sorted(self.logs):
            edge(node("Log"), "flight", self.ids[("flight", f)])
        return {"format": 1, "scheme": SCHEME, "nodes": nodes, "edges": edges}

    def write_document(self, path: str) -> int:
        """Write the document to ``path``; returns its item count."""
        doc = self.document()
        with open(path, "w") as fp:
            json.dump(doc, fp, separators=(",", ":"))
        return len(doc["nodes"]) + len(doc["edges"])

    # -- model counts --------------------------------------------------
    def counts(self) -> Tuple[int, int]:
        """``(nodes, edges)`` of the modelled state."""
        strings = len(KINDS) + self.aircraft + self.pilots + self.flights
        objects = self.aircraft + len(self.equipment) + self.pilots + self.flights + len(self.logs)
        edges = (
            self.aircraft
            + 2 * len(self.equipment)
            + self.pilots
            + sum(len(c) for c in self.certs)
            + sum(len(m) for m in self.mentees)
            + 3 * self.flights
            + len(self.logs)
        )
        return strings + objects, edges

    def certified_flights(self, p: int) -> int:
        return sum(1 for f in self.pilot_flights[p] if self.flight_aircraft[f] in self.certs[p])

    def logged_flights(self, p: int) -> int:
        return sum(1 for f in self.pilot_flights[p] if f in self.logs)

    def flight_slice(self, f: int) -> Tuple[int, int]:
        """``(nodes, edges)`` of the 1-hop BROWSE slice around flight ``f``."""
        logged = f in self.logs
        p, a = self.flight_pilot[f], self.flight_aircraft[f]
        return 4 + logged, 3 + logged + (a in self.certs[p])

    def cyclic_total(self) -> int:
        return sum(len(self.certs[p] & self.certs[q]) for p in range(self.pilots) for q in self.mentees[p])

    def uncertified_flights(self) -> int:
        return sum(
            1 for f in range(self.flights) if self.flight_aircraft[f] not in self.certs[self.flight_pilot[f]]
        )

    def crew_groups(self) -> int:
        return len({frozenset(c) for c in self.certs})

    def roster(self, a: int) -> int:
        return sum(1 for c in self.certs if a in c)


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------

def _report(matchings: int, na: int = 0, nr: int = 0, ea: int = 0, er: int = 0) -> Dict[str, int]:
    return {
        "matchings": matchings,
        "nodes_added": na,
        "nodes_removed": nr,
        "edges_added": ea,
        "edges_removed": er,
    }


def request(
    verb: str, cls: str, kind: str, args: Dict[str, Any], expect: Dict[str, Any], items: int = 0
) -> Dict[str, Any]:
    """One request and its predicted answer.

    ``cls`` is the latency class (``read``/``write``), ``items`` the
    nodes plus edges the request makes durable when it succeeds.
    """
    return {"verb": verb, "cls": cls, "kind": kind, "args": args, "expect": expect, "items": items}


#: The OLTP mix as a deck of 20 dealt without replacement, so every run
#: has the same class shares: 50 % pilot-anchored MATCH (three shapes),
#: 15 % 1-hop BROWSE, 10 % anchored QUERY addnode, 25 % RUN.
OLTP_DECK = ["match0"] * 4 + ["match1"] * 3 + ["match2"] * 3 + ["browse"] * 3 + ["query"] * 2 + ["run"] * 5
#: RUN shares: mostly NA of a Log, some certify / uncertify EA/ED and ND
#: of a Log, and 2 % (at least one per stream) built to fail with
#: EDGE_CONFLICT.  A stream holds exactly these shares of its RUNs.
RUN_SHARES = {"delete_log": 0.10, "certify": 0.10, "uncertify": 0.10, "conflict": 0.02}
_NEEDS_FLIGHT = {"browse", "add_log", "delete_log", "conflict"}
#: the seed of the OLTP mix's schedule, the same for every run
SCHEDULE_SEED = 1990


def run_kinds(count: int, rng: random.Random) -> List[str]:
    """``count`` RUN kinds in the exact shares of :data:`RUN_SHARES`.

    The conflicts, whose rollback is the slowest write, sit at evenly
    spaced positions, so no run bunches them together by chance.
    """
    conflicts = max(1, round(count * RUN_SHARES["conflict"]))
    cards: List[str] = []
    for kind in ("delete_log", "certify", "uncertify"):
        cards += [kind] * round(count * RUN_SHARES[kind])
    cards += ["add_log"] * (count - conflicts - len(cards))
    rng.shuffle(cards)
    for index in range(conflicts):
        cards.insert(int((index + 0.5) * count / conflicts), "conflict")
    return cards


class Deck:
    """Deals a shuffled copy of ``cards``, reshuffling when it runs out."""

    def __init__(self, cards: List[str], rng: random.Random) -> None:
        self.cards = cards
        self.rng = rng
        self.hand: List[str] = []

    def deal(self) -> str:
        if not self.hand:
            self.hand = list(self.cards)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def oltp_request(base: FlightBase, rng: random.Random, p: int, kind: str, db: Optional[str] = None) -> Dict[str, Any]:
    """One ``kind`` request anchored on pilot ``p``; updates the model."""
    extra = {"db": db} if db else {}
    flights = base.pilot_flights[p]
    certs = base.certs[p]
    if kind.startswith("match"):
        if kind == "match0":
            pattern, total = match_certified_flights(p), base.certified_flights(p)
        elif kind == "match1":
            pattern, total = match_logged_flights(p), base.logged_flights(p)
        else:
            pattern, total = match_fitted_equipment(p), EQUIPMENT_PER_AIRCRAFT * len(certs)
        return request("MATCH", "read", kind, {"pattern": pattern, **extra}, {"total": total})
    if kind == "query":
        return request(
            "QUERY", "write", kind, {"program": query_duties(p), **extra},
            {"reports": [_report(len(flights), na=len(flights), ea=2 * len(flights))]},
        )
    if kind == "certify":
        a = rng.randrange(base.aircraft)
        fresh = a not in certs
        certs.add(a)
        return request(
            "RUN", "write", kind, {"program": run_certify(p, a), **extra},
            {"reports": [_report(1, ea=int(fresh))]}, items=int(fresh),
        )
    if kind == "uncertify":
        a = rng.choice(sorted(certs)) if certs else 0
        held = a in certs
        certs.discard(a)
        return request(
            "RUN", "write", kind, {"program": run_uncertify(p, a), **extra},
            {"reports": [_report(int(held), er=int(held))]},
        )
    f = rng.choice(flights)
    if kind == "browse":
        nodes, edges = base.flight_slice(f)
        return request(
            "BROWSE", "read", kind, {"node": base.ids[("flight", f)], "hops": 1, **extra},
            {"nodes": nodes, "edges": edges},
        )
    if kind == "conflict":
        a = rng.choice([x for x in range(base.aircraft) if x != base.flight_aircraft[f]])
        return request(
            "RUN", "write", kind, {"program": run_reassign(f, a), **extra}, {"error": "EDGE_CONFLICT"}
        )
    if kind == "add_log":
        fresh = f not in base.logs
        base.logs.add(f)
        req = request(
            "RUN", "write", kind, {"program": run_add_log(f), **extra},
            {"reports": [_report(1, na=int(fresh), ea=int(fresh))]}, items=2 * fresh,
        )
    else:
        logged = f in base.logs
        base.logs.discard(f)
        req = request(
            "RUN", "write", kind, {"program": run_delete_log(f), **extra},
            {"reports": [_report(int(logged), nr=int(logged), er=int(logged))]},
        )
    req["readback"] = {"pattern": match_log(f), **extra}
    return req


def oltp_stream(
    bases: List[FlightBase], seed: int, count: int, names: Optional[List[str]] = None
) -> List[Dict[str, Any]]:
    """``count`` OLTP requests, in the order the model replays them.

    The kind of each request comes from one fixed schedule and ``seed``
    picks the pilots, flights and aircraft they touch: runs on different
    seeds then differ in their data, not in their mix or in where a slow
    request (a rejected write rolling back) falls.  With ``names``, each
    request goes to the database of the base it was drawn from.
    """
    schedule = random.Random(SCHEDULE_SEED)
    mix = Deck(OLTP_DECK, schedule)
    kinds = [mix.deal() for _ in range(count)]
    runs = iter(run_kinds(kinds.count("run"), schedule))
    rng = random.Random(seed)
    out: List[Dict[str, Any]] = []
    for kind in kinds:
        if kind == "run":
            kind = next(runs)
        which = rng.randrange(len(bases))
        base = bases[which]
        p = rng.randrange(base.pilots)
        while kind in _NEEDS_FLIGHT and not base.pilot_flights[p]:
            p = rng.randrange(base.pilots)
        out.append(oltp_request(base, rng, p, kind, names[which] if names else None))
    return out


#: One analytics cycle.  Reads: one each of the cyclic, chain and crossed
#: MATCH, so the read median is the chain's and the p95 the crossed
#: read's; writes (query-mode operations): three roster NAs and one
#: abstraction, so the write median is a roster's and the p95 the
#: abstraction's.  Percentiles then fall inside one kind's latencies,
#: not on the boundary between two.
ANALYTICS_CYCLE = ["cyclic", "roster", "chain", "roster", "crossed", "roster", "abstract"]


def analytics_stream(base: FlightBase, seed: int, count: int, rosters: int = 8) -> List[Dict[str, Any]]:
    """The closed-loop heavy-read cycle, ``count`` requests long.

    Reads use a fixed set of patterns (the plan cache holds them all).
    The abstraction and set-oriented NA run in query mode, the
    workload's only operation-applying requests.
    """
    rng = random.Random(seed)
    cyclic = base.cyclic_total()
    crossed = base.uncertified_flights()
    chain = EQUIPMENT_PER_AIRCRAFT * base.flights
    groups = base.crew_groups()
    tails = rng.sample(range(base.aircraft), rosters)
    kinds = [
        (
            "cyclic", "read", "MATCH", {"pattern": CYCLIC, "limit": 2000},
            {"total": cyclic, "returned": min(2000, cyclic)},
        ),
        (
            "chain", "read", "MATCH", {"pattern": CHAIN, "limit": 200},
            {"total": chain, "returned": min(200, chain)},
        ),
        (
            "crossed", "read", "MATCH", {"pattern": CROSSED, "limit": 500},
            {"total": crossed, "returned": min(500, crossed)},
        ),
        (
            "abstract", "write", "QUERY", {"program": ABSTRACT},
            {"reports": [_report(base.pilots, na=groups, ea=base.pilots)]},
        ),
    ]
    by_name = {entry[0]: entry for entry in kinds}
    out = []
    for index in range(count):
        name = ANALYTICS_CYCLE[index % len(ANALYTICS_CYCLE)]
        if name == "roster":
            a = tails[rng.randrange(rosters)]
            n = base.roster(a)
            kind, cls, verb, args, expect = (
                "roster", "write", "QUERY", {"program": query_roster(a)},
                {"reports": [_report(n, na=n, ea=2 * n)]},
            )
        else:
            kind, cls, verb, args, expect = by_name[name]
        items = sum(r["nodes_added"] + r["edges_added"] for r in expect.get("reports", ()))
        out.append(request(verb, cls, kind, args, expect, items=items))
    return out


def match_aircraft_flights(a: int) -> str:
    return f"{{ f: Flight; {_aircraft('a', a)}; f -aircraft-> a }}"


class IngestPlan:
    """The bulk-load stream: aircraft, then pilots, then flights, in
    ``RUN`` batches.  Each batch is read back by one ``MATCH``: the
    object its last statement made or, for flights, every flight of the
    last flight's aircraft so far.  The model is the running node and
    edge count and the flights per aircraft."""

    def __init__(self, seed: int, pilots: int, aircraft: int, flights: int, batch: int) -> None:
        rng = random.Random(seed)
        self.batch = batch
        # (text, read-back pattern, read-back total, nodes, edges)
        self.statements: List[Tuple[str, str, int, int, int]] = []
        for a in range(aircraft):
            self.statements.append(
                (f'addnode Aircraft(tail -> t) {{ t: String = "{tail(a)}" }}', match_aircraft(a), 1, 2, 1)
            )
        for p in range(pilots):
            self.statements.append(
                (f'addnode Pilot(name -> n) {{ n: String = "{pilot_name(p)}" }}', match_pilot(p), 1, 2, 1)
            )
        flown = [0] * aircraft
        for f in range(flights):
            p, a = rng.randrange(pilots), rng.randrange(aircraft)
            flown[a] += 1
            self.statements.append(
                (
                    f'addnode Flight(code -> c, pilot -> p, aircraft -> a) {{ '
                    f'c: String = "{flight_code(f)}"; {_pilot("p", p)}; {_aircraft("a", a)} }}',
                    match_aircraft_flights(a),
                    flown[a],
                    2,
                    3,
                )
            )

    def requests(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        nodes = edges = 0
        for start in range(0, len(self.statements), self.batch):
            chunk = self.statements[start : start + self.batch]
            added_nodes = sum(s[3] for s in chunk)
            added_edges = sum(s[4] for s in chunk)
            nodes += added_nodes
            edges += added_edges
            out.append(
                request(
                    "RUN", "write", "batch", {"program": "\n".join(s[0] for s in chunk)},
                    {"nodes": nodes, "edges": edges, "statements": len(chunk)},
                    items=added_nodes + added_edges,
                )
            )
            _text, pattern, total, _nodes, _edges = chunk[-1]
            out.append(request("MATCH", "read", "readback", {"pattern": pattern}, {"total": total}))
        return out
