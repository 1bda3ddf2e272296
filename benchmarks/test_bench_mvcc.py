"""Benchmark: writers behind a slow reader under MVCC snapshot reads.

The scenario the MVCC subsystem exists for: one deliberately slow
reader (a three-variable join over a knows-clique, tens of thousands
of matchings per MATCH) shares a database with a stream of small
commits plus a 90/10 burst of fast point reads.  The reader works from
a pinned snapshot, so a commit only ever contends with other writers.
A reader-writer lock would instead make every commit wait out the slow
MATCH, so the shortest slow MATCH is what such a commit would at least
have cost.

The module records client-observed latency percentiles and *asserts*
the headline claim mechanically: the shortest slow MATCH must last at
least ``REQUIRED_WRITER_SPEEDUP`` times the p95 writer latency.
Numbers land in ``BENCH_mvcc.json`` next to the repo root (path
overridable via ``REPRO_BENCH_MVCC_OUT``) so CI can archive them
without parsing test output.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.core import Instance, Scheme
from repro.server import BackgroundServer, Catalog, GoodClient, GoodServer

RESULTS: dict = {"benchmarks": {}}

OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_MVCC_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_mvcc.json",
    )
)

#: The shortest slow MATCH must exceed the p95 writer latency by at
#: least this factor; the run fails otherwise.
REQUIRED_WRITER_SPEEDUP = 5.0

CLIQUE = 55  # 55^3 = 166_375 matchings per slow MATCH
WRITES = 20
TRIPLE = "{ p: Person; q: Person; r: Person; p -knows->> q; q -knows->> r }"


def people_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Person", "name", "String")
    scheme.declare("Person", "knows", "Person", functional=False)
    return scheme


def clique_instance(n: int = CLIQUE) -> Instance:
    db = Instance(people_scheme())
    people = []
    for index in range(n):
        person = db.add_object("Person")
        db.add_edge(person, "name", db.printable("String", f"p{index}"))
        people.append(person)
    for a in people:
        for b in people:
            db.add_edge(a, "knows", b)
    return db


def percentile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def measure() -> dict:
    """Run the long-reader + 90/10 burst against the server and return
    client-observed latencies in seconds."""
    catalog = Catalog()
    catalog.add("people", clique_instance(), backend="native")
    server = GoodServer(catalog, max_concurrent=8, max_queue=256)
    stop = threading.Event()
    slow_matches = []
    fast_reads = []
    writes = []

    with BackgroundServer(server):
        host, port = server.address

        def slow_reader():
            with GoodClient(host, port) as client:
                client.use("people")
                while not stop.is_set():
                    started = time.perf_counter()
                    found = client.match(TRIPLE, limit=1)
                    slow_matches.append(time.perf_counter() - started)
                    assert found["total"] >= CLIQUE**3

        def fast_reader():
            with GoodClient(host, port) as client:
                client.use("people")
                while not stop.is_set():
                    started = time.perf_counter()
                    client.match("{ p: Person }", limit=1)
                    fast_reads.append(time.perf_counter() - started)
                    time.sleep(0.002)

        threads = [threading.Thread(target=slow_reader)]
        threads += [threading.Thread(target=fast_reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let a slow MATCH get under way
        try:
            with GoodClient(host, port) as client:
                client.use("people")
                for index in range(WRITES):
                    started = time.perf_counter()
                    client.run(
                        'addnode Person(name -> n) '
                        '{{ n: String = "w-{}" }}'.format(index)
                    )
                    writes.append(time.perf_counter() - started)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=120)

    return {"slow_matches": slow_matches, "fast_reads": fast_reads, "writes": writes}


def summarize(label: str, outcome: dict) -> dict:
    summary = {}
    for kind, samples in outcome.items():
        summary[kind] = {
            "samples": len(samples),
            "min_ms": round(min(samples) * 1000, 3),
            "p50_ms": round(percentile(samples, 0.50) * 1000, 3),
            "p95_ms": round(percentile(samples, 0.95) * 1000, 3),
            "max_ms": round(max(samples) * 1000, 3),
        }
    RESULTS["benchmarks"][label] = summary
    return summary


def test_mvcc_unblocks_writers_behind_a_slow_reader():
    mvcc = summarize("mvcc", measure())
    speedup = mvcc["slow_matches"]["min_ms"] / max(mvcc["writes"]["p95_ms"], 1e-6)
    RESULTS["benchmarks"]["headline"] = {
        "clique": CLIQUE,
        "matchings_per_slow_match": CLIQUE**3,
        "writer_p95_speedup": round(speedup, 1),
        "required_writer_speedup": REQUIRED_WRITER_SPEEDUP,
    }
    # the run did real work
    assert mvcc["writes"]["samples"] == WRITES
    assert mvcc["slow_matches"]["samples"] >= 1
    assert mvcc["fast_reads"]["samples"] >= 10
    # the headline claim, asserted mechanically
    assert speedup >= REQUIRED_WRITER_SPEEDUP, (
        f"writer p95 {mvcc['writes']['p95_ms']}ms is only {speedup:.1f}x "
        f"shorter than the shortest slow MATCH {mvcc['slow_matches']['min_ms']}ms"
    )


def teardown_module(module):
    OUT_PATH.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")
