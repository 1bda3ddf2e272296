"""FlightPlan benchmark for the served GOOD stack.

Usage, from the root of a checkout (``--workload all`` runs the four in
turn)::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 20 --trace 0

Each run builds a seeded FlightPlan object base (``flightplan.py``),
serves it from a WAL data directory with group commit (``group:2``) in
a server process of its own (``served.py``), sends a request stream
from a separate load process (``loadgen.py``), checks every response
against the plain-Python model, and prints a table of metrics with
units and sample counts followed by one JSON line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` repeats the measurement
from a fresh set-up with call-site spans armed (``tracing.py``) and
reports the per-layer metrics, each with the prediction recorded in
``predictions.json``, plus the traced-minus-untraced overhead.  The exit
code is 0 when every check passed, 1 when a response, recovery or
read-your-writes check failed, and 3 when a workload's premise did not
hold (the run is invalid and reports no numbers).

Workloads (one load process, one closed-loop connection each):

* ``oltp``: 500 pilots, 50 aircraft (3 equipment each), 5000 flights,
  4 certifications per pilot, a Log on 10 % of flights (~12k nodes,
  ~18k edges).  50 % pilot-anchored MATCH, 15 % 1-hop BROWSE, 10 %
  QUERY addnode and 25 % RUN (Log NA/ND, certify EA/ED, 2 % built to
  fail with EDGE_CONFLICT).
* ``analytics``: twice the oltp fleet, 8 certifications and 5 mentees
  per pilot.  Cycles through a multiway
  cyclic MATCH, a 4-variable chain MATCH with ``limit``, a crossed
  MATCH, an ``abstract`` QUERY and set-oriented NA QUERYs.  No RUN, so
  no WAL appends.
* ``ingest``: a loader from an empty scheme (CREATE): RUN
  batches of 50 ``addnode`` statements (aircraft, pilots, then
  flights), each batch read back by one MATCH; a small checkpoint
  threshold makes every run take several auto-checkpoints.
* ``routed``: the oltp mix over four airline databases of half the
  oltp fleet each, behind ``start_cluster(workers=2, replicas=1)``;
  the session then reads back its own writes.

Every workload is one closed loop (``loadgen.py``), so latency is timed
from the send.  Open loops, and a reader session beside a writer
session, were tried on oltp and routed: on a shared 2-core host their
latencies, set by a handful of requests queued behind a rollback or by
whether the other session held the interpreter lock, spread more from
run to run than any bound this benchmark may set.

End-to-end metrics.  ``read`` requests are pattern reads (MATCH,
BROWSE); ``write`` requests apply GOOD operations: RUN, timed to its
durable acknowledgement, and QUERY, which applies them to a throwaway
copy (analytics has only the latter).  A write rejected as predicted
counts as correct but has no acknowledgement to time.
``throughput_ops_s`` counts correct replies per second of the run.
``ingest_items_s`` counts the nodes plus edges the workload's operations produced per
second (made durable or, for analytics, produced in query results).
``within_slo_ratio`` is the share of attempted requests answered
correctly within the per-class limit of ``SLO_MS``.
``disk_bytes_per_item`` averages data-directory bytes over live items,
sampled through the run.  Failures are the JSON line's ``failed``
count and the table's ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import flightplan as fp  # noqa: E402
from channel import Child, exit_on_sigterm  # noqa: E402

WORKLOADS = ("oltp", "analytics", "ingest", "routed")

#: set-ups per untraced run; set-up time is their median.  Ingest's
#: set-up (a CREATE) takes ~0.2 s, so it takes more of them for a steady
#: median.
SETUP_REPS = {"oltp": 3, "analytics": 3, "ingest": 9, "routed": 3}
#: requests generated per second of the window, well over what one
#: session sends on a 2-core machine (oltp ~100/s, routed ~160/s); a
#: run whose stream runs out before the window ends is invalid
OLTP_PER_S = 600
ROUTED_PER_S = 400
#: per-class latency limits (ms) behind within_slo_ratio
SLO_MS = {
    "oltp": {"read": 100.0, "write": 500.0},
    "analytics": {"read": 5000.0, "write": 2000.0},
    "ingest": {"read": 100.0, "write": 2000.0},
    "routed": {"read": 100.0, "write": 500.0},
}
CHECKPOINT_BYTES = 4 * 1024 * 1024
INGEST_CHECKPOINT_BYTES = 256 * 1024
INGEST_MIN_CHECKPOINTS = 2
AIRLINES = ["airline-a", "airline-b", "airline-c", "airline-d"]


class Invalid(Exception):
    """A workload's premise did not hold; the run reports no numbers."""


class Prepared:
    """One set-up: the served address plus everything the checks need."""

    def __init__(
        self, address: Tuple[str, int], data_dir: Path, job: Dict[str, Any],
        initial: Dict[str, Tuple[int, int]],
    ) -> None:
        self.address = address
        self.data_dir = data_dir
        self.job = job
        self.initial = initial


def _start(server: Child, data_dir: Path, checkpoint_bytes: int, trace: bool, routed: bool = False) -> Tuple[str, int]:
    options = {"data_dir": str(data_dir), "checkpoint_bytes": checkpoint_bytes, "trace": trace, "routed": routed}
    return tuple(server.call(("start", options)))


def _load_base(address: Tuple[str, int], name: str, base: fp.FlightBase, path: Path) -> Tuple[int, int]:
    from repro.server import GoodClient

    base.write_document(str(path))
    with GoodClient(*address, timeout=300.0) as client:
        client.load(name, str(path))
    return base.counts()


def setup_oltp(seed: int, work: Path, seconds: float, server: Child, trace: bool) -> Prepared:
    base = fp.FlightBase(seed, pilots=500, aircraft=50, flights=5000, certs_per_pilot=4)
    address = _start(server, work / "data", CHECKPOINT_BYTES, trace)
    initial = {"flights": _load_base(address, "flights", base, work / "oltp.json")}
    stream = fp.oltp_stream([base], seed + 1, round(OLTP_PER_S * seconds))
    job = {"stream": stream, "use": "flights", "cycle": len(fp.OLTP_DECK)}
    return Prepared(address, work / "data", job, initial)


def setup_analytics(seed: int, work: Path, seconds: float, server: Child, trace: bool) -> Prepared:
    base = fp.FlightBase(seed, pilots=1000, aircraft=100, flights=10000, certs_per_pilot=8, mentees=5)
    address = _start(server, work / "data", CHECKPOINT_BYTES, trace)
    initial = {"flights": _load_base(address, "flights", base, work / "analytics.json")}
    # far more requests than a run can send: the loop stops on time
    stream = fp.analytics_stream(base, seed + 1, 2000)
    job = {"stream": stream, "use": "flights", "cycle": len(fp.ANALYTICS_CYCLE)}
    return Prepared(address, work / "data", job, initial)


def setup_ingest(seed: int, work: Path, seconds: float, server: Child, trace: bool) -> Prepared:
    from repro.server import GoodClient

    plan = fp.IngestPlan(seed, pilots=1000, aircraft=50, flights=40000, batch=50)
    stream = plan.requests()
    address = _start(server, work / "data", INGEST_CHECKPOINT_BYTES, trace)
    with GoodClient(*address) as client:
        client.create("flights", scheme=fp.SCHEME)
    job = {"stream": stream, "use": "flights", "cycle": 2}
    return Prepared(address, work / "data", job, {"flights": (0, 0)})


def setup_routed(seed: int, work: Path, seconds: float, server: Child, trace: bool) -> Prepared:
    bases = [
        fp.FlightBase(seed * 7 + index, pilots=250, aircraft=25, flights=2500, certs_per_pilot=4)
        for index in range(len(AIRLINES))
    ]
    address = _start(server, work / "cluster", CHECKPOINT_BYTES, trace, routed=True)
    initial = {
        name: _load_base(address, name, base, work / f"{name}.json") for name, base in zip(AIRLINES, bases)
    }
    stream = fp.oltp_stream(bases, seed + 1, round(ROUTED_PER_S * seconds), AIRLINES)
    job = {"stream": stream, "verify": True, "cycle": len(fp.OLTP_DECK)}
    return Prepared(address, work / "cluster", job, initial)


SETUPS: Dict[str, Callable[..., Prepared]] = {
    "oltp": setup_oltp,
    "analytics": setup_analytics,
    "ingest": setup_ingest,
    "routed": setup_routed,
}


# ----------------------------------------------------------------------
# response checks
# ----------------------------------------------------------------------

class Sample:
    __slots__ = ("cls", "verb", "latency_ms", "ok", "items", "db", "summary", "expect")

    def __init__(self, req: Dict[str, Any], latency_ms: float, ok: bool, summary: Dict[str, Any]) -> None:
        self.cls = req["cls"]
        self.verb = req["verb"]
        self.db = req["args"].get("db", "flights")
        self.latency_ms = latency_ms
        self.ok = ok
        self.items = req["items"] if ok and "error" not in req["expect"] else 0
        self.summary = summary
        self.expect = req["expect"]


def _matches(expect: Dict[str, Any], code: Optional[str], summary: Dict[str, Any]) -> bool:
    if "error" in expect:
        return code == expect["error"]
    return code is None and all(summary.get(key) == value for key, value in expect.items())


def check_records(stream: List[Dict[str, Any]], records: List[Any]) -> Tuple[List[Sample], List[str]]:
    """Compare every reply with its prediction; returns samples and problems."""
    if len(records) == len(stream):
        raise Invalid(f"the session sent all {len(stream)} requests of its stream before the window ended")
    samples: List[Sample] = []
    problems: List[str] = []
    for index, sent, done, code, summary in records:
        req = stream[index]
        ok = _matches(req["expect"], code, summary)
        if not ok and len(problems) < 5:
            problems.append(f"{req['kind']}: expected {req['expect']}, got {code or summary}")
        samples.append(Sample(req, (done - sent) * 1000.0, ok, summary))
    return samples, problems


def model_counts(prepared: Prepared, samples: List[Sample]) -> Dict[str, Tuple[int, int]]:
    """Initial counts plus the predicted effect of every answered write."""
    counts = {name: list(value) for name, value in prepared.initial.items()}
    for sample in samples:
        if not sample.ok or sample.verb != "RUN" or "error" in sample.expect:
            continue
        bucket = counts[sample.db]
        if "nodes" in sample.expect:  # ingest batches predict the running totals
            bucket[0], bucket[1] = sample.expect["nodes"], sample.expect["edges"]
            continue
        for report in sample.expect["reports"]:
            bucket[0] += report["nodes_added"] - report["nodes_removed"]
            bucket[1] += report["edges_added"] - report["edges_removed"]
    return {name: (value[0], value[1]) for name, value in counts.items()}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Phase:
    """One measured run: samples, wall time and the STATS around it."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.samples: List[Sample] = []
        self.wall_s = 0.0
        self.stats_before: Dict[str, Any] = {}
        self.stats_after: Dict[str, Any] = {}
        self.problems: List[str] = []
        self.live_items = 0
        self.store_bytes = 0
        self.disk_bytes_per_item = 0.0
        self.lag: List[int] = []

    def latencies(self, cls: str) -> List[float]:
        """Latencies of one class; a write rejected as predicted has no
        durable acknowledgement to time (its rollback shows in
        ``txn.rollback_ms`` and in the queueing of the requests behind it)."""
        return [s.latency_ms for s in self.samples if s.cls == cls and "error" not in s.expect]

    def end_to_end(self, workload: str) -> Dict[str, Tuple[float, str, int]]:
        """``name -> (value, unit, samples)``."""
        n = len(self.samples)
        ok = [s for s in self.samples if s.ok]
        reads, writes = self.latencies("read"), self.latencies("write")
        slo = SLO_MS[workload]
        within = sum(1 for s in ok if s.latency_ms <= slo[s.cls])
        items = sum(s.items for s in self.samples)
        return {
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
            "throughput_ops_s": (len(ok) / self.wall_s, "1/s", len(ok)),
            "ingest_items_s": (items / self.wall_s, "1/s", items),
            "read_p50_ms": (percentile(reads, 50), "ms", len(reads)),
            "read_p95_ms": (percentile(reads, 95), "ms", len(reads)),
            "write_p50_ms": (percentile(writes, 50), "ms", len(writes)),
            "write_p95_ms": (percentile(writes, 95), "ms", len(writes)),
            "within_slo_ratio": (within / n, "ratio", n),
            "failed_ratio": ((n - len(ok)) / n, "ratio", n),
            "store_bytes_per_item": (self.store_bytes / self.live_items, "B", self.live_items),
            "disk_bytes_per_item": (self.disk_bytes_per_item, "B", self.live_items),
        }


def _delta(phase: Phase, key: str) -> float:
    def total(payload: Dict[str, Any]) -> float:
        return sum(bucket.get(key, 0) for bucket in payload.get("databases", {}).values())

    return total(phase.stats_after) - total(phase.stats_before)


def _router_delta(phase: Phase, key: str) -> float:
    def value(payload: Dict[str, Any]) -> float:
        return payload.get("cluster", {}).get("router", {}).get(key, 0)

    return value(phase.stats_after) - value(phase.stats_before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(phase: Phase, spans: Dict[str, Any]) -> Dict[str, Tuple[float, str, int]]:
    """The per-layer metrics of one traced phase, from the server
    process's span summary, STATS deltas and the checked replies."""
    durations, own, samples = spans["durations"], spans["own"], spans["samples"]

    def mean(values: List[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    def timed(name: str, self_time: bool = False, unit: str = "ms") -> Tuple[float, str, int]:
        values = (own if self_time else durations).get(name, [])
        return (mean(values) * (1000.0 if unit == "us" else 1.0), unit, len(values))

    def counted(value: float, base: float, unit: str = "count") -> Tuple[float, str, int]:
        return (_ratio(value, base), unit, int(base))

    matches = [s for s in phase.samples if s.verb == "MATCH" and s.ok]
    operation_requests = sum(1 for s in phase.samples if s.cls == "write")
    parses = durations.get("dsl.parse_program", []) + durations.get("dsl.parse_pattern", [])
    lock_waits = [value * 1000.0 for value in samples.get("lock_wait", []) if value > 0]
    versions = samples.get("versions", [])
    op_matchings = samples.get("op_matchings", [])
    loads = spans["setup"].get("io.load", [])
    hits, misses = _delta(phase, "plan_cache_hits"), _delta(phase, "plan_cache_misses")
    owner, replica = _router_delta(phase, "reads_to_owner"), _router_delta(phase, "reads_to_replicas")
    durable_items = sum(s.items for s in phase.samples if s.verb == "RUN")
    return {
        "protocol.decode_us": timed("protocol.decode", unit="us"),
        "protocol.encode_us": timed("protocol.encode", unit="us"),
        "protocol.response_bytes": (mean(spans["sizes"]), "B", len(spans["sizes"])),
        "server.admission_wait_ms": (mean(spans["admission"]), "ms", len(spans["admission"])),
        "server.handoff_wait_ms": timed("server.run_blocking", self_time=True),
        "server.dispatch_self_ms": timed("server.dispatch", self_time=True),
        "server.lock_wait_p95_ms": (percentile(lock_waits, 95), "ms", len(lock_waits)),
        "mvcc.pin_ms": timed("mvcc.pin"),
        "mvcc.publish_ms": timed("mvcc.publish"),
        "mvcc.versions_live_max": (max(versions, default=0), "count", len(versions)),
        "dsl.parse_ms": (mean(parses), "ms", len(parses)),
        "dsl.parse_us_per_statement": counted(
            sum(durations.get("dsl.parse_program", [])) * 1000.0, sum(samples.get("statements", [])), "us"
        ),
        "plan.plan_ms": timed("plan.plan"),
        "plan.cache_hit_ratio": counted(hits, hits + misses, "ratio"),
        "plan.execute_ms": timed("plan.execute", self_time=True),
        "plan.probes_per_matching": counted(_delta(phase, "index_probes"), _delta(phase, "matchings_enumerated")),
        "plan.returned_per_enumerated": (
            _ratio(sum(s.summary["returned"] for s in matches), sum(s.summary["total"] for s in matches)),
            "ratio", len(matches),
        ),
        "plan.leapfrog_seeks": counted(_delta(phase, "leapfrog_seeks"), len(matches)),
        "operations.apply_ms": timed("operations.apply"),
        "operations.matchings_per_op": (mean(op_matchings), "count", len(op_matchings)),
        "interactive.update_self_ms": timed("interactive.update", self_time=True),
        "graph.write_ms": counted(sum(durations.get("graph.write", [])), operation_requests, "ms"),
        "graph.fork_ms": timed("graph.fork"),
        "txn.journal_entries_per_commit": counted(_delta(phase, "txn_journal_entries"), _delta(phase, "runs")),
        "txn.rollback_ms": timed("txn.rollback"),
        "wal.append_ms": timed("wal.append"),
        "wal.durable_wait_ms": timed("wal.durable_wait"),
        "wal.fsyncs_per_commit": counted(_delta(phase, "wal_fsyncs"), _delta(phase, "wal_appends")),
        "wal.bytes_per_item": counted(_delta(phase, "wal_bytes"), durable_items, "B"),
        "wal.checkpoints": (_delta(phase, "checkpoints"), "count", 1),
        "wal.checkpoint_ms": timed("wal.checkpoint"),
        "io.load_ms": (mean(loads), "ms", len(loads)),
        "cluster.router_self_ms": timed("cluster.router", self_time=True),
        "cluster.pool_call_ms": timed("cluster.pool_call"),
        "cluster.owner_read_ratio": counted(owner, owner + replica, "ratio"),
        "cluster.replica_lag_p95": (percentile([float(v) for v in phase.lag], 95), "lsn", len(phase.lag)),
    }


class Sampler:
    """Polls the served stack while a run is measured: the data
    directory's bytes against the live item count (``LIST``), and on a
    traced routed run the replicas' lag in LSNs (``STATS``)."""

    def __init__(self, address: Tuple[str, int], data_dir: Path, lag: bool, interval: float = 0.5) -> None:
        self.address = address
        self.data_dir = data_dir
        self.lag = lag
        self.interval = interval
        self.disk: List[Tuple[int, int]] = []
        self.lags: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="perfbench-sampler")

    def _poll(self) -> None:
        from repro.server import GoodClient

        with GoodClient(*self.address) as client:
            while not self._stop.wait(self.interval):
                items = sum(e["nodes"] + e["edges"] for e in client.list()["databases"])
                self.disk.append((_dir_bytes(self.data_dir), items))
                if self.lag:
                    for info in client.call("STATS")["cluster"]["replicas"].values():
                        self.lags.extend(info["lag"].values())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._stop.set()
        self._thread.join(30)


def _stats(address: Tuple[str, int]) -> Tuple[Dict[str, Any], Dict[str, Tuple[int, int]]]:
    """STATS, and the per-database counts from LIST (merged through the
    router on the routed stack)."""
    from repro.server import GoodClient

    with GoodClient(*address) as client:
        stats = client.call("STATS")
        counts = {entry["name"]: (entry["nodes"], entry["edges"]) for entry in client.list()["databases"]}
    return stats, counts


def _dir_bytes(root: Path) -> int:
    total = 0
    for folder, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:  # a segment rotated away while walking
                pass
    return total


# ----------------------------------------------------------------------
# one phase: set-up, drive, check
# ----------------------------------------------------------------------

def measure(
    workload: str, seed: int, seconds: float, server: Child, load: Child, work: Path,
    reps: int, trace: bool = False,
) -> Tuple[Phase, Dict[str, Any]]:
    """Set up ``reps`` times (timed), then drive and check the last set-up."""
    from repro.server import GoodClient

    phase = Phase()
    spans: Dict[str, Any] = {}
    try:
        for rep in range(reps):
            folder = work / f"{'traced' if trace else 'run'}-{rep}"
            shutil.rmtree(folder, ignore_errors=True)
            folder.mkdir(parents=True)
            started = time.perf_counter()
            prepared = SETUPS[workload](seed, folder, seconds, server, trace)
            phase.setup_s.append(time.perf_counter() - started)
            if rep < reps - 1:
                server.call(("stop", None))
                shutil.rmtree(folder, ignore_errors=True)
        server.call(("mark", None))
        if workload == "analytics":
            with GoodClient(*prepared.address) as client:
                strategy = client.explain(fp.CYCLIC, db="flights")["strategy"]
            if strategy != "multiway":
                raise Invalid(f"EXPLAIN reports the cyclic pattern as {strategy}, not multiway")
        job = dict(prepared.job, address=prepared.address, seconds=seconds)
        phase.stats_before, _ = _stats(prepared.address)
        with Sampler(prepared.address, prepared.data_dir, trace and workload == "routed") as sampler:
            records, verified = load.call(job)
        phase.lag = sampler.lags
        phase.samples, phase.problems = check_records(prepared.job["stream"], records)
        phase.wall_s = records[-1][2]
        phase.stats_after, counts = _stats(prepared.address)
        for _index, _sent, _done, code, summary in verified:
            if code is not None or summary["total"] != summary["expect"]:
                phase.problems.append(f"read-your-writes: {code or summary}")
        expected = model_counts(prepared, phase.samples)
        for name, value in expected.items():
            if counts.get(name) != value:
                phase.problems.append(f"{name}: served counts {counts.get(name)} != model {value}")
        phase.live_items = sum(n + e for n, e in counts.values())
        phase.store_bytes = sum(b.get("store_bytes", 0) for b in phase.stats_after["databases"].values())
        # averaged over the run: the bytes at any instant depend on where
        # the WAL stands in its checkpoint cycle
        disk = sampler.disk + [(_dir_bytes(prepared.data_dir), phase.live_items)]
        phase.disk_bytes_per_item = sum(b for b, _ in disk) / sum(i for _, i in disk)
        if workload == "ingest" and _delta(phase, "checkpoints") < INGEST_MIN_CHECKPOINTS:
            raise Invalid(
                f"ingest took {_delta(phase, 'checkpoints'):.0f} checkpoints, fewer than {INGEST_MIN_CHECKPOINTS}"
            )
        check = ("flights", expected["flights"]) if workload in ("oltp", "ingest") else None
        spans, problems = server.call(("finish", check))
        phase.problems += problems
    finally:
        server.call(("stop", None))
    return phase, spans


def run(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], List[str]]:
    work = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    load = Child(HERE / "loadgen.py", [str(SRC)])
    server: Optional[Child] = None
    lines: List[str] = []
    try:
        server = Child(HERE / "served.py", [str(SRC)])
        # a traced run reports no set-up time, so it sets up once per phase
        phase, _ = measure(workload, seed, seconds, server, load, work, 1 if trace else SETUP_REPS[workload])
        e2e = phase.end_to_end(workload)
        problems = list(phase.problems)
        lines.append(f"{workload} seed={seed} seconds={seconds} end-to-end (untraced):")
        lines += [f"  {name:28s} {value:14.4f} {unit:6s} n={count}" for name, (value, unit, count) in e2e.items()]
        metrics = {name: e2e[name] for name in END_TO_END}
        if trace:
            traced, spans = measure(workload, seed, seconds, server, load, work, 1, trace=True)
            problems += traced.problems
            layers = layer_metrics(traced, spans)
            traced_e2e = traced.end_to_end(workload)
            for name in ("read_p50_ms", "write_p50_ms", "throughput_ops_s"):
                value, unit, count = traced_e2e[name]
                layers[f"trace.{name}_overhead"] = (value - e2e[name][0], unit, count)
            predictions = json.loads((HERE / "predictions.json").read_text())
            lines.append(f"{workload} per-layer (traced; overhead = traced - untraced):")
            for name, (value, unit, count) in layers.items():
                said = predictions[name]
                flat = f"; flat on {', '.join(said['flat_on'])}" if said["flat_on"] else ""
                lines.append(
                    f"  {name:32s} {value:14.4f} {unit:6s} n={count:<7d} "
                    f"moves {said['moves']} ({', '.join(said['on']) or '-'}){flat}"
                )
            metrics = layers
        for problem in problems:
            lines.append(f"CHECK FAILED: {problem}")
        result = {
            "correct": not problems,
            "attempted": len(phase.samples),
            "failed": sum(1 for s in phase.samples if not s.ok),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
        }
        return result, lines
    finally:
        if server is not None:
            server.close()
        load.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # the last run out tidies up
        except OSError:
            pass


END_TO_END = (
    "setup_s",
    "throughput_ops_s",
    "ingest_items_s",
    "read_p50_ms",
    "read_p95_ms",
    "write_p50_ms",
    "write_p95_ms",
    "within_slo_ratio",
    "store_bytes_per_item",
    "disk_bytes_per_item",
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    exit_on_sigterm()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no GOOD sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
        except Invalid as error:
            print(f"INVALID: {workload}: {error}", file=sys.stderr)
            status = max(status, 3)
            continue
        print("\n".join(lines))
        print(json.dumps(result))
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
