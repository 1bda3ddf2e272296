"""The load process: sends a prepared request stream and times each reply.

Run as ``python3 perfbench/loadgen.py <src>``, a helper process of the
benchmark (:mod:`channel`), so the client's work never shares an
interpreter lock with the server under test.  :func:`serve` waits for
one job on its stdin, drives it, and sends back one record per request:

``(index, sent, done, code, summary)`` with times in seconds from the
start of the run, ``code`` ``None`` on success or the error code, and
``summary`` the response fields the model predicts.

A job is one closed loop on one connection: it sends its next request
when the previous one returns, and stops at the first whole ``cycle`` of
requests after the window, so every run measures whole repetitions of
its mix.
"""

from __future__ import annotations

import gc
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from channel import Channel, from_parent

Record = Tuple[int, float, float, Optional[str], Dict[str, Any]]


def summarize(verb: str, result: Dict[str, Any]) -> Dict[str, Any]:
    """The fields of a response that the model predicts."""
    if verb == "MATCH":
        return {"total": result["total"], "returned": result["returned"]}
    if verb == "BROWSE":
        return {"nodes": len(result["nodes"]), "edges": len(result["view"]["edges"])}
    reports = [
        {key: report[key] for key in ("matchings", "nodes_added", "nodes_removed", "edges_added", "edges_removed")}
        for report in result.get("reports", ())
    ]
    out: Dict[str, Any] = {"reports": reports, "statements": len(reports)}
    if verb == "RUN":
        out.update(nodes=result["nodes"], edges=result["edges"])
    return out


def _drive(
    client: Any,
    remote_error: type,
    stream: List[Dict[str, Any]],
    start: float,
    stop_at: float,
    cycle: int,
    out: List[Record],
) -> None:
    for index, req in enumerate(stream):
        sent = time.perf_counter() - start
        if sent >= stop_at and index % cycle == 0:
            break
        code: Optional[str] = None
        summary: Dict[str, Any] = {}
        try:
            summary = summarize(req["verb"], client.call(req["verb"], **req["args"]))
        except remote_error as error:
            code = error.code
        except (OSError, ValueError) as error:
            code = f"CLIENT:{type(error).__name__}"
        done = time.perf_counter() - start
        out.append((index, sent, done, code, summary))


def read_your_writes(
    client: Any, remote_error: type, stream: List[Dict[str, Any]], records: List[Record]
) -> List[Record]:
    """Untimed, on the same session: every acknowledged Log write must be
    visible to a MATCH on its flight's unique code.

    Returns records whose summary carries the observed ``total`` and the
    ``expect``-ed one (1 after an add, 0 after a delete).
    """
    last: Dict[Tuple[Any, ...], bool] = {}
    for index, _sent, _done, code, _summary in records:
        req = stream[index]
        if code is None and "readback" in req:
            key = tuple(sorted(req["readback"].items()))
            last[key] = req["kind"] == "add_log"
    out: List[Record] = []
    for key, logged in last.items():
        code: Optional[str] = None
        total = None
        try:
            total = client.call("MATCH", **dict(key))["total"]
        except remote_error as error:
            code = error.code
        out.append((-1, 0.0, 0.0, code, {"total": total, "expect": int(logged)}))
    return out


def run_job(src: str, job: Dict[str, Any]) -> Tuple[List[Record], List[Record]]:
    """Drive ``job['stream']`` against ``job['address']``; returns its
    records and, when ``job['verify']`` is set, the read-your-writes
    records."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.server.client import GoodClient, RemoteError

    host, port = job["address"]
    with GoodClient(host, port, timeout=120.0) as client:
        if job.get("use"):
            client.use(job["use"])
        records: List[Record] = []
        # the client's own collector pauses are not the server's latency
        gc.disable()
        try:
            _drive(client, RemoteError, job["stream"], time.perf_counter(), job["seconds"], job["cycle"], records)
        finally:
            gc.enable()
        verified = read_your_writes(client, RemoteError, job["stream"], records) if job.get("verify") else []
    return records, verified


def serve(src: str, conn: Channel) -> None:
    """Answer jobs until ``None`` or end of file arrives."""
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        try:
            reply = ("ok", run_job(src, job))
        except Exception as error:  # reported to the parent, which fails the run
            reply = ("error", f"{type(error).__name__}: {error}")
        try:
            conn.send(reply)
        except BrokenPipeError:  # the parent is gone
            return


if __name__ == "__main__":
    serve(sys.argv[1], from_parent())
