"""The server process: the system under test, apart from the benchmark.

Run as ``python3 perfbench/served.py <src>``, a helper process of the
benchmark (:mod:`channel`), so the server's heap, interpreter lock and
garbage collector hold only the server's own state, never the
benchmark's model or request streams.  It answers commands from the
parent on its stdin:

* ``("start", options)``: boot a stack and return its address.
  :class:`ServedStack` is one :class:`~repro.server.GoodServer` over a
  WAL data directory; :class:`RoutedStack` is
  ``start_cluster(workers=2, replicas=1)``, the router in this process
  and the workers and replica as its children.  With ``trace`` set, the
  instance load is wrapped first (:mod:`tracing`).
* ``("mark", None)``: set-up is over; the remaining layers are wrapped
  and spans from here on are timed work.
* ``("finish", check)``: stop the stack and return the span summary plus
  the problems the durability check found (``check`` names the database
  and its model counts, or is ``None``).
* ``("stop", None)``: stop the stack, if any.  ``None``, end of file or
  SIGTERM stops the stack and ends the process.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from channel import Channel, from_parent
from tracing import Tracer, arm, arm_setup

#: One group-commit fsync policy for every durable workload, so both
#: sides of any comparison flush the same way.
FSYNC = "group:2"


class ServedStack:
    """A durable single server in a background thread of this process."""

    def __init__(self, data_dir: Path, checkpoint_bytes: int) -> None:
        from repro.server import BackgroundServer, GoodServer
        from repro.wal import recover_catalog

        self.data_dir = data_dir
        catalog, _report = recover_catalog(
            data_dir, fsync_policy=FSYNC, checkpoint_bytes=checkpoint_bytes
        )
        self.catalog = catalog
        self.server = GoodServer(catalog)
        self.background: Optional[Any] = BackgroundServer(self.server)
        self.address = self.background.start()

    def close(self) -> None:
        """Stop serving and release the data directory; the in-memory
        databases stay readable."""
        if self.background is not None:
            self.background.stop()
            self.background = None
            self.catalog.close_durability()


class RoutedStack:
    """Router in this process; two shard workers and one WAL-tailing
    replica as child processes."""

    def __init__(self, data_dir: Path, checkpoint_bytes: int) -> None:
        from repro.cluster import start_cluster

        self.data_dir = data_dir
        self.cluster = start_cluster(
            workers=2, replicas=1, data_dir=data_dir, fsync=FSYNC,
            checkpoint_bytes=checkpoint_bytes,
        )
        self.address = self.cluster.address

    def close(self) -> None:
        self.cluster.stop()


# ----------------------------------------------------------------------
# durability check
# ----------------------------------------------------------------------

def _state(instance: Any) -> Tuple[List[Tuple[Any, ...]], List[Tuple[int, str, int]]]:
    nodes = []
    for node_id in instance.nodes():
        record = instance.node_record(node_id)
        nodes.append((node_id, record.label, record.print_value if record.has_print else None))
    edges = sorted((e.source, e.label, e.target) for e in instance.edges())
    return sorted(nodes, key=lambda n: n[0]), edges


def _neighbourhood(instance: Any, seeds: List[int]) -> Any:
    """A fresh-id copy of the 1-hop neighbourhood of ``seeds``."""
    from repro.core.instance import Instance
    from repro.interactive import Session

    session = Session(instance)
    kept: set = set()
    for node in seeds:
        kept.update(session.browse(node, hops=1).nodes)
    view = Instance(instance.scheme)
    fresh: Dict[int, int] = {}
    for node in sorted(kept):
        record = instance.node_record(node)
        if instance.scheme.is_printable_label(record.label):
            fresh[node] = view.add_printable(record.label, record.print_value)
        else:
            fresh[node] = view.add_object(record.label)
    for node in sorted(kept):
        for edge in instance.store.out_edges(node):
            if edge.target in kept:
                view.add_edge(fresh[node], edge.label, fresh[edge.target])
    return view


#: the isomorphism check covers the neighbourhood of this many of the
#: newest objects: repro.graph.iso takes ~30 s on a whole 47k-node base
#: on a 2-core machine
ISO_SEEDS = 200


def recovered_matches(stack: ServedStack, name: str, expected: Tuple[int, int]) -> List[str]:
    """Stop the server, recover its data dir, and compare.

    Recovery preserves node ids, so the whole recovered state must equal
    the live one exactly; on top of that the neighbourhood of the newest
    objects (the ones the WAL replayed) must be ``repro.graph.iso``
    isomorphic, and the counts must equal the model's.
    """
    from repro.graph.iso import isomorphic
    from repro.wal import recover_catalog

    live = stack.catalog.get(name).to_instance()
    stack.close()
    catalog, _report = recover_catalog(stack.data_dir, fsync_policy="off")
    try:
        recovered = catalog.get(name).to_instance()
        problems = []
        live_state, recovered_state = _state(live), _state(recovered)
        if live_state != recovered_state:
            problems.append(f"{name}: recovered state differs from the live state")
        counts = (len(recovered_state[0]), len(recovered_state[1]))
        if counts != expected:
            problems.append(f"{name}: recovered counts {counts} != model {expected}")
        objects = [
            n for n in live.nodes() if not live.scheme.is_printable_label(live.node_record(n).label)
        ]
        seeds = objects[-ISO_SEEDS:]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))
        try:
            same = isomorphic(_neighbourhood(live, seeds).store, _neighbourhood(recovered, seeds).store)
        finally:
            sys.setrecursionlimit(limit)
        if not same:
            problems.append(f"{name}: recovered neighbourhood is not isomorphic to the live one")
        return problems
    finally:
        catalog.close_durability()


# ----------------------------------------------------------------------
# the command loop
# ----------------------------------------------------------------------

class _Process:
    def __init__(self) -> None:
        self.stack: Any = None
        self.tracer: Optional[Tracer] = None

    def start(self, options: Dict[str, Any]) -> Tuple[str, int]:
        if options["trace"]:
            self.tracer = Tracer()
            arm_setup(self.tracer)
        kind = RoutedStack if options["routed"] else ServedStack
        self.stack = kind(Path(options["data_dir"]), options["checkpoint_bytes"])
        return self.stack.address

    def mark(self) -> None:
        if self.tracer is not None:
            self.tracer.mark()
            arm(self.tracer)

    def finish(self, check: Optional[Tuple[str, Tuple[int, int]]]) -> Tuple[Dict[str, Any], List[str]]:
        summary: Dict[str, Any] = {}
        if self.tracer is not None:
            self.tracer.restore()
            summary.update(self.tracer.summary())
            self.tracer = None
        problems = recovered_matches(self.stack, *check) if check else []
        self.stop()
        return summary, problems

    def stop(self) -> None:
        if self.tracer is not None:
            self.tracer.restore()
            self.tracer = None
        if self.stack is not None:
            stack, self.stack = self.stack, None
            stack.close()


def serve(src: str, conn: Channel) -> None:
    """Answer commands until ``None`` or end of file arrives."""
    if src not in sys.path:
        sys.path.insert(0, src)
    process = _Process()
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message is None:
                return
            command, argument = message
            try:
                if command == "start":
                    reply: Any = process.start(argument)
                elif command == "mark":
                    reply = process.mark()
                elif command == "finish":
                    reply = process.finish(argument)
                else:
                    reply = process.stop()
            except Exception as error:  # reported to the parent, which fails the run
                process.stop()
                conn.send(("error", f"{command}: {type(error).__name__}: {error}"))
            else:
                conn.send(("ok", reply))
    finally:
        process.stop()


if __name__ == "__main__":
    serve(sys.argv[1], from_parent())
