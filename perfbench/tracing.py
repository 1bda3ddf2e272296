"""Spans recorded from outside the program, at the call sites of each layer.

:class:`Tracer` replaces a public callable (a module global or a class
attribute) with a timing wrapper and puts the original back on
:meth:`Tracer.restore`.  Spans live in memory until the run ends.

A span records its request id, its parent span and its start and end
in ``perf_counter_ns``.  The current span travels in a
:mod:`contextvars` variable: asyncio gives every connection task its own
copy, and the wrapper around ``GoodServer.run_blocking`` runs the
blocking work inside a copy of the caller's context, so spans opened on
the worker thread keep the request id and parent of the request that
handed the work over.  Generators are not wrapped; the functions that
consume them are (``Session.matchings``).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("sid", "rid", "parent", "name", "start", "end", "size")

    def __init__(self, sid: int, rid: int, parent: Optional[int], name: str, start: int) -> None:
        self.sid = sid
        self.rid = rid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.size = 0  # bytes, for spans that produce a buffer


class Tracer:
    """Wraps callables, collects spans, restores everything afterwards."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.setup_spans: List[Span] = []

    # -- span bookkeeping ----------------------------------------------
    def _open(self, name: str, new_request: bool = False) -> Tuple[Span, Any]:
        parent = _CURRENT.get()
        if new_request or parent is None:
            rid, parent_id = next(self._requests), None
        else:
            rid, parent_id = parent.rid, parent.sid
        span = Span(next(self._ids), rid, parent_id, name, time.perf_counter_ns())
        return span, _CURRENT.set(span)

    def _close(self, span: Span, token: Any) -> None:
        span.end = time.perf_counter_ns()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append(span)

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- patching ------------------------------------------------------
    def _install(self, owner: Any, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr] if attr in owner.__dict__ else getattr(owner, attr)
        self._patched.append((owner, attr, original, attr in owner.__dict__))
        setattr(owner, attr, wrapper)

    def wrap(
        self, owner: Any, attr: str, name: str, new_request: bool = False,
        sized: bool = False, post: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``new_request`` starts a fresh request id; ``sized`` records
        ``len(result)`` (for byte-producing calls); ``post(args, result)``
        runs after each successful call, outside the span.
        """
        original = getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer._open(name, new_request)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(span, token)

        else:

            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer._open(name, new_request)
                try:
                    result = original(*args, **kwargs)
                    if sized:
                        span.size = len(result)
                finally:
                    tracer._close(span, token)
                if post is not None:
                    post(args, result)
                return result

        self._install(owner, attr, wrapper)

    def wrap_handoff(self, server_class: Any) -> None:
        """Time ``run_blocking`` and carry the caller's context into the
        worker thread, where the work itself is a child span."""
        original = server_class.run_blocking
        tracer = self

        async def run_blocking(server: Any, fn: Callable[[], Any], limits: Any = None) -> Any:
            span, token = tracer._open("server.run_blocking")
            context = contextvars.copy_context()

            def work() -> Any:
                def inner() -> Any:
                    child, child_token = tracer._open("server.work")
                    try:
                        return fn()
                    finally:
                        tracer._close(child, child_token)

                return context.run(inner)

            try:
                return await original(server, work, limits)
            finally:
                tracer._close(span, token)

        self._install(server_class, "run_blocking", run_blocking)

    def observe(self, owner: Any, attr: str, name: str, arg_index: int) -> None:
        """Record positional argument ``arg_index`` of each call as a sample."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.sample(name, args[arg_index])
            return original(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original callable back, newest first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries -----------------------------------------------------
    def by_name(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span)
        return out

    def child_time(self) -> Dict[int, int]:
        """The part of each span's interval its direct children cover, by
        span id (children that overlap, like a fan-out, count once)."""
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out: Dict[int, int] = {}
        for parent, intervals in children.items():
            covered, reach = 0, None
            for start, end in sorted(intervals):
                if reach is None or start > reach:
                    covered += end - start
                    reach = end
                elif end > reach:
                    covered += end - reach
                    reach = end
            out[parent] = covered
        return out

    def mark(self) -> None:
        """End of set-up: keep its spans apart and start the timed phase."""
        self.setup_spans, self.spans = self.spans, []
        self.samples.clear()

    def summary(self) -> Dict[str, Any]:
        """Plain data for the parent process: per span name the durations
        and self times (ms), response sizes, admission waits (from the end
        of frame decode to the start of dispatch, per request id), the
        recorded samples, and the set-up spans' durations."""
        children = self.child_time()
        durations: Dict[str, List[float]] = defaultdict(list)
        own: Dict[str, List[float]] = defaultdict(list)
        sizes: List[int] = []
        decode_end: Dict[int, int] = {}
        for span in self.spans:
            length = span.end - span.start
            durations[span.name].append(length / 1e6)
            own[span.name].append((length - children.get(span.sid, 0)) / 1e6)
            if span.name == "protocol.encode":
                sizes.append(span.size)
            elif span.name == "protocol.decode":
                decode_end[span.rid] = span.end
        admission = [
            (span.start - decode_end[span.rid]) / 1e6
            for span in self.spans
            if span.name == "server.dispatch" and span.rid in decode_end
        ]
        setup: Dict[str, List[float]] = defaultdict(list)
        for span in self.setup_spans:
            setup[span.name].append((span.end - span.start) / 1e6)
        return {
            "durations": dict(durations),
            "own": dict(own),
            "sizes": sizes,
            "admission": admission,
            "samples": {name: list(values) for name, values in self.samples.items()},
            "setup": dict(setup),
        }


def arm_setup(tracer: Any) -> None:
    """Wrap what set-up runs: the instance load behind ``LOAD``."""
    import repro.server.catalog as catalog

    tracer.wrap(catalog, "load_instance", "io.load")


def arm(tracer: Any) -> None:
    """Wrap the public callables of every layer at their call sites.

    Armed after set-up, so the per-item store writes of ``LOAD`` do not
    pay for spans nobody reads.
    """
    import repro.cluster.pool as pool
    import repro.cluster.router as router
    import repro.core.matching as matching
    import repro.core.operations as operations
    import repro.plan as plan
    import repro.plan.executor as executor
    import repro.server.catalog as catalog
    import repro.server.server as server
    import repro.server.session as session
    from repro.graph.store import GraphStore
    from repro.interactive import Session
    from repro.server.stats import ServerStats
    from repro.txn.transaction import Transaction
    from repro.wal.log import CommitTicket
    from repro.wal.manager import CheckpointJob, DatabaseDurability

    tracer.wrap(server.GoodServer, "_serve_frame", "server.request", new_request=True)
    tracer.wrap(router.RouterServer, "_serve_frame", "cluster.request", new_request=True)
    for module in (server, router):
        tracer.wrap(module, "decode_request", "protocol.decode")
        tracer.wrap(module, "encode_frame", "protocol.encode", sized=True)
    tracer.wrap(session.ServerSession, "dispatch", "server.dispatch")
    tracer.wrap_handoff(server.GoodServer)
    tracer.observe(ServerStats, "record_lock_wait", "lock_wait", 2)
    tracer.wrap(catalog.ServedDatabase, "read_view", "mvcc.pin")
    tracer.wrap(
        catalog.ServedDatabase, "publish_version", "mvcc.publish",
        post=lambda args, _result: tracer.sample(
            "versions", args[0].snapshots.gauges()["version_chain_length"]
        ),
    )
    tracer.wrap(catalog, "parse_pattern", "dsl.parse_pattern")
    tracer.wrap(
        catalog, "parse_program", "dsl.parse_program",
        post=lambda _args, program: tracer.sample("statements", len(program.operations)),
    )
    for module in (executor, matching, plan):
        tracer.wrap(module, "plan_for", "plan.plan")
    tracer.wrap(Session, "matchings", "plan.execute")
    for name in ("NodeAddition", "EdgeAddition", "NodeDeletion", "EdgeDeletion", "Abstraction"):
        tracer.wrap(
            getattr(operations, name), "apply", "operations.apply",
            post=lambda _args, report: tracer.sample("op_matchings", report.matching_count),
        )
    tracer.wrap(Session, "update", "interactive.update")
    for name in ("add_node", "remove_node", "set_print", "add_edge", "remove_edge"):
        tracer.wrap(GraphStore, name, "graph.write")
    tracer.wrap(GraphStore, "fork", "graph.fork")
    tracer.wrap(Transaction, "rollback", "txn.rollback")
    tracer.wrap(DatabaseDurability, "commit_journal", "wal.append")
    tracer.wrap(CommitTicket, "wait", "wal.durable_wait")
    tracer.wrap(CheckpointJob, "stream", "wal.checkpoint")
    tracer.wrap(router.RouterServer, "dispatch", "cluster.router")
    tracer.wrap(pool.WorkerPool, "call", "cluster.pool_call")


