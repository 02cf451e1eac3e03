"""Span tracing for the benchmark's traced runs.

:func:`install` wraps the public functions of each layer -- from the
benchmark's side, with nothing added inside ``src/`` -- so that every
call becomes a span: name, start, end, parent span, request id, plus
the name of the root span of its call tree (``stripes.query``,
``sharding.update``, ...).  Spans stay in per-thread lists until
:meth:`Tracer.dump` writes them out as JSON.  Node reads, too hot
and partly inlined by the descent, are counted from ``NodeCache``'s
hit/miss counters around each search.

:func:`layer_metrics` reduces the spans and counts of one traced phase
to the benchmark's per-layer metrics.  A span's self time is its
duration minus its children's (children run on the span's own thread,
one after another, so their durations never overlap).
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core import query_region as _query_region
from repro.core import stripes as _stripes
from repro.core.dual import DualSpace
from repro.core.nodes import LeafExtension, LeafNode, NodeCodec
from repro.core.quadtree import DualQuadTree
from repro.core.query_region import QueryRegion2D
from repro.query.predicates import MovingQueryEvaluator
from repro.service import sharding as _sharding
from repro.service.engine import ShardMirror
from repro.service.service import StripesService
from repro.service.sharding import RWLock, ShardedStripes
from repro.storage.buffer_pool import BufferPool
from repro.storage.node_store import RecordStore

from measure import percentile

#: Root spans whose trees are query work, and update work.
QUERY_ROOTS = ("stripes.query", "sharding.query_batch")
UPDATE_ROOTS = ("stripes.update", "sharding.update")

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "request",
               "root")


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "rid", "waits")

    def __init__(self) -> None:
        self.stack: List[tuple] = []      # (span id, root name, name)
        self.spans: List[tuple] = []
        self.counts: Dict[tuple, int] = defaultdict(int)
        self.rid: object = None
        self.waits: List[int] = []        # queue waits, ns


class Tracer:
    """In-memory span store; records only while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.ids = itertools.count(1)
        #: id(query) -> (perf_counter_ns, request id) at
        #: StripesService.submit.
        self.submitted: Dict[int, tuple] = {}
        self.gc_pauses_ns: List[int] = []
        self._gc_start = 0

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def spans(self) -> List[tuple]:
        out: List[tuple] = []
        for st in self._states:
            out.extend(st.spans)
        return out

    def counts(self) -> Dict[tuple, int]:
        total: Dict[tuple, int] = defaultdict(int)
        for st in self._states:
            for key, value in st.counts.items():
                total[key] += value
        return total

    def queue_waits_ns(self) -> List[int]:
        out: List[int] = []
        for st in self._states:
            out.extend(st.waits)
        return out

    def on_gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self.enabled:
            self.gc_pauses_ns.append(time.perf_counter_ns() - self._gc_start)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans()}, fh,
                      separators=(",", ":"), default=str)


def _span(tracer: Tracer, name: str, fn: Callable,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each call while tracing records one span.

    ``before(st, is_root, args)`` returns a token handed to
    ``after(st, root, is_root, args, result, token)``; both run outside
    the span's interval.
    """
    clock = time.perf_counter_ns
    ids = tracer.ids

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        st = tracer.state()
        stack = st.stack
        if stack:
            pid, root, _ = stack[-1]
        else:
            pid, root = 0, name
        token = before(st, pid == 0, args) if before is not None else None
        sid = next(ids)
        stack.append((sid, root, name))
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            st.spans.append((sid, name, t0, t1, pid, st.rid, root))
        if after is not None:
            after(st, root, pid == 0, args, result, token)
        return result

    return wrapper


class _TimedAcquire:
    """Context manager recording the acquisition of ``cm`` as a span."""

    __slots__ = ("tracer", "name", "cm")

    def __init__(self, tracer: Tracer, name: str, cm) -> None:
        self.tracer, self.name, self.cm = tracer, name, cm

    def __enter__(self):
        st = self.tracer.state()
        pid, root, _ = st.stack[-1] if st.stack else (0, self.name, None)
        t0 = time.perf_counter_ns()
        self.cm.__enter__()
        t1 = time.perf_counter_ns()
        st.spans.append((next(self.tracer.ids), self.name, t0, t1, pid,
                         st.rid, root))
        return None

    def __exit__(self, *exc):
        return self.cm.__exit__(*exc)


def _pool_counters(pools) -> tuple:
    lr = pr = pw = ev = 0
    for pool in pools:
        s = pool.stats
        lr += s.logical_reads
        pr += s.physical_reads
        pw += s.physical_writes
        ev += s.evictions
    return lr, pr, pw, ev


def _io_before(pools_of: Callable, roots_only: bool = True) -> Callable:
    def before(st, is_root, args):
        if roots_only and not is_root:
            return None
        return _pool_counters(pools_of(args))
    return before


def _io_after(pools_of: Callable, results_of: Optional[Callable] = None
              ) -> Callable:
    def after(st, root, is_root, args, result, token):
        if results_of is not None:
            st.counts[(root, "results")] += results_of(args, result)
        if token is None:
            return
        now = _pool_counters(pools_of(args))
        for key, a, b in zip(("logical_reads", "physical_reads",
                              "physical_writes", "evictions"), token, now):
            st.counts[(root, key)] += b - a
    return after


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer function; returns the uninstaller."""
    patches: List[tuple] = []

    def patch(owner, attr, new) -> None:
        own = vars(owner)
        patches.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, new)

    def span(owner, attr, name, **hooks) -> None:
        patch(owner, attr, _span(tracer, name, getattr(owner, attr),
                                 **hooks))

    # Page IO is charged where no other thread can touch the same pool:
    # library calls, a shard's tree batch (under its read lock and tree
    # mutex) and a sharded update (under its shard's write lock).
    def index_pools(args):
        return [args[0].pool]

    def update_pools(args):
        sharded, old, new = args[:3]
        sids = {sharded.policy.shard_of(obj, sharded.n_shards)
                for obj in (old, new) if obj is not None}
        return [sharded.shards[sid].index.pool for sid in sids]

    # core.stripes: library roots and the per-shard batch call.
    span(_stripes.StripesIndex, "query", "stripes.query",
         before=_io_before(index_pools),
         after=_io_after(index_pools, lambda a, r: len(r)))
    span(_stripes.StripesIndex, "update", "stripes.update",
         before=_io_before(index_pools), after=_io_after(index_pools))
    span(_stripes.StripesIndex, "query_batch", "stripes.query_batch",
         before=_io_before(index_pools, roots_only=False),
         after=_io_after(index_pools,
                         lambda a, r: sum(len(x) for x in r)))

    # core.quadtree.  Node reads are counted from the NodeCache hit/miss
    # counters, which the descent maintains even where it inlines get().
    def cache_reads(st, is_root, args):
        cache = args[0].cache
        return cache.hits, cache.misses

    def count_search(st, root, is_root, args, result, token):
        cache = args[0].cache
        st.counts[(root, "candidates")] += len(result[0])
        st.counts[(root, "node_hits")] += cache.hits - token[0]
        st.counts[(root, "node_misses")] += cache.misses - token[1]
    span(DualQuadTree, "search_columns", "quadtree.search",
         before=cache_reads, after=count_search)
    for attr in ("insert", "delete", "insert_batch", "delete_batch",
                 "update_batch"):
        span(DualQuadTree, attr, "quadtree.update")

    # core.query_region
    for attr in ("classify_quads", "classify_rect"):
        span(QueryRegion2D, attr, "query_region.classify")
    wrapped_build = _span(tracer, "query_region.build",
                          _query_region.build_query_regions)
    patch(_query_region, "build_query_regions", wrapped_build)
    patch(_stripes, "build_query_regions", wrapped_build)

    # query.predicates
    span(MovingQueryEvaluator, "matches_batch", "predicates.refine")

    # core.nodes
    span(NodeCodec, "deserialize", "nodes.decode")
    span(NodeCodec, "serialize", "nodes.encode")
    span(LeafNode, "soa", "nodes.soa")
    span(LeafExtension, "soa", "nodes.soa")

    # core.dual
    span(DualSpace, "to_dual", "dual.transform")
    span(DualSpace, "to_dual_batch", "dual.transform")

    # storage.node_store: record writes are spans.
    for attr in ("write", "write_many", "allocate", "free"):
        span(RecordStore, attr, "node_store.write")

    # storage.buffer_pool
    span(BufferPool, "fetch", "buffer_pool.fetch")

    # service.service: submit times feed the queue-wait measurement.
    submit = StripesService.submit

    @functools.wraps(submit)
    def timed_submit(self, query, *args, **kwargs):
        if tracer.enabled:
            tracer.submitted[id(query)] = (time.perf_counter_ns(),
                                           tracer.state().rid)
        return submit(self, query, *args, **kwargs)
    patch(StripesService, "submit", timed_submit)

    # service.sharding
    def batch_before(st, is_root, args):
        # A batch's spans carry the request ids of all its queries.
        now = time.perf_counter_ns()
        pop = tracer.submitted.pop
        rids = []
        for q in args[1]:
            submitted = pop(id(q), None)
            if submitted is not None:
                st.waits.append(now - submitted[0])
                rids.append(submitted[1])
        st.rid = tuple(rids)

    def batch_after(st, root, is_root, args, result, token):
        st.counts[(root, "batches")] += 1
        st.counts[(root, "queries")] += len(args[1])
    span(ShardedStripes, "query_batch", "sharding.query_batch",
         before=batch_before, after=batch_after)
    span(ShardedStripes, "update", "sharding.update",
         before=_io_before(update_pools), after=_io_after(update_pools))
    for attr in ("read", "write"):
        acquire = getattr(RWLock, attr)
        name = f"sharding.{attr}_lock_wait"

        def timed_acquire(self, _acquire=acquire, _name=name):
            cm = _acquire(self)
            if not tracer.enabled:
                return cm
            return _TimedAcquire(tracer, _name, cm)
        patch(RWLock, attr, timed_acquire)

    # service.engine
    patch(_sharding, "evaluate_batch",
          _span(tracer, "engine.evaluate", _sharding.evaluate_batch))
    for attr in ("note_insert", "note_delete", "note_insert_batch",
                 "note_delete_batch", "sync_windows"):
        span(ShardMirror, attr, "engine.mirror")

    gc.callbacks.append(tracer.on_gc)

    def uninstall() -> None:
        """Restore every wrapped function; safe to call twice."""
        if tracer.on_gc in gc.callbacks:
            gc.callbacks.remove(tracer.on_gc)
        while patches:
            owner, attr, old, had = patches.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    return uninstall


def _child_ns(spans) -> Dict[int, int]:
    """Span id -> total duration of its direct children, in ns."""
    child: Dict[int, int] = defaultdict(int)
    for sid, name, t0, t1, pid, rid, root in spans:
        if pid:
            child[pid] += t1 - t0
    return child


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of the spans and counts recorded so far.

    ``wall_s`` is the traced phase's wall time (GC pause rate base).
    Query metrics are per query, update metrics per update; a metric of
    a layer the workload never reached reads 0.
    """
    spans = tracer.spans()
    names = {s[0]: s[1] for s in spans}
    child = _child_ns(spans)
    cnt: Dict[tuple, int] = defaultdict(int)
    incl: Dict[tuple, int] = defaultdict(int)   # outermost same-name spans
    self_ns: Dict[tuple, int] = defaultdict(int)
    for sid, name, t0, t1, pid, rid, root in spans:
        kind = ("q" if root in QUERY_ROOTS else
                "u" if root in UPDATE_ROOTS else "-")
        key = (kind, name)
        cnt[key] += 1
        self_ns[key] += (t1 - t0) - child[sid]
        if names.get(pid) != name:
            incl[key] += t1 - t0
    counts: Dict[tuple, int] = defaultdict(int)
    for (root, what), value in tracer.counts().items():
        kind = ("q" if root in QUERY_ROOTS else
                "u" if root in UPDATE_ROOTS else "-")
        counts[(kind, what)] += value

    nq = cnt[("q", "stripes.query")] + counts[("q", "queries")]
    nu = cnt[("u", "stripes.update")] + cnt[("u", "sharding.update")]
    batches = counts[("q", "batches")]
    per_q = lambda ns: _ratio(ns, nq) / 1e6  # noqa: E731  (ms per query)
    per_u = lambda ns: _ratio(ns, nu) / 1e6  # noqa: E731
    io = lambda kind, what: counts[(kind, what)]  # noqa: E731
    nodes = counts[("q", "node_hits")] + counts[("q", "node_misses")]
    logical = io("q", "logical_reads") + io("u", "logical_reads")
    physical = io("q", "physical_reads") + io("u", "physical_reads")
    waits = tracer.queue_waits_ns()
    lock_wait = lambda name: _ratio(  # noqa: E731  (ms per acquisition)
        sum(incl[(k, name)] for k in "qu-"),
        sum(cnt[(k, name)] for k in "qu-")) / 1e6
    return {
        "quadtree.search_self_ms": per_q(self_ns[("q", "quadtree.search")]),
        "quadtree.nodes_per_query":
            _ratio(nodes, nq),
        "quadtree.update_self_ms": per_u(self_ns[("u", "quadtree.update")]),
        "query_region.classify_calls_per_query":
            _ratio(cnt[("q", "query_region.classify")], nq),
        "query_region.classify_ms":
            per_q(incl[("q", "query_region.classify")]),
        "query_region.build_us":
            per_q(incl[("q", "query_region.build")]) * 1e3,
        "predicates.refine_ms": per_q(incl[("q", "predicates.refine")]),
        "predicates.candidates_per_query":
            _ratio(counts[("q", "candidates")], nq),
        "predicates.survivor_ratio":
            _ratio(counts[("q", "results")], counts[("q", "candidates")]),
        "nodes.decode_per_query": _ratio(cnt[("q", "nodes.decode")], nq),
        "nodes.decode_ms": per_q(incl[("q", "nodes.decode")]
                                 + incl[("q", "nodes.soa")]),
        "nodes.encode_ms": per_u(incl[("u", "nodes.encode")]),
        "dual.transform_us": per_u(incl[("u", "dual.transform")]) * 1e3,
        "stripes.query_self_ms": per_q(self_ns[("q", "stripes.query")]),
        "stripes.query_batch_ms":
            _ratio(incl[("q", "stripes.query_batch")], batches) / 1e6,
        "node_store.cache_hit_ratio":
            1.0 - _ratio(counts[("q", "node_misses")], nodes),
        "node_store.write_ms": per_u(incl[("u", "node_store.write")]),
        "buffer_pool.query_io":
            _ratio(io("q", "physical_reads") + io("q", "physical_writes"),
                   nq),
        "buffer_pool.update_io":
            _ratio(io("u", "physical_reads") + io("u", "physical_writes"),
                   nu),
        "buffer_pool.logical_reads_per_query":
            _ratio(io("q", "logical_reads"), nq),
        "buffer_pool.physical_reads_per_query":
            _ratio(io("q", "physical_reads"), nq),
        "buffer_pool.hit_ratio": 1.0 - _ratio(physical, logical),
        "buffer_pool.evictions_per_op":
            _ratio(io("q", "evictions") + io("u", "evictions"), nq + nu),
        "buffer_pool.fetch_ms": per_q(incl[("q", "buffer_pool.fetch")]),
        "buffer_pool.physical_writes_per_update":
            _ratio(io("u", "physical_writes"), nu),
        "service.queue_wait_p50_ms": percentile(waits, 50.0) / 1e6,
        "service.queue_wait_p99_ms": percentile(waits, 99.0) / 1e6,
        "service.batch_size_mean": _ratio(counts[("q", "queries")], batches),
        "sharding.fanout_ms":
            _ratio(incl[("q", "sharding.query_batch")], batches) / 1e6,
        "sharding.read_lock_wait_ms": lock_wait("sharding.read_lock_wait"),
        "sharding.write_lock_wait_ms": lock_wait("sharding.write_lock_wait"),
        "sharding.update_ms": per_u(incl[("u", "sharding.update")]),
        "engine.evaluate_ms":
            _ratio(incl[("q", "engine.evaluate")], batches) / 1e6,
        "engine.mirror_ms": per_u(incl[("u", "engine.mirror")]),
        "runtime.gc_pause_ms":
            _ratio(sum(tracer.gc_pauses_ns) / 1e6, wall_s),
    }


def query_breakdown(tracer: Tracer) -> Dict[str, float]:
    """Self time of every span name under query roots, in ms."""
    spans = tracer.spans()
    child = _child_ns(spans)
    out: Dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, pid, rid, root in spans:
        if root in QUERY_ROOTS:
            out[name] += ((t1 - t0) - child[sid]) / 1e6
    return dict(out)
