"""Library workloads: one closed-loop caller replaying the op stream
through ``StripesIndex.update`` / ``StripesIndex.query``."""

from __future__ import annotations

import gc
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.scan import ScanIndex

import tracing
from measure import latency_summary, median, peak_rss_mb
from workloads import UPDATE, Setup, build, timed_builds


@dataclass
class Phase:
    """What one replay phase did and how long it took.

    Per-op times are CPU time of the calling thread: the library call is
    single-threaded and does no IO wait (in-memory page file), so on an
    idle core CPU time equals wall time, and on a shared one it leaves
    out the time the process was descheduled.  Wall times are kept
    alongside.
    """

    start: int
    end: int = 0
    wall_s: float = 0.0
    #: Process CPU time of the whole phase.
    cpu_s: float = 0.0
    query_s: List[float] = field(default_factory=list)
    update_s: List[float] = field(default_factory=list)
    query_wall_s: List[float] = field(default_factory=list)
    update_wall_s: List[float] = field(default_factory=list)
    #: Physical reads + writes charged to queries / updates.
    query_io: int = 0
    update_io: int = 0
    #: Op index -> query answer, for the oracle check.
    results: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return self.end - self.start

    def absorb(self, later: "Phase") -> None:
        """Append ``later``, a phase that starts where this one ends."""
        self.end = later.end
        self.wall_s += later.wall_s
        self.cpu_s += later.cpu_s
        self.query_s += later.query_s
        self.update_s += later.update_s
        self.query_wall_s += later.query_wall_s
        self.update_wall_s += later.update_wall_s
        self.query_io += later.query_io
        self.update_io += later.update_io
        self.results.update(later.results)


def replay(setup: Setup, start: int, count: int, tracer=None) -> Phase:
    """Replay the ``count`` ops from ``start``, timing each op.  Under
    ``tracer`` each op's spans carry the op index as their request id."""
    thread = tracer.state() if tracer is not None else None
    index = setup.index
    stats = index.pool.stats
    ops = setup.ops
    stop = start + count
    if stop > len(ops):
        raise RuntimeError(
            f"op stream exhausted: ops {start}..{stop} asked of "
            f"{len(ops)}; raise 'operations' for {setup.name} in spec.json")
    clock = time.perf_counter
    cpu = time.thread_time
    phase = Phase(start)
    results = phase.results
    query_io = update_io = 0
    cpu_began = time.process_time()
    began = clock()
    i = start
    while i < stop:
        op = ops[i]
        if thread is not None:
            thread.rid = i
        io0 = stats.physical_reads + stats.physical_writes
        is_update = op[0] == UPDATE
        t0 = clock()
        c0 = cpu()
        if is_update:
            index.update(op[1], op[2])
        else:
            answer = index.query(op[1])
        c1 = cpu()
        t1 = clock()
        io = stats.physical_reads + stats.physical_writes - io0
        if is_update:
            phase.update_s.append(c1 - c0)
            phase.update_wall_s.append(t1 - t0)
            update_io += io
        else:
            phase.query_s.append(c1 - c0)
            phase.query_wall_s.append(t1 - t0)
            query_io += io
            results[i] = answer
        i += 1
    phase.wall_s = clock() - began
    phase.cpu_s = time.process_time() - cpu_began
    phase.end = i
    phase.query_io, phase.update_io = query_io, update_io
    return phase


@dataclass
class Batch:
    """Queries of the stream answered again through ``query_batch``."""

    cpu_s: float = 0.0
    #: Op index -> (op index of the state it was answered at, answer).
    results: Dict[int, Tuple[int, List[int]]] = field(default_factory=dict)

    def ask(self, setup: Setup, positions: List[int], at: int,
            size: int) -> None:
        """Answer the queries at ``positions`` on the index as it stands
        (ops before ``at`` applied), ``size`` at a time, adding the
        calling thread's CPU time to ``cpu_s``."""
        cpu = time.thread_time
        for k in range(0, len(positions), size):
            chunk = positions[k:k + size]
            queries = [setup.ops[i][1] for i in chunk]
            c0 = cpu()
            answers = setup.index.query_batch(queries)
            self.cpu_s += cpu() - c0
            self.results.update((i, (at, answer))
                                for i, answer in zip(chunk, answers))


def _sample(positions: List[int], samples: int) -> List[int]:
    step = max(1, len(positions) // samples)
    return positions[step - 1::step][:samples]


def oracle_check(setup: Setup, results: Dict[int, List[int]],
                 samples: int, batch: Optional[Batch] = None) -> tuple:
    """Replay the same updates into :class:`ScanIndex` and compare a
    sample of answers at the op position where each was produced, and
    (given ``batch``) a sample of the batch answers at the position
    where each of those was produced.

    Returns ``(checked, mismatches)``.
    """
    checks = [(pos, pos, results[pos])
              for pos in _sample(sorted(results), samples)]
    if batch is not None:
        checks += [(batch.results[pos][0], pos, batch.results[pos][1])
                   for pos in _sample(sorted(batch.results), samples)]
    checks.sort()
    oracle = ScanIndex(setup.config.lifetime)
    for state in setup.initial:
        oracle.insert(state)
    ops = setup.ops
    mismatches = 0
    i = 0
    for at, pos, answer in checks:
        for op in ops[i:at]:
            if op[0] == UPDATE:
                oracle.update(op[1], op[2])
        i = at
        if sorted(oracle.query(ops[pos][1])) != sorted(answer):
            mismatches += 1
    return len(checks), mismatches


def timed_phase(setup: Setup, params, seconds: float) -> tuple:
    """The timed phase: ``timed_ops`` ops from the end of the prefix,
    replayed in ``batch_rounds`` rounds; after each round every
    ``batch_stride``-th query of the round is answered again through
    ``query_batch``, so the batch figure samples the same stretch of
    time as the per-op ones.  Returns ``(phase, batch)``."""
    count = timed_ops(params, seconds)
    rounds = params["batch_rounds"]
    phase = Phase(params["prefix_ops"])
    phase.end = phase.start
    batch = Batch()
    for r in range(rounds):
        part = replay(setup, phase.end, count * (r + 1) // rounds
                      - count * r // rounds)
        phase.absorb(part)
        batch.ask(setup, sorted(part.results)[::params["batch_stride"]],
                  part.end, params["batch_size"])
    return phase, batch


def exact_counts(setup: Setup, phase: Phase, tracer) -> Dict[str, int]:
    """Counts that must repeat exactly for one seed and op range, from
    a phase replayed under ``tracer`` (a :class:`tracing.Tracer`)."""
    counts = tracer.counts()
    calls = Counter(span[1] for span in tracer.spans())

    q, u = "stripes.query", "stripes.update"
    return {
        "ops": phase.ops,
        "queries": len(phase.query_s),
        "query_io": phase.query_io,
        "update_io": phase.update_io,
        "logical_reads": counts[(q, "logical_reads")]
        + counts[(u, "logical_reads")],
        "nodes_visited": counts[(q, "node_hits")] + counts[(q, "node_misses")],
        "classify_calls": calls["query_region.classify"],
        "decodes": calls["nodes.decode"],
        "candidates": counts[(q, "candidates")],
        "hits": sum(len(r) for r in phase.results.values()),
        "bytes_in_use": setup.pages_in_use() * setup.page_size(),
        "live_objects": setup.live_objects(),
    }


def timed_ops(params, seconds: float) -> int:
    """Ops in the timed phase: a fixed count for one ``seconds``, so
    that every run of a seed, on any commit, times the same ops."""
    return round(params["timed_ops_per_second"] * seconds)


def run(spec, name: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    """One benchmark run of library workload ``name``."""
    params = spec["workloads"][name]
    prefix = params["prefix_ops"]
    if trace:
        return _run_traced(spec, name, seed, seconds, out_dir)
    setup, setup_times = timed_builds(spec, name, seed)
    replay(setup, 0, prefix)
    phase, batch = timed_phase(setup, params, seconds)
    bytes_per_object = (setup.pages_in_use() * setup.page_size()
                        / setup.live_objects())
    rss = peak_rss_mb()
    checked, mismatches = oracle_check(setup, phase.results,
                                       params["oracle_samples"], batch)
    q = latency_summary(phase.query_s)
    u = latency_summary(phase.update_s)
    nq, nu = len(phase.query_s), len(phase.update_s)
    attempted = phase.ops + len(batch.results)
    notes = [
        f"{name}: seed {seed}, {phase.ops} ops ({nq} queries, {nu} updates)"
        f" in {phase.cpu_s:.3f} s CPU / {phase.wall_s:.3f} s wall after a "
        f"{prefix}-op untimed prefix",
        f"wall-clock for comparison: {phase.ops / phase.wall_s:.1f} ops/s,"
        f" query p50 {median(phase.query_wall_s) * 1e3:.4f} ms, update p50 "
        f"{median(phase.update_wall_s) * 1e3:.4f} ms",
        f"query_p99_ms is p{q['tail_pct']:g} of {nq} queries and "
        f"update_p99_ms is p{u['tail_pct']:g} of {nu} updates (the highest"
        f" percentile with >= 10 samples beyond it)",
        f"query_io {phase.query_io / max(nq, 1):.4f} pages/query, update_io "
        f"{phase.update_io / max(nu, 1):.4f} pages/update (physical reads +"
        f" writes)",
        f"query_batch: {len(batch.results)} queries of the timed phase "
        f"answered again in batches of {params['batch_size']} after each "
        f"of {params['batch_rounds']} rounds, {batch.cpu_s:.3f} s CPU",
        f"oracle: {checked} sampled answers checked against ScanIndex, "
        f"{mismatches} mismatches; error_rate "
        f"{mismatches / attempted:.6f}",
    ]
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": phase.ops / phase.cpu_s,
        "sustained_qps": len(batch.results) / batch.cpu_s,
        "query_p50_ms": q["p50_ms"],
        "query_p99_ms": q["tail_ms"],
        "update_p50_ms": u["p50_ms"],
        "update_p99_ms": u["tail_ms"],
        "bytes_per_object": bytes_per_object,
        "peak_rss_mb": rss,
    }
    details = {"setup_cpu_s": setup_times, "ops": phase.ops,
               "queries": nq, "updates": nu, "wall_s": phase.wall_s,
               "cpu_s": phase.cpu_s,
               "query_wall": latency_summary(phase.query_wall_s),
               "update_wall": latency_summary(phase.update_wall_s),
               "query_tail_pct": q["tail_pct"],
               "update_tail_pct": u["tail_pct"],
               "query_io": phase.query_io / max(nq, 1),
               "update_io": phase.update_io / max(nu, 1),
               "batch_queries": len(batch.results),
               "batch_cpu_s": batch.cpu_s,
               "oracle_checked": checked, "oracle_mismatches": mismatches,
               "error_rate": mismatches / attempted}
    return {"metrics": metrics, "notes": notes, "details": details,
            "correct": mismatches == 0, "attempted": attempted,
            "failed": mismatches}


def _run_traced(spec, name: str, seed: int, seconds: float,
                out_dir: str) -> dict:
    """Untraced reference phase, then the same ops again under tracing
    on a fresh, identical set-up; both replay the fixed op count of
    ``seconds / 2``, so the exact counts repeat for one seed."""
    params = spec["workloads"][name]
    prefix = params["prefix_ops"]
    count = timed_ops(params, seconds / 2)
    setup = build(spec, name, seed)
    replay(setup, 0, prefix)
    plain = replay(setup, prefix, count)
    setup = None
    gc.collect()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        setup = build(spec, name, seed)
        replay(setup, 0, prefix)
        tracer.enabled = True
        phase = replay(setup, prefix, count, tracer=tracer)
        tracer.enabled = False
    finally:
        uninstall()
    checked, mismatches = oracle_check(setup, phase.results,
                                       params["oracle_samples"])
    metrics = tracing.layer_metrics(tracer, phase.wall_s)
    root_ns = sum(s[3] - s[2] for s in tracer.spans()
                  if s[1] == "stripes.query")
    measured = sum(phase.query_wall_s)
    metrics["runtime.generator_late_p99_ms"] = 0.0
    for kind in ("query", "update"):
        metrics[f"service.open_loop_{kind}_p50_ms"] = 0.0
        metrics[f"service.open_loop_{kind}_p99_ms"] = 0.0
    metrics["trace.overhead_frac"] = phase.cpu_s / plain.cpu_s
    metrics["trace.query_unexplained_frac"] = (
        1.0 - root_ns / 1e9 / measured if measured else 0.0)
    counts = exact_counts(setup, phase, tracer)
    breakdown = tracing.query_breakdown(tracer)
    total = sum(breakdown.values()) or 1.0
    notes = [f"{name}: seed {seed}, traced {phase.ops} ops in "
             f"{phase.cpu_s:.3f} s CPU vs {plain.cpu_s:.3f} s untraced",
             "query-path self time by span (share of traced query time):"]
    notes += [f"  {span:28s} {ms:10.2f} ms {ms / total:7.1%}"
              for span, ms in sorted(breakdown.items(),
                                     key=lambda kv: -kv[1])]
    notes.append(f"exact counts: {counts}")
    notes.append(f"oracle: {checked} sampled queries checked, "
                 f"{mismatches} mismatches")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"{name}-seed{seed}-spans.json"))
    return {"metrics": metrics, "notes": notes,
            "details": {"exact_counts": counts,
                        "query_self_ms": breakdown},
            "correct": mismatches == 0, "attempted": phase.ops,
            "failed": mismatches}
