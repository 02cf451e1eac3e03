"""Service workloads: ``StripesService`` driven from one generator
thread, first closed loop, then open loop on a fixed rate ladder.

Closed loop, the thread issues a fixed number of ops one at a time and
waits for each result; each op is timed in wall time from call to
result, so the batch window, queue and lock waits count, and in process
CPU time, which covers the worker threads that serve it.  The medians
are reported in wall time; the tails and the op rate in CPU time,
because those wall-clock figures follow how often the shared machine
deschedules the process.

Open loop, ops are due on a fixed schedule whatever the service does.
Queries go through ``StripesService.submit``; updates run synchronously
through ``StripesService.update`` on the generator thread, so a slow
update delays every later op.  Latency runs from an op's due time to its
result in wall time.  Each rung runs on its own and is drained before
the next, so the service is quiescent between rungs.  A search of the
ladder for its highest passing rung gives ``sustained_qps``; the nominal
rung's latencies are in the run notes and in the traced run's per-layer
metrics.
"""

from __future__ import annotations

import gc
import os
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import List

from repro.baselines.scan import ScanIndex
from repro.service import Overloaded

import tracing
from measure import latency_summary, median, peak_rss_mb, percentile
from workloads import QUERY, UPDATE, Setup, build, timed_builds

#: A rung stops early, as failed, when the generator runs this many
#: latency limits behind schedule or this share of the request queue
#: is outstanding: the backlog is growing.
ABORT_LATE_LIMITS = 2.0
ABORT_QUEUE_SHARE = 0.5
#: Ops kept back from the ladder for the oracle check's queries.
RESERVED_OPS = 200
#: Longest wait for a rung's outstanding queries to finish.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Rung:
    """What one rate of the ladder did."""

    rate: float
    issued: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    query_s: List[float] = field(default_factory=list)
    update_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    #: Closed loop only: process CPU time per op.
    query_cpu_s: List[float] = field(default_factory=list)
    update_cpu_s: List[float] = field(default_factory=list)
    rejected: int = 0
    errors: int = 0
    aborted: bool = False
    passed: bool = False

    def queries_per_s(self) -> float:
        return len(self.query_s) / self.wall_s if self.wall_s else 0.0


class Generator:
    """Walks the op stream of one :class:`Setup` across rungs."""

    def __init__(self, setup: Setup, tracer=None) -> None:
        self.setup = setup
        self.tracer = tracer
        self.next_op = 0

    def apply_prefix(self, count: int) -> None:
        """Issue ``count`` ops synchronously, untimed."""
        service = self.setup.service
        for op in self.setup.ops[self.next_op:self.next_op + count]:
            if op[0] == UPDATE:
                service.update(op[1], op[2])
            else:
                service.query(op[1])
        self.next_op += count

    def closed_loop(self, count: int) -> Rung:
        """Issue the next ``count`` ops one at a time, timing each from
        call to result in wall time (``query_s``/``update_s``) and in
        process CPU time (``query_cpu_s``/``update_cpu_s``)."""
        service = self.setup.service
        ops = self.setup.ops
        if self.next_op + count > len(ops):
            raise RuntimeError(
                f"op stream exhausted at op {self.next_op}; raise "
                f"'operations' for {self.setup.name} in spec.json")
        clock = time.perf_counter
        cpu = time.process_time
        result = Rung(0.0)
        cpu0 = cpu()
        start = clock()
        for op in ops[self.next_op:self.next_op + count]:
            t0 = clock()
            c0 = cpu()
            if op[0] == UPDATE:
                service.update(op[1], op[2])
                c1, t1 = cpu(), clock()
                result.update_cpu_s.append(c1 - c0)
                result.update_s.append(t1 - t0)
            else:
                service.query(op[1])
                c1, t1 = cpu(), clock()
                result.query_cpu_s.append(c1 - c0)
                result.query_s.append(t1 - t0)
        self.next_op += count
        result.issued = count
        result.wall_s = clock() - start
        result.cpu_s = cpu() - cpu0
        return result

    def rung(self, rate: float, seconds: float, limit_s: float) -> Rung:
        """Issue ops at ``rate`` per second for ``seconds``, then drain."""
        service = self.setup.service
        ops = self.setup.ops
        clock = time.perf_counter
        sleep = time.sleep
        result = Rung(rate)
        done: List[float] = []          # completion latencies (s)
        futures = []
        thread = self.tracer.state() if self.tracer is not None else None
        max_outstanding = ABORT_QUEUE_SHARE * service.config.max_queue
        interval = 1.0 / rate
        total = int(rate * seconds)
        cpu0 = time.process_time()
        start = clock()
        for k in range(total):
            if self.next_op >= len(ops):
                raise RuntimeError(
                    f"op stream exhausted at op {self.next_op}; raise "
                    f"'operations' for {self.setup.name} in spec.json")
            due = start + k * interval
            now = clock()
            if now < due:
                sleep(due - now)
                now = clock()
            late = now - due
            result.late_s.append(late)
            if (late > ABORT_LATE_LIMITS * limit_s
                    or len(futures) - len(done) > max_outstanding):
                result.aborted = True
                break
            i = self.next_op
            self.next_op += 1
            op = ops[i]
            if thread is not None:
                thread.rid = i
            if op[0] == UPDATE:
                service.update(op[1], op[2])
                result.update_s.append(clock() - due)
            else:
                try:
                    future = service.submit(op[1])
                except Overloaded:
                    result.rejected += 1
                    continue
                future.add_done_callback(
                    lambda f, due=due: done.append(clock() - due))
                futures.append(future)
            result.issued += 1
        wait(futures, timeout=DRAIN_TIMEOUT_S)
        result.wall_s = clock() - start
        result.cpu_s = time.process_time() - cpu0
        for future in futures:
            if not future.done() or future.exception() is not None:
                result.errors += 1
        result.query_s = done
        tail = percentile(done, latency_summary(done)["tail_pct"])
        backlog = result.late_s[-1] if result.late_s else 0.0
        result.passed = (not result.aborted and not result.rejected
                         and not result.errors and tail <= limit_s
                         and backlog <= limit_s)
        return result


def oracle_check(gen: Generator, samples: int) -> tuple:
    """On the quiesced service, compare the next ``samples`` queries of
    the stream with a :class:`ScanIndex` fed the same applied updates.

    Returns ``(checked, mismatches)``.
    """
    setup = gen.setup
    oracle = ScanIndex(setup.config.lifetime)
    for state in setup.initial:
        oracle.insert(state)
    applied = setup.ops[:gen.next_op]
    for op in applied:
        if op[0] == UPDATE:
            oracle.update(op[1], op[2])
    queries = [op[1] for op in setup.ops[gen.next_op:] if op[0] == QUERY]
    mismatches = 0
    for query in queries[:samples]:
        if sorted(setup.service.query(query)) != sorted(oracle.query(query)):
            mismatches += 1
    return min(samples, len(queries)), mismatches


def ladder_rates(params) -> List[float]:
    """The rate ladder: the nominal rate times ``2 ** (k / steps)`` for
    ``k = 0 .. steps * doublings``, ``steps`` rungs per doubling."""
    steps = params["ladder_steps_per_doubling"]
    return [params["nominal_ops_per_s"] * 2 ** (k / steps)
            for k in range(steps * params["ladder_doublings"] + 1)]


def _ladder(gen: Generator, params, seconds: float) -> tuple:
    """The nominal rung for ``seconds``, then a search of the ladder for
    its highest passing rung: up one doubling at a time while rungs
    pass, then bisection between the highest pass and the lowest
    failure.  Each probe runs ``ladder_rung_s``; a rung counts as failed
    only when ``ladder_tries`` tries in a row fail, because one try can
    fail on a passing stall of the shared machine.  The search stops
    early, with ``complete`` false, when the op stream could not feed
    the next probe.

    Returns ``(nominal rung, every rung run, highest passing rung or
    None, bytes per object after the nominal rung, complete)``; the
    footprint is taken there because the ops up to it are the same on
    every run.
    """
    rates = ladder_rates(params)
    limit_s = params["latency_limit_ms"] / 1e3
    rung_s = params["ladder_rung_s"]
    tries = params["ladder_tries"]
    nominal = gen.rung(rates[0], seconds, limit_s)
    setup = gen.setup
    bytes_per_object = (setup.pages_in_use() * setup.page_size()
                        / setup.live_objects())
    rungs = [nominal]
    if not nominal.passed:
        return nominal, rungs, None, bytes_per_object, True
    best, lo, hi = nominal, 0, len(rates)

    def fits(k: int) -> bool:
        return (len(setup.ops) - gen.next_op
                >= rates[k] * rung_s * tries + RESERVED_OPS)

    def probe(k: int) -> bool:
        nonlocal best, lo, hi
        for _ in range(tries):
            rung = gen.rung(rates[k], rung_s, limit_s)
            rungs.append(rung)
            if rung.passed:
                best, lo = rung, k
                return True
        hi = k
        return False

    steps = params["ladder_steps_per_doubling"]
    while lo < len(rates) - 1:
        k = min(lo + steps, len(rates) - 1)
        if not fits(k):
            return nominal, rungs, best, bytes_per_object, False
        if not probe(k):
            break
    while hi - lo > 1:
        k = (lo + hi) // 2
        if not fits(k):
            return nominal, rungs, best, bytes_per_object, False
        probe(k)
    return nominal, rungs, best, bytes_per_object, True


def run(spec, name: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    """One benchmark run of service workload ``name``: the closed loop
    replays ``closed_loop_ops_per_second * seconds`` ops, the nominal
    rung runs ``nominal_share * seconds``, then the ladder search."""
    if trace:
        return _run_traced(spec, name, seed, seconds, out_dir)
    params = spec["workloads"][name]
    setup, setup_times = timed_builds(spec, name, seed)
    try:
        gen = Generator(setup)
        gen.apply_prefix(params["prefix_ops"])
        closed = gen.closed_loop(
            round(params["closed_loop_ops_per_second"] * seconds))
        nominal, rungs, best, bytes_per_object, complete = _ladder(
            gen, params, params["nominal_share"] * seconds)
        rss = peak_rss_mb()
        checked, mismatches = oracle_check(gen, params["oracle_samples"])
    finally:
        setup.close()
    q = latency_summary(closed.query_s)
    u = latency_summary(closed.update_s)
    qc = latency_summary(closed.query_cpu_s)
    uc = latency_summary(closed.update_cpu_s)
    nq = latency_summary(nominal.query_s)
    nu = latency_summary(nominal.update_s)
    attempted = closed.issued + sum(r.issued + r.rejected for r in rungs)
    rejected = sum(r.rejected for r in rungs)
    errors = sum(r.errors for r in rungs)
    failed = rejected + errors + mismatches
    sustained = best if best is not None else nominal
    notes = [
        f"{name}: seed {seed}, closed loop: {closed.issued} ops "
        f"({q['n']} queries, {u['n']} updates) in {closed.wall_s:.3f} s "
        f"wall ({closed.issued / closed.wall_s:.1f} ops/s) / "
        f"{closed.cpu_s:.3f} s CPU",
        f"closed loop, wall clock: query p50 {q['p50_ms']:.3f} ms, "
        f"p{q['tail_pct']:g} {q['tail_ms']:.3f} ms; update p50 "
        f"{u['p50_ms']:.3f} ms, p{u['tail_pct']:g} {u['tail_ms']:.3f} ms",
        f"closed loop, process CPU time: query p50 {qc['p50_ms']:.3f} ms, "
        f"p{qc['tail_pct']:g} {qc['tail_ms']:.3f} ms; update p50 "
        f"{uc['p50_ms']:.3f} ms, p{uc['tail_pct']:g} {uc['tail_ms']:.3f} ms",
        f"open loop at the nominal {nominal.rate:g} ops/s: {nominal.issued}"
        f" ops in {nominal.wall_s:.3f} s; wall-clock from due time: query "
        f"p50 {nq['p50_ms']:.3f} ms, p{nq['tail_pct']:g} "
        f"{nq['tail_ms']:.3f} ms; update p50 {nu['p50_ms']:.3f} ms, "
        f"p{nu['tail_pct']:g} {nu['tail_ms']:.3f} ms",
        "ladder: " + ", ".join(
            f"{r.rate:.0f} ops/s {'pass' if r.passed else 'FAIL'}"
            f"{' (aborted)' if r.aborted else ''}" for r in rungs)
        + f"; latency limit {params['latency_limit_ms']:g} ms on query p"
        + f"{latency_summary(sustained.query_s)['tail_pct']:g}; "
        + f"sustained at {sustained.rate:.0f} ops/s",
        f"query_p99_ms is p{q['tail_pct']:g} of {q['n']} queries and "
        f"update_p99_ms is p{u['tail_pct']:g} of {u['n']} updates (the "
        f"highest percentile with >= 10 samples beyond it)",
        f"generator late p99 {percentile(nominal.late_s, 99) * 1e3:.3f} ms"
        f" at the nominal rate",
        f"oracle: {checked} sampled queries on the quiesced service checked"
        f" against ScanIndex, {mismatches} mismatches; rejected {rejected},"
        f" errors {errors}; error_rate {failed / max(attempted, 1):.6f}",
    ]
    if not complete:
        notes.append("the op stream ran short, so the ladder search "
                     "stopped early: raise 'operations' in spec.json")
    if best is None:
        notes.append("the nominal rung missed the latency limit: "
                     "sustained_qps is its measured query rate")
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": closed.issued / closed.cpu_s,
        "sustained_qps": sustained.queries_per_s(),
        "query_p50_ms": q["p50_ms"],
        "query_p99_ms": qc["tail_ms"],
        "update_p50_ms": u["p50_ms"],
        "update_p99_ms": uc["tail_ms"],
        "bytes_per_object": bytes_per_object,
        "peak_rss_mb": rss,
    }
    details = {"setup_cpu_s": setup_times,
               "closed_loop": {"ops": closed.issued, "cpu_s": closed.cpu_s,
                               "wall_s": closed.wall_s,
                               "query": q, "update": u,
                               "query_cpu": qc, "update_cpu": uc},
               "rungs": [{"rate": r.rate, "issued": r.issued,
                          "wall_s": r.wall_s, "passed": r.passed,
                          "aborted": r.aborted,
                          "queries_per_s": r.queries_per_s(),
                          "query": latency_summary(r.query_s),
                          "update": latency_summary(r.update_s)}
                         for r in rungs],
               "oracle_checked": checked, "oracle_mismatches": mismatches,
               "error_rate": failed / max(attempted, 1)}
    return {"metrics": metrics, "notes": notes, "details": details,
            "correct": mismatches == 0 and errors == 0,
            "attempted": attempted, "failed": failed}


def _run_traced(spec, name: str, seed: int, seconds: float,
                out_dir: str) -> dict:
    """The nominal rate untraced, then again under tracing on a fresh,
    identical set-up; overhead compares process CPU time per op."""
    params = spec["workloads"][name]
    limit_s = params["latency_limit_ms"] / 1e3
    rate = params["nominal_ops_per_s"]
    setup = build(spec, name, seed)
    try:
        gen = Generator(setup)
        gen.apply_prefix(params["prefix_ops"])
        plain = gen.rung(rate, seconds / 2, limit_s)
    finally:
        setup.close()
    setup = None
    gc.collect()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        setup = build(spec, name, seed)
        gen = Generator(setup, tracer)
        gen.apply_prefix(params["prefix_ops"])
        tracer.enabled = True
        traced = gen.rung(rate, seconds / 2, limit_s)
        tracer.enabled = False
        uninstall()
        checked, mismatches = oracle_check(gen, params["oracle_samples"])
    finally:
        tracer.enabled = False
        setup.close()
        uninstall()
    metrics = tracing.layer_metrics(tracer, traced.wall_s)
    metrics["runtime.generator_late_p99_ms"] = (
        percentile(plain.late_s, 99) * 1e3)
    for kind, samples in (("query", plain.query_s),
                          ("update", plain.update_s)):
        summary = latency_summary(samples)
        metrics[f"service.open_loop_{kind}_p50_ms"] = summary["p50_ms"]
        metrics[f"service.open_loop_{kind}_p99_ms"] = summary["tail_ms"]
    metrics["trace.overhead_frac"] = (
        (traced.cpu_s / max(traced.issued, 1))
        / (plain.cpu_s / max(plain.issued, 1)))
    metrics["trace.query_unexplained_frac"] = 0.0
    errors = traced.errors + traced.rejected
    notes = [f"{name}: seed {seed}, {rate:g} ops/s for {seconds / 2:g} s "
             f"untraced ({plain.issued} ops, {plain.cpu_s:.3f} s CPU) and "
             f"traced ({traced.issued} ops, {traced.cpu_s:.3f} s CPU)",
             f"oracle: {checked} sampled queries checked, "
             f"{mismatches} mismatches; rejected or failed {errors}"]
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"{name}-seed{seed}-spans.json"))
    return {"metrics": metrics, "notes": notes,
            "details": {"query_self_ms": tracing.query_breakdown(tracer)},
            "correct": mismatches == 0 and errors == 0,
            "attempted": traced.issued + traced.rejected,
            "failed": errors + mismatches}
