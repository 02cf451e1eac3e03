"""Tests of the benchmark itself, on tiny configurations.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import library  # noqa: E402
import measure  # noqa: E402
import openloop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny_spec(kind: str) -> dict:
    """The spec with a ``tiny`` workload: a pool-bound library index
    (``kind="library"``) or a two-shard service."""
    spec = workloads.load_spec()
    if kind == "library":
        base = spec["workloads"]["paper-50k"]
        spec["workloads"]["tiny"] = dict(base, objects=2000, pool_pages=24,
                                         operations=400, prefix_ops=40,
                                         timed_ops_per_second=15)
    else:
        base = spec["workloads"]["service-small"]
        spec["workloads"]["tiny"] = dict(base, objects=800, shards=2,
                                         operations=1200, prefix_ops=40,
                                         oracle_samples=6)
    return spec


def _traced_counts(seed: int) -> dict:
    spec = _tiny_spec("library")
    count = library.timed_ops(spec["workloads"]["tiny"], 20.0)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        setup = workloads.build(spec, "tiny", seed)
        library.replay(setup, 0, 40)
        tracer.enabled = True
        phase = library.replay(setup, 40, count, tracer=tracer)
        tracer.enabled = False
    finally:
        uninstall()
    return library.exact_counts(setup, phase, tracer)


def test_exact_counts_repeat_for_one_seed():
    first = _traced_counts(7)
    assert first == _traced_counts(7)
    for key in ("query_io", "update_io", "logical_reads", "nodes_visited",
                "classify_calls", "decodes", "candidates", "hits",
                "bytes_in_use"):
        assert first[key] > 0, key


def test_exact_counts_follow_the_seed():
    assert _traced_counts(7) != _traced_counts(8)


def test_tracing_leaves_answers_unchanged_and_uninstalls():
    spec = _tiny_spec("library")
    plain = library.replay(workloads.build(spec, "tiny", 3), 0, 200)
    originals = (workloads.StripesIndex.query,
                 tracing.DualQuadTree.search_columns,
                 tracing._stripes.build_query_regions,
                 tracing.RWLock.read, tracing.LeafNode.soa)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.enabled = True
        traced = library.replay(workloads.build(spec, "tiny", 3), 0,
                                200, tracer=tracer)
    finally:
        uninstall()
    assert traced.results == plain.results
    assert originals == (workloads.StripesIndex.query,
                         tracing.DualQuadTree.search_columns,
                         tracing._stripes.build_query_regions,
                         tracing.RWLock.read, tracing.LeafNode.soa)
    spans = tracer.spans()
    ids = {span[0] for span in spans}
    assert all(span[4] == 0 or span[4] in ids for span in spans)
    assert {span[1] for span in spans} >= {
        "stripes.query", "stripes.update", "quadtree.search",
        "query_region.classify", "predicates.refine", "nodes.decode",
        "dual.transform", "node_store.write", "buffer_pool.fetch"}


def test_library_oracle_check_flags_a_wrong_answer():
    spec = _tiny_spec("library")
    setup = workloads.build(spec, "tiny", 5)
    phase = library.replay(setup, 0, 300)
    assert library.oracle_check(setup, phase.results, 4) == (4, 0)
    for pos in phase.results:
        phase.results[pos] = phase.results[pos] + [10**9]
    assert library.oracle_check(setup, phase.results, 4) == (4, 4)


def test_replay_refuses_to_run_past_the_op_stream():
    setup = workloads.build(_tiny_spec("library"), "tiny", 5)
    try:
        library.replay(setup, 300, 101)
    except RuntimeError as exc:
        assert "exhausted" in str(exc)
    else:
        raise AssertionError("replay ran past the end of the op stream")


def test_library_batch_answers_are_checked_at_their_state():
    spec = _tiny_spec("library")
    params = dict(spec["workloads"]["tiny"], prefix_ops=0, batch_rounds=4)
    setup = workloads.build(spec, "tiny", 5)
    phase, batch = library.timed_phase(setup, params, 20.0)
    assert phase.ops == 300 and len(phase.query_s) == len(phase.results)
    assert len(batch.results) > 20 and batch.cpu_s > 0
    assert len({at for at, _ in batch.results.values()}) == 4
    assert library.oracle_check(setup, phase.results, 3, batch) == (6, 0)
    for pos, (at, answer) in batch.results.items():
        batch.results[pos] = (at, answer + [10**9])
    assert library.oracle_check(setup, phase.results, 3, batch) == (6, 3)


class _FakeGenerator:
    """Passes every rung at or below ``capacity`` ops/s."""

    def __init__(self, setup, capacity: float) -> None:
        self.setup = setup
        self.capacity = capacity
        self.rates = []
        self.next_op = 0

    def rung(self, rate, seconds, limit_s):
        self.rates.append(rate)
        return openloop.Rung(rate, passed=rate <= self.capacity)


def test_ladder_search_finds_the_highest_passing_rung():
    spec = _tiny_spec("service")
    params = dict(spec["workloads"]["tiny"], ladder_rung_s=0.01)
    rates = openloop.ladder_rates(params)
    assert rates[0] == params["nominal_ops_per_s"]
    assert all(1.0 < b / a < 1.1 for a, b in zip(rates, rates[1:]))
    setup = workloads.build(spec, "tiny", 11)
    try:
        for capacity in (rates[0] - 1, rates[5], rates[13] + 1, rates[-1]):
            gen = _FakeGenerator(setup, capacity)
            _, rungs, best, _, complete = openloop._ladder(gen, params,
                                                           1.0)
            assert complete
            passing = [r for r in rates if r <= capacity]
            assert (best.rate if best else None) == (
                passing[-1] if passing else None)
            tries = params["ladder_tries"]
            assert len(gen.rates) <= 12 * tries
            assert all(gen.rates.count(r) == (1 if r <= capacity else tries)
                       for r in gen.rates[1:])
        short = dict(params, ladder_rung_s=1.0)
        gen = _FakeGenerator(setup, rates[-1])
        _, _, best, _, complete = openloop._ladder(gen, short, 1.0)
        assert not complete and best.rate == rates[8]  # 640 would not fit
    finally:
        setup.close()


def test_service_rung_and_oracle_on_tiny_service():
    spec = _tiny_spec("service")
    setup = workloads.build(spec, "tiny", 11)
    try:
        gen = openloop.Generator(setup)
        gen.apply_prefix(40)
        rung = gen.rung(200.0, 0.5, limit_s=1.0)
        checked, mismatches = openloop.oracle_check(gen, 6)
    finally:
        setup.close()
    assert rung.issued == 100 and rung.errors == 0 and rung.rejected == 0
    assert len(rung.query_s) + len(rung.update_s) == 100
    assert (checked, mismatches) == (6, 0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_pct(1000) == 99.0
    assert measure.tail_pct(226) == 95
    assert measure.tail_pct(100) == 90
    assert measure.percentile([1.0, 2.0, 3.0], 50.0) == 2.0


def test_run_fails_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-50k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
