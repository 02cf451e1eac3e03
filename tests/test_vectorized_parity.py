"""Bit-exact parity of the query kernels with their scalar references.

The query path (SoA leaf columns, ``contains_batch``, ``classify_quads``,
``matches_batch``, the columnar refinement) is only admissible because
every kernel promises *identical* answers to the per-entry scalar test
it stands for -- not "close", identical.  This suite drives thousands of
seeded-random trajectories and queries through the kernels and through
the scalar references -- ``contains_point``, ``classify_rect``,
``matches_trajectory``, and the whole-index descent in
:mod:`tests.reference_search` -- and compares results exactly, including
float32-rounded points placed directly on the region's polyline
boundaries where ``>=`` vs ``>`` mistakes would show up.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.scan import ScanIndex
from repro.bench.runner import DEFAULT_LIFETIME, make_stripes
from repro.core.query_region import QueryRegion2D, build_query_regions
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.predicates import MovingQueryEvaluator
from repro.query.types import (
    MovingObjectState,
    MovingQuery,
    TimeSliceQuery,
    WindowQuery,
)
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.operations import InsertOp, QueryOp, UpdateOp

from tests.reference_search import reference_query

VMAX = (3.0, 3.0)
PMAX = (1000.0, 1000.0)
LIFETIME = 120.0


def random_query(rng: random.Random, d: int = 2):
    kind = rng.choice(("ts", "win", "mov"))
    lo1 = tuple(rng.uniform(0.0, PMAX[i]) for i in range(d))
    hi1 = tuple(lo1[i] + rng.uniform(0.0, 100.0) for i in range(d))
    t1 = rng.uniform(0.0, LIFETIME)
    if kind == "ts":
        return TimeSliceQuery(lo1, hi1, t1)
    t2 = t1 + rng.uniform(1e-3, 60.0)
    if kind == "win":
        return WindowQuery(lo1, hi1, t1, t2)
    lo2 = tuple(rng.uniform(0.0, PMAX[i]) for i in range(d))
    hi2 = tuple(lo2[i] + rng.uniform(0.0, 100.0) for i in range(d))
    return MovingQuery(lo1, hi1, lo2, hi2, t1, t2)


def random_states(rng: random.Random, n: int, d: int = 2,
                  t_max: float = LIFETIME):
    return [
        MovingObjectState(
            oid,
            pos=tuple(rng.uniform(0.0, PMAX[i]) for i in range(d)),
            vel=tuple(rng.uniform(-VMAX[i], VMAX[i]) for i in range(d)),
            t=rng.uniform(0.0, t_max))
        for oid in range(n)
    ]


class TestContainsBatchParity:
    """``contains_batch`` == ``contains_point`` on every lane."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_random_points(self, seed, dtype):
        rng = random.Random(seed)
        for _ in range(40):
            region = self._random_region(rng)
            n = 250
            vs = np.array([rng.uniform(0.0, 2 * VMAX[0]) for _ in range(n)],
                          dtype=dtype)
            ps = np.array(
                [rng.uniform(0.0, PMAX[0] + 2 * VMAX[0] * LIFETIME)
                 for _ in range(n)], dtype=dtype)
            got = region.contains_batch(vs, ps)
            want = [region.contains_point(float(v), float(p))
                    for v, p in zip(vs, ps)]
            assert got.tolist() == want

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_float32_points_on_polyline_edges(self, seed):
        """Points constructed *on* the lower/upper boundary polylines --
        then rounded through float32, landing a hair on either side --
        must classify identically in both paths."""
        rng = random.Random(seed)
        for _ in range(40):
            region = self._random_region(rng)
            vs, ps = [], []
            for _ in range(200):
                v = rng.uniform(0.0, 2 * VMAX[0])
                edge = (region.lower_at(v) if rng.random() < 0.5
                        else region.upper_at(v))
                # float32 rounding of both coordinates, then back to the
                # float64 values the index would actually store.
                vs.append(float(np.float32(v)))
                ps.append(float(np.float32(edge)))
            # Exact breakpoint abscissae too, where the min/max of the
            # two lines switches over.
            for brk in (region._lower_break, region._upper_break):
                if brk is not None:
                    vs.append(brk)
                    ps.append(region.lower_at(brk))
                    vs.append(brk)
                    ps.append(region.upper_at(brk))
            vs_arr = np.array(vs, dtype=np.float64)
            ps_arr = np.array(ps, dtype=np.float64)
            got = region.contains_batch(vs_arr, ps_arr)
            want = [region.contains_point(v, p) for v, p in zip(vs, ps)]
            assert got.tolist() == want

    @staticmethod
    def _random_region(rng: random.Random) -> QueryRegion2D:
        query = random_query(rng, d=1)
        return build_query_regions(query.as_moving(), (VMAX[0],), LIFETIME,
                                   t_ref=0.0)[0]


class TestClassifyQuadsParity:
    """``classify_quads`` == four ``classify_rect`` calls."""

    def test_random_quads(self):
        rng = random.Random(42)
        for _ in range(200):
            query = random_query(rng, d=1)
            region = build_query_regions(query.as_moving(), (VMAX[0],),
                                         LIFETIME, t_ref=0.0)[0]
            v1 = rng.uniform(0.0, 2 * VMAX[0])
            sl_v = rng.uniform(1e-3, 2 * VMAX[0])
            p1 = rng.uniform(0.0, PMAX[0])
            sl_p = rng.uniform(1e-3, 200.0)
            quads = region.classify_quads(v1, v1 + sl_v, v1 + 2 * sl_v,
                                          p1, p1 + sl_p, p1 + 2 * sl_p)
            for code in range(4):
                va = v1 + (code & 1) * sl_v
                pa = p1 + ((code >> 1) & 1) * sl_p
                want = region.classify_rect(va, va + sl_v, pa, pa + sl_p)
                assert quads[code] is want, (code, quads[code], want)


class TestMatchesBatchParity:
    """``matches_batch`` == ``matches_trajectory`` on every lane."""

    def test_random_trajectories(self):
        rng = random.Random(7)
        for _ in range(60):
            query = random_query(rng)
            evaluator = MovingQueryEvaluator(query)
            n = 200
            p0s = np.array([[rng.uniform(-100.0, PMAX[i])
                             for i in range(2)] for _ in range(n)])
            pvs = np.array([[rng.uniform(-VMAX[i], VMAX[i])
                             for i in range(2)] for _ in range(n)])
            got = evaluator.matches_batch(p0s, pvs)
            want = [evaluator.matches_trajectory(p0s[k], pvs[k])
                    for k in range(n)]
            assert got.tolist() == want


def build_index(float32: bool = False) -> StripesIndex:
    return StripesIndex(StripesConfig(
        vmax=VMAX, pmax=PMAX, lifetime=LIFETIME, float32=float32))


class TestIndexLevelParity:
    """Whole-index answers equal the reference descent, ids in order.

    Each check runs the production query before the reference, which
    builds entry lists on the leaves it reads."""

    @pytest.mark.parametrize("float32", [False, True])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_query_results_identical(self, seed, float32):
        rng = random.Random(seed)
        index = build_index(float32)
        states = random_states(rng, 1500)
        index.insert_batch(states)
        assert len(index) == len(states)
        queries = [random_query(rng) for _ in range(120)]
        batch = index.query_batch(queries)
        for k, query in enumerate(queries):
            got = index.query(query)
            count = index.count(query)
            expect = reference_query(index, query)
            assert batch[k] == got == expect
            assert count == len(expect)

    def test_refine_off_identical(self):
        rng = random.Random(8)
        index = build_index()
        index.insert_batch(random_states(rng, 800))
        queries = [random_query(rng) for _ in range(60)]
        got = index.query_batch(queries, refine=False)
        assert got == [reference_query(index, q, refine=False)
                       for q in queries]

    def test_insert_batch_equals_sequential(self):
        rng = random.Random(9)
        batch_idx, seq_idx = build_index(), build_index()
        states = random_states(rng, 600)
        assert batch_idx.insert_batch(states) == len(states)
        for state in states:
            seq_idx.insert(state)
        probes = [random_query(rng) for _ in range(40)]
        for query in probes:
            got = batch_idx.query(query)
            assert sorted(got) == sorted(seq_idx.query(query))
            assert got == reference_query(batch_idx, query)
        assert batch_idx.pages_in_use() == seq_idx.pages_in_use()

    def test_query_batch_matches_sequential_on_same_index(self):
        rng = random.Random(10)
        index = build_index()
        index.insert_batch(random_states(rng, 700))
        queries = [random_query(rng) for _ in range(50)]
        assert index.query_batch(queries) == \
            [index.query(q) for q in queries]


class TestSoAStaleness:
    """The per-record SoA view must rebuild after any entry mutation."""

    def test_updates_invalidate_soa(self):
        rng = random.Random(13)
        index = build_index()
        states = random_states(rng, 400)
        index.insert_batch(states)
        query = TimeSliceQuery((0.0, 0.0), PMAX, t=30.0)
        # Warm the SoA views with a production query first.
        assert index.query(query) == reference_query(index, query)
        for state in states[::3]:
            moved = MovingObjectState(
                state.oid,
                pos=tuple(min(PMAX[i], state.pos[i] + 1.0)
                          for i in range(2)),
                vel=state.vel, t=state.t)
            index.update(state, moved)
        for _ in range(30):
            probe = random_query(rng)
            assert index.query(probe) == reference_query(index, probe)


class TestWorkloadReplay:
    """End to end: a generated workload replayed op by op through a
    pool-bound index; every query's ids equal the reference descent's
    (in order) and ``ScanIndex``'s (as a set)."""

    def test_every_query_matches_reference_and_scan(self):
        workload = generate_workload(WorkloadSpec(
            n_objects=2_000, n_operations=400, update_fraction=0.2,
            seed=7))
        index = make_stripes(workload, pool_pages=1024).index
        scan = ScanIndex(DEFAULT_LIFETIME)
        index.insert_batch(workload.initial)
        for state in workload.initial:
            scan.insert(state)
        queries = hits = 0
        for op in workload.operations:
            if isinstance(op, UpdateOp):
                index.update(op.old, op.new)
                scan.update(op.old, op.new)
            elif isinstance(op, InsertOp):
                index.insert(op.state)
                scan.insert(op.state)
            else:
                assert isinstance(op, QueryOp)
                got = index.query(op.query)
                assert got == reference_query(index, op.query)
                assert set(got) == set(scan.query(op.query))
                queries += 1
                hits += len(got)
        assert queries > 300 and hits > queries


class TestDecodedNodeCacheGenerations:
    """A raw store write must invalidate the decoded-object cache."""

    def test_raw_write_invalidates(self):
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.node_store import NodeCache, RecordStore
        from repro.storage.pagefile import InMemoryPageFile

        store = RecordStore(BufferPool(InMemoryPageFile()))
        # Records keep undefined trailing bytes, so pad every payload to
        # the full record size.
        cache = NodeCache(store,
                          serialize=lambda s: s.encode().ljust(16, b"\x00"),
                          deserialize=lambda b: b.rstrip(b"\x00").decode())
        rid = cache.insert(16, "alpha")
        assert cache.get(rid) == "alpha"
        hits_before = cache.hits
        assert cache.get(rid) == "alpha"
        assert cache.hits == hits_before + 1
        # Bypass the cache entirely: write through the record store.
        store.write(rid, b"beta".ljust(16, b"\x00"))
        misses_before = cache.misses
        assert cache.get(rid) == "beta"
        assert cache.misses == misses_before + 1

    def test_free_and_reallocate_never_serves_stale(self):
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.node_store import NodeCache, RecordStore
        from repro.storage.pagefile import InMemoryPageFile

        store = RecordStore(BufferPool(InMemoryPageFile()))
        cache = NodeCache(store,
                          serialize=lambda s: s.encode().ljust(16, b"\x00"),
                          deserialize=lambda b: b.rstrip(b"\x00").decode())
        rid = cache.insert(16, "old")
        store.free(rid)
        rid2 = store.allocate(16, b"new".ljust(16, b"\x00"))
        assert rid2 == rid  # slot reuse is the whole point of this test
        assert cache.get(rid2) == "new"
