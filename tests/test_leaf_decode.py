"""Columnar leaf decode: checked against the ``struct`` entry decoder.

Leaf and extension records decode straight into ``LeafSoA`` columns with
one ``np.frombuffer`` over the entry area.  :func:`reference_unpack_entries`
is the per-entry ``struct`` decoder those records used to go through; it
lives here as the oracle.  The first half of this module checks the
columns bit for bit against it; the second half checks, in an index whose
buffer pool is far smaller than the index, that queries over evicted
leaves never build an entry object, and that writes to such a leaf
re-encode exactly the bytes the entry-list path produces.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.scan import ScanIndex
from repro.core.dual import DualPoint
from repro.core.nodes import (
    INVALID_RID,
    LeafExtension,
    LeafNode,
    LeafSoA,
    NodeCodec,
)
from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import MovingObjectState, TimeSliceQuery
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile

from tests.test_vectorized_parity import (
    LIFETIME,
    PMAX,
    VMAX,
    random_query,
    random_states,
)

RECORD_BYTES = 4091                 # a full-page record (the large leaf)
F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
F64_TINY = float(np.finfo(np.float64).smallest_subnormal)


def reference_unpack_entries(codec: NodeCodec, raw: bytes, offset: int,
                             count: int) -> List[DualPoint]:
    """The ``struct`` entry decoder: one ``DualPoint`` per packed entry."""
    d = codec.d
    end = offset + count * codec._entry.size
    return [
        DualPoint(parts[0], parts[1: 1 + d], parts[1 + d: 1 + 2 * d])
        for parts in codec._entry.iter_unpack(raw[offset:end])
    ]


def reference_record(codec: NodeCodec, kind: str, entries, overflow: int,
                     level: int = 0, v_corner=None, p_corner=None) -> bytes:
    """Record bytes packed entry by entry with the codec's ``struct``s."""
    body = b"".join(codec._entry.pack(e.oid, *e.v, *e.p) for e in entries)
    if kind == "leaf":
        origin = (0.0,) * codec.d
        return codec._leaf_header.pack(
            1, level, len(entries), overflow, *(v_corner or origin),
            *(p_corner or origin)) + body
    return codec._ext_header.pack(2, len(entries), overflow) + body


def entry_offset(codec: NodeCodec, kind: str) -> int:
    return (codec._leaf_header.size if kind == "leaf"
            else codec._ext_header.size)


def exact(entries) -> list:
    """Entries keyed bit-exactly (``float.hex`` tells -0.0 from 0.0)."""
    return [(type(e.oid), e.oid, tuple(x.hex() for x in e.v),
             tuple(x.hex() for x in e.p)) for e in entries]


def reference_columns(entries: List[DualPoint], d: int):
    n = len(entries)
    return (np.array([e.oid for e in entries], dtype=np.int64),
            np.array([e.v for e in entries], dtype=np.float64).reshape(n, d),
            np.array([e.p for e in entries], dtype=np.float64).reshape(n, d))


def coordinates(float32: bool):
    edge = [0.0, -0.0, F32_TINY, -F32_TINY, F32_MAX, -F32_MAX]
    if not float32:
        edge += [F64_TINY, -F64_TINY, float(np.finfo(np.float64).max)]
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       width=32 if float32 else 64)
    return st.one_of(st.sampled_from(edge), finite)


@st.composite
def records(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    float32 = draw(st.booleans())
    kind = draw(st.sampled_from(["leaf", "extension"]))
    codec = NodeCodec(d, float32)
    capacity = (codec.leaf_capacity(RECORD_BYTES) if kind == "leaf"
                else codec.extension_capacity(RECORD_BYTES))
    count = draw(st.one_of(st.sampled_from([0, 1, capacity]),
                           st.integers(min_value=0, max_value=capacity)))
    coord = coordinates(float32)
    oid = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
    point = st.builds(DualPoint, oid=oid, v=st.tuples(*[coord] * d),
                      p=st.tuples(*[coord] * d))
    entries = draw(st.lists(point, min_size=count, max_size=count))
    overflow = draw(st.sampled_from([INVALID_RID, 0, 2 ** 40]))
    return codec, kind, entries, overflow


class TestDecodeOracle:
    @settings(max_examples=150, deadline=None)
    @given(record=records())
    def test_columns_entries_and_bytes_match_reference(self, record):
        codec, kind, entries, overflow = record
        raw = reference_record(codec, kind, entries, overflow)
        want = reference_unpack_entries(codec, raw, entry_offset(codec, kind),
                                        len(entries))
        node = codec.deserialize(raw)
        assert type(node) is (LeafNode if kind == "leaf" else LeafExtension)
        assert node.overflow == overflow
        assert node.size == len(want)

        cols = node.soa(codec.d)
        for got, ref in zip((cols.oids, cols.vs, cols.ps),
                            reference_columns(want, codec.d)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        # Reading the columns built no entry list.
        assert node._entries is None

        assert exact(node.entries) == exact(want)
        assert all(type(x) is float for e in node.entries
                   for x in e.v + e.p)
        assert codec.serialize(node) == raw

    def test_appended_entry_rebuilds_columns(self):
        """After a write the entry list is the authority: appending to
        the very list the columns were derived from invalidates them."""
        codec = NodeCodec(2)
        entries = [DualPoint(i, (float(i), 1.0), (2.0, float(i)))
                   for i in range(5)]
        node = codec.deserialize(codec.serialize(
            LeafNode(0, (0.0, 0.0), (0.0, 0.0), entries)))
        listed = node.entries
        assert node.soa(2) is node.soa(2)
        listed.append(DualPoint(99, (9.0, 9.0), (9.0, 9.0)))
        assert node.soa(2).oids.tolist() == [0, 1, 2, 3, 4, 99]
        node.entries = listed[:2]
        assert node.soa(2).oids.tolist() == [0, 1]
        assert node.size == 2


# --------------------------------------------------------------------- #
# Pool-bound reads: queries over evicted leaves
# --------------------------------------------------------------------- #

POOL_PAGES = 12
N_OBJECTS = 3000


class CountingColumns:
    """Counts ``LeafSoA.to_entries`` calls, i.e. entry lists built from
    decoded columns."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = LeafSoA.to_entries

        def counted(cols):
            self.calls += 1
            return original(cols)
        monkeypatch.setattr(LeafSoA, "to_entries", counted)


def pool_bound_index(float32: bool):
    rng = random.Random(41)
    states = random_states(rng, N_OBJECTS)
    index = StripesIndex(
        StripesConfig(vmax=VMAX, pmax=PMAX, lifetime=LIFETIME,
                      float32=float32),
        pool=BufferPool(InMemoryPageFile(), capacity=POOL_PAGES))
    oracle = ScanIndex(LIFETIME)
    for state in states:
        index.insert(state)
        oracle.insert(state)
    assert index.pages_in_use() > 6 * POOL_PAGES
    return rng, index, oracle, {s.oid: s for s in states}


def decoded_leaf(index: StripesIndex):
    """A cached leaf that was decoded and never written since, with room
    for one more entry in its record."""
    for tree in index._trees.values():
        for rid, (_, node) in list(tree.cache._objects.items()):
            if (type(node) is LeafNode and node._entries is None
                    and node.overflow == INVALID_RID and node.size >= 2):
                ladder = tree._ladder_index[tree.store.record_size_of(rid)]
                if node.size < tree.leaf_capacities[ladder]:
                    return tree, rid, node
    raise AssertionError("no decoded leaf with room in the node cache")


def point_query(index, oracle, state, t):
    pos = tuple(state.pos[i] + state.vel[i] * (t - state.t)
                for i in range(len(state.pos)))
    query = TimeSliceQuery(tuple(x - 1.0 for x in pos),
                           tuple(x + 1.0 for x in pos), t)
    got = index.query(query)
    assert sorted(got) == sorted(oracle.query(query))
    return got


@pytest.mark.parametrize("float32", [False, True])
class TestPoolBoundReads:
    def test_queries_build_no_entry_objects(self, float32, monkeypatch):
        rng, index, oracle, _ = pool_bound_index(float32)
        counter = CountingColumns(monkeypatch)
        misses = sum(t.cache.misses for t in index._trees.values())
        for _ in range(60):
            query = random_query(rng)
            assert sorted(index.query(query)) == sorted(oracle.query(query))
        decodes = sum(t.cache.misses for t in index._trees.values()) - misses
        assert decodes > 100
        assert counter.calls == 0

    def test_writes_to_a_decoded_leaf(self, float32):
        rng, index, oracle, by_oid = pool_bound_index(float32)
        for _ in range(20):
            index.query(random_query(rng))
        tree, rid, leaf = decoded_leaf(index)
        codec = tree.codec
        raw = tree.store.read(rid)
        header = codec._leaf_header.unpack(raw[: codec._leaf_header.size])
        count = header[2]
        before = reference_unpack_entries(
            codec, raw, codec._leaf_header.size, count)
        assert exact(leaf.entries) == exact(before)

        def expect(entries):
            want = reference_record(codec, "leaf", entries, leaf.overflow,
                                    leaf.level, leaf.v_corner, leaf.p_corner)
            assert tree.store.read(rid)[: len(want)] == want

        # Insert: a twin of one of the leaf's objects lands in the same
        # quad and is appended to the very list the columns came from.
        twin_of = by_oid[before[0].oid]
        twin = MovingObjectState(10 ** 6, twin_of.pos, twin_of.vel,
                                 twin_of.t)
        index.insert(twin)
        oracle.insert(twin)
        dual = tree.space.to_dual(twin)
        expect(before + [dual])
        assert index.check() == []
        assert leaf.soa(tree.d).oids.tolist()[-1] == twin.oid
        assert twin.oid in point_query(index, oracle, twin, twin.t + 1.0)

        # Delete: the leaf's entry list is replaced by a shorter one.
        gone = by_oid[before[1].oid]
        assert index.delete(gone)
        oracle.delete(gone)
        expect([before[0]] + before[2:] + [dual])
        assert index.check() == []
        assert gone.oid not in point_query(index, oracle, gone, gone.t + 1.0)
        for _ in range(20):
            query = random_query(rng)
            assert sorted(index.query(query)) == sorted(oracle.query(query))
