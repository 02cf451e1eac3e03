"""STRIPES quadtree node layouts and their binary codec.

Three record types live in the record store (Section 4.2):

* **Non-leaf nodes** -- small records (the paper packs ~11 per 4 KB page):
  level, grid lower corner, ``4^d`` child record ids, an is-leaf bitmask,
  and the subtree entry count (``size``).
* **Leaf nodes** -- *small* (half-page) or *large* (full-page) records
  holding dual points.  A leaf carries an ``overflow`` record id used only
  when a maximum-depth leaf must hold more entries than fit in one record
  (e.g. many coincident points); ``-1`` otherwise.
* **Leaf extensions** -- continuation records for such overflow chains.

Side lengths are not stored: a node at level ``k`` spans
``extent / 2**k`` per axis (the root is level 0), so the grid tuple
``(V', P', SL^V, SL^P)`` of Section 4.2 is reconstructed from the corner
and the level.

All integers are little-endian; coordinates are 8-byte floats by default or
4-byte floats in the paper-faithful ``float32`` layout.  Leaf and extension
records decode straight into :class:`LeafSoA` columns; their
:class:`DualPoint` lists are built only when a write path asks for them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.dual import DualPoint

INVALID_RID = -1

_PACK_BATCH_MIN = 8
"""Entry count above which leaf serialization packs the whole array with
one pre-compiled ``struct`` call instead of a per-entry pack + join."""

_TAG_NONLEAF = 0
_TAG_LEAF = 1
_TAG_EXTENSION = 2


@dataclass
class NonLeafNode:
    """Interior quadtree node: fanout ``4^d`` children."""

    level: int
    v_corner: Tuple[float, ...]
    p_corner: Tuple[float, ...]
    children: List[int]            # record ids, INVALID_RID when absent
    child_is_leaf: List[bool]
    size: int                      # entries stored in the whole subtree

    @property
    def is_leaf(self) -> bool:
        return False

    def present_children(self) -> List[int]:
        """Indices of existing children."""
        return [i for i, rid in enumerate(self.children) if rid != INVALID_RID]


class LeafSoA:
    """Columnar entries of one leaf-like record.

    ``oids`` is an ``int64`` column; ``vs``/``ps`` are ``(n, d)``
    ``float64`` coordinate columns, even in the paper-faithful float32
    layout: widening a float32 coordinate to float64 is exact, so the
    columns hold the very values the record stores and the query kernels
    (:meth:`repro.core.query_region.QueryRegion2D.contains_batch`) need no
    per-query upcast copy.  Decoding a record yields these columns
    directly (:meth:`NodeCodec.deserialize`); the :class:`DualPoint` list
    is derived from them only on demand (:meth:`to_entries`).
    """

    __slots__ = ("oids", "vs", "ps")

    def __init__(self, oids: np.ndarray, vs: np.ndarray, ps: np.ndarray):
        self.oids = oids
        self.vs = vs
        self.ps = ps

    def __len__(self) -> int:
        return len(self.oids)

    @classmethod
    def of(cls, entries: List[DualPoint], d: int) -> "LeafSoA":
        """Columns of an entry list (the write-side direction)."""
        n = len(entries)
        if n == 0:
            return cls(np.empty(0, dtype=np.int64),
                       np.empty((0, d), dtype=np.float64),
                       np.empty((0, d), dtype=np.float64))
        oids = np.fromiter((e.oid for e in entries), dtype=np.int64, count=n)
        vs = np.array([e.v for e in entries], dtype=np.float64)
        ps = np.array([e.p for e in entries], dtype=np.float64)
        return cls(oids, vs, ps)

    def to_entries(self) -> List[DualPoint]:
        """The columns as :class:`DualPoint` objects, row by row."""
        return [DualPoint(oid, tuple(v), tuple(p)) for oid, v, p in
                zip(self.oids.tolist(), self.vs.tolist(), self.ps.tolist())]


class _LeafEntries:
    """Entries of a leaf-like record: read as columns, written as a list.

    A decoded record holds only its :class:`LeafSoA` columns, so a query
    over it never builds a :class:`DualPoint`.  The ``entries`` list is
    built from the columns the first time something asks for it (write
    paths, the generic :meth:`repro.core.quadtree.DualQuadTree.search`,
    ``check()``, ``==``).  From then on the list is the authority:
    :meth:`soa` re-derives the columns from it whenever it is no longer
    the *same object* at the *same length* they were derived from --
    every mutation path either replaces the list or appends to it.
    Holding a reference to the list (not just its ``id``) makes the
    identity test immune to CPython id reuse after garbage collection.
    """

    __slots__ = ("_entries", "_cols", "_cols_of", "_cols_len")

    def _init_entries(self, entries: Optional[List[DualPoint]],
                      columns: Optional[LeafSoA]) -> None:
        if columns is None:
            self._entries = entries if entries is not None else []
        else:
            self._entries = None
        self._cols = columns
        self._cols_of = None
        self._cols_len = -1

    @property
    def entries(self) -> List[DualPoint]:
        entries = self._entries
        if entries is None:
            entries = self._cols.to_entries()
            self._entries = self._cols_of = entries
            self._cols_len = len(entries)
        return entries

    @entries.setter
    def entries(self, entries: List[DualPoint]) -> None:
        self._entries = entries

    @property
    def size(self) -> int:
        """Entries in this record only (not the overflow chain)."""
        entries = self._entries
        return len(self._cols) if entries is None else len(entries)

    def soa(self, d: int) -> LeafSoA:
        """The record's entries as columns (``d`` shapes an empty one)."""
        entries = self._entries
        if entries is None or (self._cols_of is entries
                               and self._cols_len == len(entries)):
            return self._cols
        cols = LeafSoA.of(entries, d)
        self._cols = cols
        self._cols_of = entries
        self._cols_len = len(entries)
        return cols


class LeafNode(_LeafEntries):
    """Leaf bucket of dual points (plus an optional overflow chain).

    Built from an entry list by the write paths, or from decoded
    ``columns`` by :meth:`NodeCodec.deserialize`.
    """

    __slots__ = ("level", "v_corner", "p_corner", "overflow")

    def __init__(self, level: int, v_corner: Tuple[float, ...],
                 p_corner: Tuple[float, ...],
                 entries: Optional[List[DualPoint]] = None,
                 overflow: int = INVALID_RID, *,
                 columns: Optional[LeafSoA] = None):
        self.level = level
        self.v_corner = v_corner
        self.p_corner = p_corner
        self.overflow = overflow
        self._init_entries(entries, columns)

    @property
    def is_leaf(self) -> bool:
        return True

    def __eq__(self, other):
        if type(other) is not LeafNode:
            return NotImplemented
        return (self.level == other.level
                and self.v_corner == other.v_corner
                and self.p_corner == other.p_corner
                and self.overflow == other.overflow
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return (f"LeafNode(level={self.level}, v_corner={self.v_corner}, "
                f"p_corner={self.p_corner}, size={self.size}, "
                f"overflow={self.overflow})")


class LeafExtension(_LeafEntries):
    """Continuation record of an overflowing maximum-depth leaf."""

    __slots__ = ("overflow",)

    def __init__(self, entries: Optional[List[DualPoint]] = None,
                 overflow: int = INVALID_RID, *,
                 columns: Optional[LeafSoA] = None):
        self.overflow = overflow
        self._init_entries(entries, columns)

    def __eq__(self, other):
        if type(other) is not LeafExtension:
            return NotImplemented
        return (self.overflow == other.overflow
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"LeafExtension(size={self.size}, overflow={self.overflow})"


Node = Union[NonLeafNode, LeafNode, LeafExtension]


class NodeCodec:
    """Serialize/deserialize quadtree nodes for a given dimensionality and
    coordinate width.  One codec instance serves one quadtree."""

    def __init__(self, d: int, float32: bool = False):
        if d < 1:
            raise ValueError("dimensionality must be >= 1")
        self.d = d
        self.fanout = 4 ** d
        self.float32 = float32
        coord = "f" if float32 else "d"
        self.coord_bytes = 4 if float32 else 8
        # Non-leaf: tag, level, size, corners (2d coords), children
        # (fanout i64), is-leaf bitmask.
        self._isleaf_bytes = (self.fanout + 7) // 8
        self._nonleaf = struct.Struct(
            f"<BHI{2 * d}{coord}{self.fanout}q{self._isleaf_bytes}s")
        # Leaf header: tag, level, count, overflow rid, corners.
        self._leaf_header = struct.Struct(f"<BHHq{2 * d}{coord}")
        # Extension header: tag, count, overflow rid.
        self._ext_header = struct.Struct("<BHq")
        self._entry = struct.Struct(f"<q{2 * d}{coord}")
        # Batched entry packing: one pre-compiled Struct covering n entries
        # replaces n pack calls + a join.  Keyed by n, which is bounded by
        # the leaf/extension capacities, so the memo stays small.
        self._entry_fmt = f"q{2 * d}{coord}"
        self._entry_batch: dict[int, struct.Struct] = {}
        # Decoding reads the whole entry area with one ``np.frombuffer``
        # over a structured dtype laid out exactly like ``_entry``.
        coord_dtype = "<f4" if float32 else "<f8"
        self._entry_dtype = np.dtype([("oid", "<i8"),
                                      ("v", coord_dtype, (d,)),
                                      ("p", coord_dtype, (d,))])

    # ------------------------------------------------------------------ #
    # Sizes and capacities
    # ------------------------------------------------------------------ #

    @property
    def nonleaf_record_size(self) -> int:
        """Exact byte size of a serialized non-leaf node."""
        return self._nonleaf.size

    @property
    def entry_size(self) -> int:
        """Bytes per leaf entry (oid + 2d coordinates)."""
        return self._entry.size

    def leaf_capacity(self, record_size: int) -> int:
        """Entries that fit in a leaf record of ``record_size`` bytes."""
        usable = record_size - self._leaf_header.size
        if usable < self.entry_size:
            raise ValueError(
                f"leaf record of {record_size} bytes cannot hold any entry")
        return usable // self.entry_size

    def extension_capacity(self, record_size: int) -> int:
        """Entries that fit in an extension record."""
        usable = record_size - self._ext_header.size
        return usable // self.entry_size

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def serialize(self, node: Node) -> bytes:
        if isinstance(node, NonLeafNode):
            return self._serialize_nonleaf(node)
        if isinstance(node, LeafNode):
            return self._serialize_leaf(node)
        if isinstance(node, LeafExtension):
            return self._serialize_extension(node)
        raise TypeError(f"cannot serialize {type(node).__name__}")

    def deserialize(self, raw: bytes) -> Node:
        tag = raw[0]
        if tag == _TAG_NONLEAF:
            return self._deserialize_nonleaf(raw)
        if tag == _TAG_LEAF:
            return self._deserialize_leaf(raw)
        if tag == _TAG_EXTENSION:
            return self._deserialize_extension(raw)
        raise ValueError(f"unknown node tag {tag}")

    def _serialize_nonleaf(self, node: NonLeafNode) -> bytes:
        if len(node.children) != self.fanout:
            raise ValueError(
                f"non-leaf has {len(node.children)} child slots, expected "
                f"{self.fanout}")
        mask = bytearray(self._isleaf_bytes)
        for i, leaf_flag in enumerate(node.child_is_leaf):
            if leaf_flag:
                mask[i >> 3] |= 1 << (i & 7)
        return self._nonleaf.pack(
            _TAG_NONLEAF, node.level, node.size,
            *node.v_corner, *node.p_corner,
            *node.children, bytes(mask))

    def _deserialize_nonleaf(self, raw: bytes) -> NonLeafNode:
        parts = self._nonleaf.unpack(raw[: self._nonleaf.size])
        _, level, size = parts[0], parts[1], parts[2]
        offset = 3
        v_corner = tuple(parts[offset: offset + self.d])
        p_corner = tuple(parts[offset + self.d: offset + 2 * self.d])
        offset += 2 * self.d
        children = list(parts[offset: offset + self.fanout])
        mask = parts[offset + self.fanout]
        child_is_leaf = [bool(mask[i >> 3] & (1 << (i & 7)))
                         for i in range(self.fanout)]
        return NonLeafNode(level, v_corner, p_corner, children,
                           child_is_leaf, size)

    def _pack_entries(self, entries: List[DualPoint]) -> bytes:
        n = len(entries)
        if n < _PACK_BATCH_MIN:
            return b"".join(
                self._entry.pack(e.oid, *e.v, *e.p) for e in entries)
        st = self._entry_batch.get(n)
        if st is None:
            st = struct.Struct("<" + self._entry_fmt * n)
            self._entry_batch[n] = st
        flat: List = []
        append = flat.append
        extend = flat.extend
        for e in entries:
            append(e.oid)
            extend(e.v)
            extend(e.p)
        # One pack call emits the identical bytes the per-entry join
        # would: same little-endian layout, same double->float conversion
        # per coordinate in the float32 layout.
        return st.pack(*flat)

    def _decode_columns(self, raw: bytes, offset: int,
                        count: int) -> LeafSoA:
        rows = np.frombuffer(raw, dtype=self._entry_dtype, count=count,
                             offset=offset)
        # Read-only views into the immutable record bytes; the float32
        # layout widens (exactly) into fresh float64 columns.
        return LeafSoA(rows["oid"],
                       rows["v"].astype(np.float64, copy=False),
                       rows["p"].astype(np.float64, copy=False))

    def _serialize_leaf(self, node: LeafNode) -> bytes:
        header = self._leaf_header.pack(
            _TAG_LEAF, node.level, len(node.entries), node.overflow,
            *node.v_corner, *node.p_corner)
        return header + self._pack_entries(node.entries)

    def _deserialize_leaf(self, raw: bytes) -> LeafNode:
        parts = self._leaf_header.unpack(raw[: self._leaf_header.size])
        _, level, count, overflow = parts[:4]
        v_corner = tuple(parts[4: 4 + self.d])
        p_corner = tuple(parts[4 + self.d: 4 + 2 * self.d])
        columns = self._decode_columns(raw, self._leaf_header.size, count)
        return LeafNode(level, v_corner, p_corner, overflow=overflow,
                        columns=columns)

    def _serialize_extension(self, node: LeafExtension) -> bytes:
        header = self._ext_header.pack(
            _TAG_EXTENSION, len(node.entries), node.overflow)
        return header + self._pack_entries(node.entries)

    def _deserialize_extension(self, raw: bytes) -> LeafExtension:
        _, count, overflow = self._ext_header.unpack(
            raw[: self._ext_header.size])
        columns = self._decode_columns(raw, self._ext_header.size, count)
        return LeafExtension(overflow=overflow, columns=columns)
