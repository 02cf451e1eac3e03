"""Reference search: the oracle for the quadtree's columnar descent.

A plain recursive descent over ``tree.cache.get``.  Each child rectangle
is classified per plane with ``classify_rect``: any DISJUNCT plane prunes
it, all-INSIDE reports its whole subtree, anything else is searched; leaf
entries are tested one by one with ``contains_point``, and window/moving
candidates are refined one by one with
``MovingQueryEvaluator.matches_trajectory``.  It shares no kernel, shared-
corner classification, deferred segment or unrolled loop with
:meth:`repro.core.quadtree.DualQuadTree.search_columns`, and returns its
answer in the same descent order, so the two must agree exactly.
"""

from __future__ import annotations

from typing import List

from repro.core.dual import DualPoint
from repro.core.nodes import INVALID_RID
from repro.core.query_region import RelPos, build_query_regions
from repro.query.predicates import MovingQueryEvaluator


def reference_search(tree, regions) -> List[DualPoint]:
    """Entries of ``tree`` inside the per-plane ``regions``, in descent
    order (children by Eq. 1 index, overflow chains in chain order)."""
    out: List[DualPoint] = []
    if tree._root_is_leaf:
        _filter_leaf(tree, tree.cache.get(tree._root_rid), regions, out)
    else:
        _search_nonleaf(tree, tree.cache.get(tree._root_rid), regions, out)
    return out


def _chain(tree, leaf) -> List[DualPoint]:
    entries = list(leaf.entries)
    rid = leaf.overflow
    while rid != INVALID_RID:
        ext = tree.cache.get(rid)
        entries.extend(ext.entries)
        rid = ext.overflow
    return entries


def _filter_leaf(tree, leaf, regions, out: List[DualPoint]) -> None:
    for entry in _chain(tree, leaf):
        if all(regions[i].contains_point(entry.v[i], entry.p[i])
               for i in range(tree.d)):
            out.append(entry)


def _report(tree, rid: int, is_leaf: bool, out: List[DualPoint]) -> None:
    node = tree.cache.get(rid)
    if is_leaf:
        out.extend(_chain(tree, node))
        return
    for idx in node.present_children():
        _report(tree, node.children[idx], node.child_is_leaf[idx], out)


def _search_nonleaf(tree, node, regions, out: List[DualPoint]) -> None:
    sl_v, sl_p = tree._child_sides(node.level + 1)
    for idx in node.present_children():
        v_corner, p_corner = tree._child_corner(node, idx)
        rels = [regions[i].classify_rect(v_corner[i], v_corner[i] + sl_v[i],
                                         p_corner[i], p_corner[i] + sl_p[i])
                for i in range(tree.d)]
        if RelPos.DISJUNCT in rels:
            continue
        child_rid = node.children[idx]
        if all(rel is RelPos.INSIDE for rel in rels):
            _report(tree, child_rid, node.child_is_leaf[idx], out)
        elif node.child_is_leaf[idx]:
            _filter_leaf(tree, tree.cache.get(child_rid), regions, out)
        else:
            _search_nonleaf(tree, tree.cache.get(child_rid), regions, out)


def reference_query(index, query, refine: bool = True) -> List[int]:
    """Object ids :meth:`repro.core.stripes.StripesIndex.query` must
    return, in the same order: sub-indexes in the index's order, each
    one's entries in descent order."""
    moving = query.as_moving()
    refine = refine and moving.t_low < moving.t_high
    matches = MovingQueryEvaluator(moving).matches_trajectory
    ids: List[int] = []
    for tree in index._trees.values():
        space = tree.space
        regions = build_query_regions(moving, index.config.vmax,
                                      index.config.lifetime, space.t_ref)
        for entry in reference_search(tree, regions):
            if refine:
                pv = [v - vm for v, vm in zip(entry.v, space.vmax)]
                p0 = [p - pvi * space.t_ref - vm * space.lifetime
                      for p, pvi, vm in zip(entry.p, pv, space.vmax)]
                if not matches(p0, pv):
                    continue
            ids.append(entry.oid)
    return ids


def _exact_rows(oids, vs, ps) -> list:
    """Rows keyed bit-exactly (``float.hex`` tells -0.0 from 0.0)."""
    return [(int(oid), tuple(float(x).hex() for x in v),
             tuple(float(x).hex() for x in p))
            for oid, v, p in zip(oids, vs, ps)]


def checked_search(tree, regions) -> List[int]:
    """``tree.search_columns(regions)`` ids, after asserting that every
    row -- id and bit-exact ``vs``/``ps``, in order -- equals the
    reference descent's."""
    got = _exact_rows(*tree.search_columns(regions))
    want = reference_search(tree, regions)
    assert got == _exact_rows([e.oid for e in want], [e.v for e in want],
                              [e.p for e in want])
    return [row[0] for row in got]
