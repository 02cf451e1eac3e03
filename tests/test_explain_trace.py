"""Golden ``explain()`` traces over fixed-seed indexes.

``StripesIndex.explain`` counts on the production columnar descent
(:meth:`repro.core.quadtree.DualQuadTree.search_columns`).  The counters
below were recorded from the list-building descent that ``explain()``
used to run, so they pin the trace's meaning: every ``DescentTrace``
counter and the explain's page reads must stay exactly as they were,
and ``explain(q).results`` must equal ``query(q)`` element for element.
"""

from __future__ import annotations

import random

import pytest

from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import (
    MovingObjectState,
    MovingQuery,
    TimeSliceQuery,
    WindowQuery,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile

SIDE = 200.0
VMAX = 3.0
LIFETIME = 30.0
N_OBJECTS = 4000
POOL_PAGES = 8


def golden_index(d: int, float32: bool) -> StripesIndex:
    """``N_OBJECTS`` objects over two lifetime windows, inserted in time
    order into a pool far smaller than the index."""
    rng = random.Random(1000 * d + float32)
    index = StripesIndex(
        StripesConfig(vmax=(VMAX,) * d, pmax=(SIDE,) * d, lifetime=LIFETIME,
                      float32=float32),
        pool=BufferPool(InMemoryPageFile(), capacity=POOL_PAGES))
    times = sorted(rng.uniform(0.0, 1.6 * LIFETIME) for _ in range(N_OBJECTS))
    for oid, t in enumerate(times):
        index.insert(MovingObjectState(
            oid, tuple(rng.uniform(0.0, SIDE) for _ in range(d)),
            tuple(rng.uniform(-VMAX, VMAX) for _ in range(d)), t))
    return index


def golden_queries(d: int):
    """A narrow and a whole-space time-slice query, a window and a
    moving query: between them they prune, report whole subtrees and
    filter leaves in every sub-index."""
    now = 1.6 * LIFETIME
    return [
        TimeSliceQuery((60.0,) * d, (80.0,) * d, now + 1.0),
        TimeSliceQuery((-50.0,) * d, (250.0,) * d, now + 3.0),
        WindowQuery((20.0,) * d, (110.0,) * d, now, now + 12.0),
        MovingQuery((10.0,) * d, (90.0,) * d, (90.0,) * d, (190.0,) * d,
                    now + 2.0, now + 20.0),
    ]


def explain_record(index: StripesIndex, query):
    """The golden form of one explain: page reads, then one counter
    tuple per sub-index in the order the query visits them."""
    out = index.explain(query)
    assert out.results == index.query(query)
    return (out.logical_reads, out.physical_reads,
            [tuple(sub.trace.as_dict().values()) for sub in out.sub_indexes])


GOLDEN = {
    (1, False): [
        (40, 20, [
            (9, 15, 3, 0, 23, 13, 13, 0, 23, 1175, 0, 207, 0),
            (7, 9, 3, 0, 15, 13, 13, 0, 15, 770, 0, 141, 0),
        ]),
        (82, 51, [
            (13, 36, 3, 16, 24, 4, 3, 16, 24, 722, 1700, 2266, 0),
            (8, 25, 2, 6, 14, 0, 0, 6, 14, 475, 1047, 1520, 0),
        ]),
        (60, 32, [
            (12, 22, 3, 2, 31, 15, 14, 2, 31, 1546, 133, 968, 0),
            (8, 18, 3, 4, 21, 7, 7, 4, 21, 1102, 185, 754, 0),
        ]),
        (68, 40, [
            (12, 27, 3, 8, 30, 10, 9, 8, 30, 1357, 641, 1536, 0),
            (8, 21, 3, 7, 17, 4, 4, 7, 17, 1041, 472, 1198, 0),
        ]),
    ],
    (1, True): [
        (35, 19, [
            (9, 15, 3, 0, 23, 13, 13, 0, 23, 1220, 0, 225, 0),
            (4, 7, 2, 0, 10, 6, 6, 0, 10, 1082, 0, 159, 0),
        ]),
        (63, 32, [
            (11, 32, 3, 16, 18, 2, 2, 16, 18, 748, 1740, 2287, 0),
            (5, 15, 2, 6, 14, 0, 0, 6, 13, 438, 1072, 1508, 0),
        ]),
        (48, 23, [
            (11, 22, 3, 2, 30, 12, 12, 2, 30, 1661, 163, 1013, 0),
            (5, 10, 2, 0, 14, 6, 5, 0, 14, 1324, 0, 762, 0),
        ]),
        (55, 26, [
            (11, 27, 3, 8, 29, 7, 7, 8, 29, 1498, 665, 1549, 0),
            (5, 12, 2, 1, 15, 4, 3, 1, 15, 1331, 172, 1187, 0),
        ]),
    ],
    (2, False): [
        (102, 64, [
            (9, 64, 2, 0, 52, 20, 43, 0, 72, 1344, 0, 18, 0),
            (4, 25, 2, 0, 21, 11, 31, 0, 28, 826, 0, 18, 0),
        ]),
        (217, 127, [
            (13, 135, 2, 32, 64, 8, 2, 16, 131, 2265, 281, 2190, 0),
            (5, 64, 2, 15, 25, 0, 0, 14, 54, 1150, 302, 1450, 0),
        ]),
        (183, 119, [
            (13, 114, 2, 0, 84, 20, 23, 0, 126, 2291, 0, 408, 0),
            (5, 51, 2, 0, 34, 6, 13, 0, 55, 1376, 0, 376, 0),
        ]),
        (195, 122, [
            (13, 114, 2, 8, 76, 20, 23, 1, 125, 2283, 8, 937, 0),
            (5, 63, 2, 3, 35, 2, 1, 1, 66, 1433, 18, 911, 0),
        ]),
    ],
    (2, True): [
        (67, 48, [
            (5, 52, 2, 0, 34, 6, 21, 0, 56, 1540, 0, 21, 0),
            (1, 9, 1, 0, 6, 2, 7, 0, 9, 926, 0, 13, 0),
        ]),
        (95, 66, [
            (5, 73, 2, 16, 24, 0, 0, 16, 61, 2200, 277, 2117, 0),
            (1, 16, 1, 0, 8, 0, 0, 0, 16, 1523, 0, 1523, 0),
        ]),
        (95, 66, [
            (5, 73, 2, 0, 40, 0, 0, 0, 77, 2477, 0, 400, 0),
            (1, 16, 1, 0, 8, 0, 0, 0, 16, 1523, 0, 381, 0),
        ]),
        (95, 66, [
            (5, 73, 2, 4, 36, 0, 0, 1, 76, 2471, 6, 952, 0),
            (1, 16, 1, 0, 8, 0, 0, 0, 16, 1523, 0, 930, 0),
        ]),
    ],
    (3, False): [
        (173, 144, [
            (5, 140, 2, 0, 53, 7, 51, 0, 144, 1263, 0, 2, 0),
            (1, 27, 1, 0, 9, 3, 37, 0, 27, 718, 0, 5, 0),
        ]),
        (261, 219, [
            (5, 191, 2, 24, 36, 0, 0, 21, 174, 2475, 39, 1936, 0),
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 1486, 0, 1484, 0),
        ]),
        (261, 219, [
            (5, 191, 2, 0, 60, 0, 0, 0, 195, 2514, 0, 134, 0),
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 1486, 0, 190, 0),
        ]),
        (261, 219, [
            (5, 191, 2, 4, 56, 0, 0, 0, 195, 2514, 0, 581, 0),
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 1486, 0, 728, 0),
        ]),
    ],
    (3, True): [
        (56, 51, [
            (1, 27, 1, 0, 9, 3, 37, 0, 27, 1321, 0, 2, 0),
            (1, 27, 1, 0, 9, 3, 37, 0, 27, 712, 0, 3, 0),
        ]),
        (130, 115, [
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 2529, 0, 1971, 0),
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 1471, 0, 1470, 0),
        ]),
        (130, 115, [
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 2529, 0, 155, 0),
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 1471, 0, 190, 0),
        ]),
        (130, 115, [
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 2529, 0, 627, 0),
            (1, 64, 1, 0, 12, 0, 0, 0, 64, 1471, 0, 768, 0),
        ]),
    ],
}


@pytest.mark.parametrize("float32", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_explain_trace_is_golden(d, float32):
    index = golden_index(d, float32)
    got = [explain_record(index, q) for q in golden_queries(d)]
    assert got == GOLDEN[(d, float32)]
