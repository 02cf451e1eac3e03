"""Workload definitions and set-up for the STRIPES benchmark.

``spec.json`` beside this file fixes every workload's sizes, mix, pool,
rate ladder and latency limit.  :func:`build` turns one workload and a
seed into a ready-to-run :class:`Setup`: it generates the operation
stream with :func:`repro.workload.generate_workload`, shifts every
timestamp by the spec's common offset (so the initial load lands just
before the first lifetime boundary and the timed phase runs with two
live sub-indexes), builds the index or the sharded service, and loads
the initial objects.  Everything the benchmark times as ``setup_s``
happens inside :func:`build`.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.stripes import StripesConfig, StripesIndex
from repro.query.types import (
    MovingObjectState,
    MovingQuery,
    TimeSliceQuery,
    WindowQuery,
)
from repro.service import ServiceConfig, ShardedStripes, StripesService
from repro.storage.buffer_pool import BufferPool
from repro.storage.pagefile import InMemoryPageFile
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.operations import UpdateOp

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "spec.json")

#: Op tags in :attr:`Setup.ops`: ``(UPDATE, old, new)`` / ``(QUERY, q)``.
UPDATE = 0
QUERY = 1


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def shift_state(state: MovingObjectState, dt: float) -> MovingObjectState:
    return MovingObjectState(state.oid, state.pos, state.vel, state.t + dt)


def shift_query(query, dt: float):
    if isinstance(query, TimeSliceQuery):
        return TimeSliceQuery(query.low, query.high, query.t + dt)
    if isinstance(query, WindowQuery):
        return WindowQuery(query.low, query.high,
                           query.t_low + dt, query.t_high + dt)
    if isinstance(query, MovingQuery):
        return MovingQuery(query.low1, query.high1, query.low2, query.high2,
                           query.t_low + dt, query.t_high + dt)
    raise TypeError(f"unknown query type {type(query).__name__}")


@dataclass
class Setup:
    """One built workload: the loaded system plus its op stream."""

    name: str
    params: Dict[str, Any]
    config: StripesConfig
    initial: List[MovingObjectState]
    ops: List[Tuple]
    #: Library workloads: the index under test.
    index: Optional[StripesIndex] = None
    #: Service workloads: the sharded facade and the (started) service.
    sharded: Optional[ShardedStripes] = None
    service: Optional[StripesService] = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def page_size(self) -> int:
        if self.index is not None:
            return self.index.pool.pagefile.page_size
        return self.sharded.shards[0].index.pool.pagefile.page_size

    def pages_in_use(self) -> int:
        if self.index is not None:
            return self.index.pages_in_use()
        return self.sharded.pages_in_use()

    def live_objects(self) -> int:
        if self.index is not None:
            return len(self.index)
        return len(self.sharded)


def generate(spec: Dict[str, Any], name: str, seed: int
             ) -> Tuple[StripesConfig, List[MovingObjectState], List[Tuple]]:
    """The shifted initial states and op stream of workload ``name``."""
    params = spec["workloads"][name]
    workload = generate_workload(WorkloadSpec(
        n_objects=params["objects"],
        update_fraction=params["update_fraction"],
        n_operations=params["operations"],
        seed=seed))
    dt = spec["time_offset"]
    initial = [shift_state(state, dt) for state in workload.initial]
    ops: List[Tuple] = []
    for op in workload.operations:
        if isinstance(op, UpdateOp):
            ops.append((UPDATE, shift_state(op.old, dt),
                        shift_state(op.new, dt)))
        else:
            ops.append((QUERY, shift_query(op.query, dt)))
    config = StripesConfig(vmax=workload.vmax, pmax=workload.pmax,
                           lifetime=spec["lifetime"])
    return config, initial, ops


def build(spec: Dict[str, Any], name: str, seed: int) -> Setup:
    """Generate workload ``name`` for ``seed`` and load its system."""
    params = spec["workloads"][name]
    config, initial, ops = generate(spec, name, seed)
    # The generated states and op stream belong to the benchmark, not to
    # the system under test: freeze them out of the collector's view so
    # that full collections do not pay for traversing them.
    gc.freeze()
    setup = Setup(name, params, config, initial, ops)
    if params["kind"] == "library":
        pool = BufferPool(InMemoryPageFile(), capacity=params["pool_pages"])
        setup.index = StripesIndex(config, pool)
        setup.index.bulk_load(initial)
    else:
        setup.sharded = ShardedStripes(config, n_shards=params["shards"],
                                       pool_pages=params["pool_pages"])
        setup.sharded.insert_batch(initial)
        setup.service = StripesService(
            setup.sharded, ServiceConfig(workers=params["workers"])).start()
    return setup


def timed_builds(spec: Dict[str, Any], name: str, seed: int
                 ) -> Tuple[Setup, List[float]]:
    """Build the workload ``setups_per_run`` times, closing each build
    before the next; returns the last build and every build's process
    CPU time (set-up is single-threaded and does no IO wait, so this is
    its wall time on an idle core)."""
    times: List[float] = []
    setup = None
    for _ in range(spec["setups_per_run"]):
        if setup is not None:
            setup.close()
            setup = None
            gc.collect()
        t0 = time.process_time()
        setup = build(spec, name, seed)
        times.append(time.process_time() - t0)
    return setup, times
