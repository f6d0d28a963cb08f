"""Shared helper for the adaptive-logging tests: a closed-loop run with
one (or several) mid-run design switches at commit counts, calling
``Machine.switch_design`` directly.  (The switch campaign and serve
switch at cycle horizons through ``ShardMachine.switch_design``.)"""

from __future__ import annotations

import heapq

from repro.core.design import resolve_design
from repro.faults.campaign import campaign_workload, default_campaign_system
from repro.harness.runner import prepare_workload
from repro.sim.machine import Machine
from repro.txn.runtime import PersistentMemory


def run_with_switches(
    specs,
    switch_at,
    threads: int = 2,
    txns_per_thread: int = 24,
    workload: str = "hash",
    seed: int = 7,
    machine_hook=None,
):
    """Run ``workload`` under ``specs[0]``, switching to each later spec
    at the matching commit count in ``switch_at``; returns the machine
    and persistent-memory handle after a finished run.
    """
    specs = [resolve_design(spec) for spec in specs]
    assert len(switch_at) == len(specs) - 1
    system = default_campaign_system()
    wl = campaign_workload(workload, seed)
    prepared = prepare_workload(wl, system)
    machine = Machine(system, specs[0])
    if machine_hook is not None:
        machine_hook(machine)
    pm = PersistentMemory(machine)
    machine.nvram.load_image_prefix(prepared.image_prefix)
    pm.heap.restore(prepared.heap_state)
    prepared.workload.attach(pm)
    apis = [pm.api(core_id=tid, tid=tid) for tid in range(threads)]
    generators = [
        prepared.workload.thread_body(apis[tid], tid, txns_per_thread)
        for tid in range(threads)
    ]
    ready = [(machine.core_time(tid), tid) for tid in range(threads)]
    heapq.heapify(ready)
    pending = list(zip(switch_at, specs[1:]))
    while ready:
        if pending and machine.stats.transactions_committed >= pending[0][0]:
            machine.switch_design(pending.pop(0)[1])
            for api in apis:
                api.refresh_policy()
        _, tid = heapq.heappop(ready)
        try:
            next(generators[tid])
        except StopIteration:
            continue
        heapq.heappush(ready, (machine.core_time(tid), tid))
    while pending:  # thresholds past the run's end: switch at the tail
        machine.switch_design(pending.pop(0)[1])
    return machine, pm
