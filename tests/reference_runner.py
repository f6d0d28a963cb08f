"""The monolithic reference runner the differential gates compare against.

:func:`run_workload_monolithic` is the pre-refactor single-loop runner,
kept verbatim: one private min-heap on ``(core_time, tid)`` drives every
thread generator to completion.  ``repro.harness.runner.run_workload``
drives the same run through :class:`~repro.sched.shard.ShardMachine`,
and the gates prove the two bit-identical in cost counters.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.harness.runner import PreparedWorkload, RunConfig, RunOutcome, build_run
from repro.workloads.base import Workload


def run_workload_monolithic(
    workload: Workload,
    run: RunConfig,
    prepared: Optional[PreparedWorkload] = None,
    machine_hook=None,
) -> RunOutcome:
    """The pre-refactor single-loop runner, kept as the reference.

    Drives every thread generator to completion with one private
    min-heap on ``(core_time, tid)``.  The differential gate runs this
    against :func:`run_workload` to prove the steppable-shard path is
    bit-identical in cost counters; it is not used by any entry point.
    """
    machine, pm, workload = build_run(workload, run, prepared, machine_hook)

    generators = []
    for tid in range(run.threads):
        api = pm.api(core_id=tid, tid=tid)
        generators.append(workload.thread_body(api, tid, run.txns_per_thread))

    # Min-heap on core clock; tie-break on thread id for determinism.
    ready = [(machine.core_time(tid), tid) for tid in range(run.threads)]
    heapq.heapify(ready)
    while ready:
        _, tid = heapq.heappop(ready)
        try:
            next(generators[tid])
        except StopIteration:
            continue
        heapq.heappush(ready, (machine.core_time(tid), tid))

    stats = machine.finalize()
    return RunOutcome(run.policy, run.threads, stats, machine, pm)
