"""One independently steppable shard: a machine plus its thread drivers.

A :class:`ShardMachine` owns one :class:`~repro.sim.machine.Machine`
(with its :class:`~repro.txn.runtime.PersistentMemory`) and the
generator per software thread that drives it.  The historical runner
advanced one machine to completion with a private min-heap loop; the
shard keeps the *identical* drive order — a min-heap on
``(core_time, tid)``, one generator advance per pop, drop on
``StopIteration`` — but exposes it cooperatively, so an event-loop
scheduler can interleave many shards and inject work between steps:

``step(until_cycle)``
    Advance any thread whose core clock is behind the horizon; stop once
    the earliest live thread reaches it (or everything finished/parked).
``inject(request)``
    Enqueue one client request and wake parked serve threads.
``drain()``
    Run to completion (and, in serve mode, close the queue first).

It is the package's only drive loop: batch runs, serve and drift
shards, compiled replay (:func:`~repro.sim.replay.run_compiled`, via
:meth:`start` with its replay generator) and the crash campaigns all
advance through :meth:`step`.  Every thread generator drives the
shard's own thread API, one per thread.

Bit-identity: with ``until_cycle=None`` the step loop is structurally
the monolithic loop — same heap contents, same tie-break, same
``next()`` sequence — which is what makes the single-shard scheduler
path bit-identical in cost counters to the pre-refactor runner (the
differential gate in ``tests/sched/test_shard_equivalence.py`` proves
it against the golden fixture).

Volatile workload state: shards may *share* one prepared workload
instance (setup is expensive; the persistent image is per-machine
anyway).  Anything host-side that thread bodies mutate — append
cursors, inode rotors — is checkpointed per shard through the
``Workload.run_state()`` / ``restore_run_state()`` contract and swapped
in around every step window, so interleaved shard stepping can never
leak run state across shards or requests.  A shard built without a
workload (compiled replay) has no run state to swap.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional

from ..errors import WorkloadError

#: Sentinel a serve thread yields when its queue is empty: the shard
#: parks the thread (removes it from the ready heap) until the next
#: ``inject`` or ``close`` wakes it.
IDLE = object()


class ShardMachine:
    """A steppable execution shard over one machine."""

    def __init__(
        self,
        machine,
        pm,
        workload,
        threads: int,
        *,
        shard_id: int = 0,
        batch_requests: int = 8,
    ) -> None:
        if threads > machine.config.num_cores:
            raise WorkloadError(
                f"{threads} threads need {threads} cores, "
                f"config has {machine.config.num_cores}"
            )
        self.machine = machine
        self.pm = pm
        self.workload = workload
        self.threads = threads
        self.shard_id = shard_id
        self.batch_requests = batch_requests
        self.queue: deque = deque()
        self._apis = [pm.api(core_id=tid, tid=tid) for tid in range(threads)]
        self._gens: list = [None] * threads
        self._ready: list = []
        self._parked: set = set()
        self._closed = False
        self._serving = False
        self._started = False
        # Per-shard checkpoint of the workload's volatile run state,
        # captured at construction (the post-reset baseline) and swapped
        # in around every step window.
        self._run_state = None if workload is None else workload.run_state()

    # ------------------------------------------------------------------
    # Mode selection
    # ------------------------------------------------------------------
    def start_batch(self, txns_per_thread: int) -> None:
        """Closed-loop mode: one classic ``thread_body`` generator per
        thread, exactly as the monolithic runner created them."""
        workload = self.workload
        self.start(lambda api, tid: workload.thread_body(api, tid, txns_per_thread))

    def start_serve(self) -> None:
        """Open-loop mode: every thread serves the shard's request queue."""
        self._serving = True
        self.start(self._serve_body)

    def start(self, body) -> None:
        """Drive ``body(api, tid)``, one generator per thread, in the
        shard's order.

        ``api`` is the shard's own thread API for ``tid``, the one
        :meth:`switch_design` refreshes.  :meth:`start_batch` and
        :meth:`start_serve` pass the workload's thread body and the serve
        driver; compiled replay passes its replay generator.
        """
        if self._started:
            raise WorkloadError("shard already started")
        self._started = True
        self._gens = [body(api, tid) for tid, api in enumerate(self._apis)]
        # Min-heap on core clock; tie-break on thread id for determinism
        # (identical to the historical runner loop).
        self._ready = [
            (self.machine.core_time(tid), tid) for tid in range(self.threads)
        ]
        heapq.heapify(self._ready)

    # ------------------------------------------------------------------
    # The cooperative core
    # ------------------------------------------------------------------
    def step(self, until_cycle: Optional[float] = None) -> int:
        """Advance threads whose clocks are behind ``until_cycle``.

        ``None`` means no horizon: run until every live thread finished
        or parked.  Returns the number of generator advances made.  The
        drive order is the monolithic runner's: pop the thread with the
        lowest core clock, advance its generator once, push it back at
        its new clock.
        """
        if not self._started:
            raise WorkloadError("shard not started (call start_batch/start_serve/start)")
        ready = self._ready
        gens = self._gens
        machine = self.machine
        workload = self.workload
        if workload is not None:
            workload.restore_run_state(self._run_state)
        steps = 0
        while ready:
            if until_cycle is not None and ready[0][0] >= until_cycle:
                break
            _, tid = heapq.heappop(ready)
            try:
                value = next(gens[tid])
            except StopIteration:
                continue
            if value is IDLE:
                self._parked.add(tid)
                continue
            heapq.heappush(ready, (machine.core_time(tid), tid))
            steps += 1
        if workload is not None:
            self._run_state = workload.run_state()
        return steps

    def inject(self, request) -> None:
        """Enqueue one client request; wakes parked serve threads."""
        if not self._serving:
            raise WorkloadError("inject requires a serving shard (start_serve)")
        if self._closed:
            raise WorkloadError("inject after close")
        self.queue.append(request)
        if self._parked:
            self._wake_parked()

    def close(self) -> None:
        """No further injections: parked threads wake to finish and exit."""
        self._closed = True
        if self._parked:
            self._wake_parked()

    def drain(self) -> None:
        """Run to completion (closing the request queue in serve mode)."""
        if self._serving and not self._closed:
            self.close()
        self.step(None)

    def _wake_parked(self) -> None:
        machine = self.machine
        for tid in sorted(self._parked):
            heapq.heappush(self._ready, (machine.core_time(tid), tid))
        self._parked.clear()

    # ------------------------------------------------------------------
    # Safe-switch protocol (repro.adapt)
    # ------------------------------------------------------------------
    def switch_design(self, new_policy) -> float:
        """Run the machine's epoch barrier and swap the spec.

        The full safe-switch protocol: the machine drains WCBs and log
        FIFOs and forces logged-dirty lines durable before atomically
        swapping the :class:`~repro.core.design.DesignSpec`
        (:meth:`~repro.sim.machine.Machine.switch_design`), every live
        thread API re-reads the policy, and the ready heap is re-priced
        to the barrier-advanced core clocks so drive order stays
        deterministic.  Returns the barrier completion cycle.

        Thread generators yield only between transactions (the
        ``thread_body`` contract, the serve body and compiled replay all
        commit before yielding), so no thread is mid-transaction here.
        One that is raises :class:`~repro.errors.WorkloadError` before
        the barrier, leaving the design unchanged.
        """
        busy = [api.tid for api in self._apis if api.in_transaction]
        if busy:
            raise WorkloadError(
                f"design switch with thread(s) {busy} inside a transaction: "
                "thread generators must yield between transactions"
            )
        barrier = self.machine.switch_design(new_policy)
        for api in self._apis:
            api.refresh_policy()
        machine = self.machine
        if self._ready:
            self._ready = [
                (machine.core_time(tid), tid) for _clock, tid in self._ready
            ]
            heapq.heapify(self._ready)
        return barrier

    # ------------------------------------------------------------------
    # Serve-mode thread driver
    # ------------------------------------------------------------------
    def _serve_body(self, api, tid: int):
        """Pull request batches off the queue into tagged transactions."""
        queue = self.queue
        workload = self.workload
        machine = self.machine
        limit = self.batch_requests
        while True:
            if not queue:
                if self._closed:
                    return
                yield IDLE
                continue
            batch = []
            while queue and len(batch) < limit:
                batch.append(queue.popleft())
            # Service cannot begin before the newest request in the
            # batch arrived; an idle core's clock advances to that
            # instant (idle wait, not execution).
            machine.advance_core(tid, batch[-1].arrival)
            api.tag_requests(batch)
            with api.transaction():
                for request in batch:
                    workload.serve_request(api, tid, request)
            yield

    # ------------------------------------------------------------------
    # Introspection (admission / reporting)
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every thread finished (empty heap, nothing parked)."""
        return self._started and not self._ready and not self._parked

    @property
    def active(self) -> bool:
        """True while any thread could still advance (ready or parked)."""
        return self._started and bool(self._ready or self._parked)

    def clock(self) -> float:
        """Highest thread core clock (the shard's local notion of now)."""
        return max(
            (self.machine.core_time(tid) for tid in range(self.threads)),
            default=0.0,
        )

    def queue_depth(self) -> int:
        """Requests enqueued but not yet pulled into a transaction."""
        return len(self.queue)

    def log_occupancy(self) -> int:
        """Deepest hardware log-buffer occupancy (0 without HW logging).

        The backpressure signal: records accepted by the HWL engine but
        not yet drained onto the NVRAM bus.  Saturation here means the
        shard's persist bandwidth, not its compute, is the bottleneck.
        """
        buffers = self.machine.log_buffers
        if not buffers:
            return 0
        return max(buffer.occupancy for buffer in buffers)

    def completed_requests(self) -> list:
        """``(request, commit_durable, tid)`` in commit order."""
        return self.pm.request_log
