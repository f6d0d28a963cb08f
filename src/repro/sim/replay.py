"""Trace-compilation engine: record a workload once, replay it per design.

The interpreted path (:func:`repro.harness.runner.run_workload`) re-walks
every workload data structure — hashing keys, chasing pointers, consulting
RNGs — once per sweep cell, even though the resulting op stream is
identical for every cell that differs only in
:class:`~repro.core.design.DesignSpec`.  This module splits that work:

* :func:`compile_trace` runs each thread's generator **once** against a
  functional memory model and records the accessor-level operation stream
  into :class:`~repro.sim.ctrace.CompiledTrace` columns;
* :func:`run_compiled` replays the columns under any design, producing
  **bit-identical** :class:`~repro.sim.stats.MachineStats` to the
  interpreted run.

Replay has two engines, selected automatically:

* ``via-API`` — drives a real :class:`~repro.txn.runtime.ThreadAPI` call
  for call, reproducing the exact op *and* tracer/psan event streams.
  Used whenever a tracer, log tap or fault monitor is attached.
* ``fast`` — issues the scalar ``Core.exec_*`` methods itself, with
  per-design dispatch resolved once per cell (no golden-model
  bookkeeping, no loaded bytes sliced out).  Used when nothing
  subscribes to events.  Both engines run every op through
  :meth:`~repro.sim.machine.Machine.issue`, and every timing/stat
  formula lives in the scalar methods they share, so the stats stay
  bit-identical.

Validity of sequential recording: every trace-compilable workload
partitions its data per thread (``tid % MAX_PARTITIONS``), derives its
RNG from ``(seed, tid)`` and never reads another thread's writes, so each
thread's operation stream is independent of the interleaving and can be
recorded thread-at-a-time.  Allocation is the one cross-thread coupling:
the recorder never models the *shared* heap (interleaving-dependent) —
every shared-heap allocation yields a fresh symbolic token, bound to the
real address the replayed cell obtains (see :mod:`repro.sim.ctrace`);
only the deterministic thread-local recycling of
:meth:`~repro.txn.runtime.ThreadAPI.alloc`/``free`` is mirrored.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..core.design import CommitProtocol
from ..errors import TransactionError, WorkloadError
from ..utils import align_up, split_words
from .ctrace import (
    K_ALLOC,
    K_COMPUTE,
    K_FREE,
    K_READ,
    K_TX_BEGIN,
    K_TX_COMMIT,
    K_WRITE,
    K_YIELD,
    SYM_BASE,
    SYM_OFF_MASK,
    CompiledThread,
    CompiledTrace,
    sym_token,
)
from .machine import Machine

_ZEROS = tuple(bytes(n) for n in range(9))

# Per-design write/commit lowering, resolved once per replayed cell.
_MODE_PLAIN = 0
_MODE_HW = 1
_MODE_SW_UNDO = 2
_MODE_SW_REDO = 3


# ----------------------------------------------------------------------
# Recording (compile phase)
# ----------------------------------------------------------------------
class _RecordingMemory:
    """Functional memory shared by all recorded threads.

    Real addresses resolve against a mutable copy of the prepared NVRAM
    prefix (reads past the stored prefix are zeros, exactly like the real
    zero-backed device); symbolic blocks are per-allocation bytearrays.
    Pointer-valued words store their symbolic tokens verbatim, so pointer
    chases through recorded structures stay symbolic.
    """

    def __init__(self, image_prefix: bytes) -> None:
        self.image = bytearray(image_prefix)
        self.blocks: list[bytearray] = []
        self.block_sizes: list[int] = []

    def new_block(self, aligned_size: int) -> int:
        block_id = len(self.blocks)
        self.blocks.append(bytearray(aligned_size))
        self.block_sizes.append(aligned_size)
        return sym_token(block_id)

    def read(self, addr: int, size: int) -> bytes:
        if addr >= SYM_BASE:
            offset = addr & SYM_OFF_MASK
            return bytes(self.blocks[(addr - SYM_BASE) >> 24][offset:offset + size])
        image = self.image
        end = addr + size
        if end > len(image):
            image.extend(bytes(end - len(image)))
        return bytes(image[addr:end])

    def write(self, addr: int, data: bytes) -> None:
        if addr >= SYM_BASE:
            offset = addr & SYM_OFF_MASK
            self.blocks[(addr - SYM_BASE) >> 24][offset:offset + len(data)] = data
            return
        image = self.image
        end = addr + len(data)
        if end > len(image):
            image.extend(bytes(end - len(image)))
        image[addr:end] = data


class RecordingAccessor:
    """Accessor that records one thread's operation stream.

    Implements the same protocol as :class:`~repro.txn.runtime.ThreadAPI`
    (``read``/``write``/``read_word``/``write_word``/``compute``/``alloc``/
    ``free``/``transaction``)
    but charges no time — it appends column entries and serves reads from
    the functional memory.  Thread-local allocation recycling mirrors
    ``ThreadAPI`` exactly (LIFO per aligned size, frees quarantined until
    commit) so the replayed ``alloc`` call sequence pops the same blocks.
    """

    def __init__(self, memory: _RecordingMemory, column: CompiledThread) -> None:
        self._memory = memory
        self._col = column
        self._local_free: dict[int, list[int]] = {}
        self._pending_frees: list[tuple[int, int]] = []
        self._in_txn = False

    def read(self, addr: int, size: int) -> bytes:
        col = self._col
        col.kinds.append(K_READ)
        col.a.append(addr)
        col.b.append(size)
        return self._memory.read(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        if not self._in_txn:
            raise TransactionError("persistent writes require a transaction")
        col = self._col
        memory = self._memory
        pieces = split_words(addr, data)
        col.kinds.append(K_WRITE)
        col.a.append(len(col.piece_addr))
        col.b.append(len(pieces))
        n_blocks = len(memory.blocks)
        for piece_addr, piece in pieces:
            value = int.from_bytes(piece, "little")
            symbolic = (
                len(piece) == 8
                and value >= SYM_BASE
                and (value - SYM_BASE) >> 24 < n_blocks
            )
            col.piece_addr.append(piece_addr)
            col.piece_len.append(len(piece))
            col.piece_sym.append(1 if symbolic else 0)
            col.piece_val.append(value)
            memory.write(piece_addr, piece)

    def read_word(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_word(self, addr: int, value: int) -> None:
        self.write(addr, value.to_bytes(8, "little"))

    def compute(self, count: int) -> None:
        if count > 0:
            col = self._col
            col.kinds.append(K_COMPUTE)
            col.a.append(count)
            col.b.append(0)

    def alloc(self, size: int) -> int:
        aligned = align_up(size, 8)
        bucket = self._local_free.get(aligned)
        if bucket:
            token = bucket.pop()
        else:
            token = self._memory.new_block(aligned)
        col = self._col
        col.kinds.append(K_ALLOC)
        col.a.append(size)
        col.b.append(token)
        return token

    def free(self, addr: int, size: int) -> None:
        col = self._col
        col.kinds.append(K_FREE)
        col.a.append(addr)
        col.b.append(size)
        aligned = align_up(size, 8)
        if self._in_txn:
            self._pending_frees.append((addr, aligned))
        else:
            self._local_free.setdefault(aligned, []).append(addr)

    def tx_begin(self) -> None:
        if self._in_txn:
            raise TransactionError("nested transactions are not supported")
        self._in_txn = True
        col = self._col
        col.kinds.append(K_TX_BEGIN)
        col.a.append(0)
        col.b.append(0)

    def tx_commit(self) -> None:
        if not self._in_txn:
            raise TransactionError("tx_commit outside a transaction")
        self._in_txn = False
        col = self._col
        col.kinds.append(K_TX_COMMIT)
        col.a.append(0)
        col.b.append(0)
        for addr, size in self._pending_frees:
            self._local_free.setdefault(size, []).append(addr)
        self._pending_frees = []

    @contextmanager
    def transaction(self):
        self.tx_begin()
        yield self
        self.tx_commit()


def compile_trace(prepared, threads: int, txns_per_thread: int) -> CompiledTrace:
    """Record ``prepared``'s workload into a design-independent trace.

    Runs every thread generator to completion against the functional
    memory, one thread at a time (valid for partitioned workloads; see
    the module docstring).  ``prepared`` is a
    :class:`~repro.harness.runner.PreparedWorkload` whose workload has
    ``trace_compilable = True``.
    """
    workload = prepared.workload
    if not getattr(workload, "trace_compilable", False):
        raise WorkloadError(
            f"workload {workload.name!r} is not trace-compilable"
        )
    workload.reset_run_state()
    memory = _RecordingMemory(prepared.image_prefix)
    columns = []
    for tid in range(threads):
        column = CompiledThread()
        accessor = RecordingAccessor(memory, column)
        generator = workload.thread_body(accessor, tid, txns_per_thread)
        while True:
            try:
                next(generator)
            except StopIteration:
                break
            column.kinds.append(K_YIELD)
            column.a.append(0)
            column.b.append(0)
        columns.append(column)
    return CompiledTrace(
        workload_key=workload.identity_key(),
        threads=threads,
        txns_per_thread=txns_per_thread,
        image_prefix=prepared.image_prefix,
        image_size=prepared.image_size,
        heap_state=prepared.heap_state,
        block_sizes=list(memory.block_sizes),
        thread_cols=columns,
    )


# ----------------------------------------------------------------------
# Replay: via-API engine (exact op and event streams)
# ----------------------------------------------------------------------
def _api_thread(api, col: CompiledThread, bind: dict):
    """Generator replaying one thread through a real :class:`ThreadAPI`.

    Produces the identical op sequence to the original run: a
    recorded multi-word write replays as one ``api.write`` per piece,
    which is equivalent because ``split_words`` returns a piece unchanged
    (pieces never cross word boundaries and 8-alignment is preserved by
    relocation).
    """
    kinds = col.kinds
    av = col.a
    bv = col.b
    pa_col = col.piece_addr
    pl_col = col.piece_len
    ps_col = col.piece_sym
    pv_col = col.piece_val
    for i in range(len(kinds)):
        kind = kinds[i]
        if kind == K_READ:
            addr = av[i]
            if addr >= SYM_BASE:
                addr = bind[(addr - SYM_BASE) >> 24] + (addr & SYM_OFF_MASK)
            api.read(addr, bv[i])
        elif kind == K_WRITE:
            start = av[i]
            for j in range(start, start + bv[i]):
                piece_addr = pa_col[j]
                if piece_addr >= SYM_BASE:
                    piece_addr = bind[(piece_addr - SYM_BASE) >> 24] + (
                        piece_addr & SYM_OFF_MASK
                    )
                value = pv_col[j]
                if ps_col[j]:
                    value = bind[(value - SYM_BASE) >> 24] + (value & SYM_OFF_MASK)
                    data = value.to_bytes(8, "little")
                else:
                    data = value.to_bytes(pl_col[j], "little")
                api.write(piece_addr, data)
        elif kind == K_COMPUTE:
            api.compute(av[i])
        elif kind == K_TX_BEGIN:
            api.tx_begin()
        elif kind == K_TX_COMMIT:
            api.tx_commit()
        elif kind == K_ALLOC:
            result = api.alloc(av[i])
            token = bv[i]
            if token >= SYM_BASE:
                block_id = (token - SYM_BASE) >> 24
                if block_id not in bind:
                    bind[block_id] = result
        elif kind == K_FREE:
            addr = av[i]
            if addr >= SYM_BASE:
                addr = bind[(addr - SYM_BASE) >> 24] + (addr & SYM_OFF_MASK)
            api.free(addr, bv[i])
        else:  # K_YIELD
            yield


# ----------------------------------------------------------------------
# Replay: fast engine (scalar core calls, per-design dispatch)
# ----------------------------------------------------------------------
def _fast_thread(machine: Machine, pm, col: CompiledThread, tid: int, bind: dict):
    """Generator replaying one thread against the scalar core methods.

    Transcribes the :class:`~repro.txn.runtime.ThreadAPI` lowering branch
    for branch with the design predicates resolved once up front, and
    issues every op through :meth:`Machine.issue`, as ``ThreadAPI`` does.
    Skips only work with no stats/timing effect: golden-model staging,
    tracer guards (no tracer is attached on this path), the read-only
    ``physical_txid`` lookups, and slicing loaded bytes (software undo
    records carry zero old-values — :class:`LogRecord` encoding is
    content-independent, fixed ``entry_size`` bytes).
    """
    spec = machine.policy
    core = machine.cores[tid]
    hierarchy = machine.hierarchy
    swlog = machine.swlog
    heap = pm.heap
    logging_cfg = machine.config.logging
    line_size = machine.config.line_size
    line_mask = ~(line_size - 1)

    if spec.uses_hw_logging:
        mode = _MODE_HW
        begin_overhead = logging_cfg.hw_instrs_tx_begin
        commit_overhead = logging_cfg.hw_instrs_tx_commit
    elif spec.uses_sw_logging:
        mode = _MODE_SW_REDO if spec.defers_in_place_stores else _MODE_SW_UNDO
        begin_overhead = logging_cfg.softlog_instrs_tx_begin
        commit_overhead = logging_cfg.softlog_instrs_tx_commit
    else:
        mode = _MODE_PLAIN
        begin_overhead = 0
        commit_overhead = 0
    softlog_per_record = logging_cfg.softlog_instrs_per_record
    clwb_commit = spec.uses_clwb_at_commit
    sw_instant = mode in (_MODE_SW_UNDO, _MODE_SW_REDO) and (
        spec.commit is CommitProtocol.INSTANT
    )
    protects = spec.protects_log_wrap

    issue = machine.issue
    exec_compute = core.exec_compute
    exec_load = core.exec_load
    exec_store = core.exec_store
    exec_logstore = core.exec_logstore
    exec_clwb = core.exec_clwb
    exec_fence = core.exec_fence
    exec_tx_begin = core.exec_tx_begin
    exec_tx_commit = core.exec_tx_commit

    def emit_log(placed) -> None:
        displaced = placed.displaced_line
        if displaced is not None and protects and hierarchy.is_line_dirty(displaced):
            completion = machine.force_line_durable(displaced, core.time)
            if completion > core.time:
                core.time = completion
        issue(core, exec_logstore, placed.addr, placed.payload)

    kinds = col.kinds
    av = col.a
    bv = col.b
    read_line = col.read_line
    pa_col = col.piece_addr
    ps_col = col.piece_sym
    pv_col = col.piece_val
    piece_data = col.piece_data

    txid = 0
    in_txn = False
    write_lines: set[int] = set()
    overlay: dict[int, bytes] = {}
    local_free: dict[int, list[int]] = {}
    pending_frees: list[tuple[int, int]] = []

    for i in range(len(kinds)):
        kind = kinds[i]
        if kind == K_READ:
            line = read_line[i]
            if line >= 0:
                issue(core, exec_load, av[i], line)
                continue
            addr = av[i]
            if addr >= SYM_BASE:
                addr = bind[(addr - SYM_BASE) >> 24] + (addr & SYM_OFF_MASK)
            end = addr + bv[i]
            cursor = addr
            while cursor < end:
                line = cursor & line_mask
                issue(core, exec_load, cursor, line)
                cursor = line + line_size
        elif kind == K_WRITE:
            start = av[i]
            for j in range(start, start + bv[i]):
                piece_addr = pa_col[j]
                if piece_addr >= SYM_BASE:
                    piece_addr = bind[(piece_addr - SYM_BASE) >> 24] + (
                        piece_addr & SYM_OFF_MASK
                    )
                if ps_col[j]:
                    value = pv_col[j]
                    data = (
                        bind[(value - SYM_BASE) >> 24] + (value & SYM_OFF_MASK)
                    ).to_bytes(8, "little")
                else:
                    data = piece_data[j]
                if clwb_commit:
                    write_lines.add(piece_addr & line_mask)
                if mode == _MODE_HW:
                    issue(core, exec_store, piece_addr, data, True, txid, tid)
                elif mode == _MODE_SW_UNDO:
                    issue(core, exec_load, piece_addr, piece_addr & line_mask)
                    if softlog_per_record:
                        issue(core, exec_compute, softlog_per_record)
                    emit_log(
                        swlog.data(txid, tid, piece_addr, _ZEROS[len(data)], data)
                    )
                    issue(core, exec_store, piece_addr, data)
                elif mode == _MODE_SW_REDO:
                    if softlog_per_record:
                        issue(core, exec_compute, softlog_per_record)
                    emit_log(swlog.data(txid, tid, piece_addr, b"", data))
                    overlay[piece_addr] = data
                else:
                    issue(core, exec_store, piece_addr, data)
        elif kind == K_COMPUTE:
            issue(core, exec_compute, av[i])
        elif kind == K_TX_BEGIN:
            txid = pm.next_txid()
            in_txn = True
            write_lines.clear()
            overlay.clear()
            issue(core, exec_tx_begin, txid, tid, begin_overhead)
            if mode in (_MODE_SW_UNDO, _MODE_SW_REDO):
                emit_log(swlog.begin(txid, tid))
        elif kind == K_TX_COMMIT:
            if mode == _MODE_HW:
                issue(core, exec_tx_commit, txid, tid, commit_overhead)
                if clwb_commit:
                    for line in sorted(write_lines):
                        issue(core, exec_clwb, line)
            elif mode == _MODE_PLAIN:
                issue(core, exec_tx_commit, txid, tid, 0)
            elif sw_instant:
                emit_log(swlog.commit(txid, tid))
                issue(core, exec_tx_commit, txid, tid, commit_overhead)
            elif mode == _MODE_SW_UNDO:
                if clwb_commit:
                    for line in sorted(write_lines):
                        issue(core, exec_clwb, line)
                issue(core, exec_fence)
                emit_log(swlog.commit(txid, tid))
                issue(core, exec_tx_commit, txid, tid, commit_overhead)
                core.wcb.flush(core.time)
            else:  # software redo, fenced
                emit_log(swlog.commit(txid, tid))
                issue(core, exec_fence)
                issue(core, exec_tx_commit, txid, tid, commit_overhead)
                for addr, piece in overlay.items():
                    issue(core, exec_store, addr, piece)
                if clwb_commit:
                    for line in sorted(write_lines):
                        issue(core, exec_clwb, line)
            in_txn = False
            write_lines.clear()
            overlay.clear()
            for addr, size in pending_frees:
                local_free.setdefault(size, []).append(addr)
            pending_frees.clear()
        elif kind == K_ALLOC:
            size = (av[i] + 7) & ~7
            bucket = local_free.get(size)
            if bucket:
                result = bucket.pop()
            else:
                result = heap.alloc(size)
            token = bv[i]
            if token >= SYM_BASE:
                block_id = (token - SYM_BASE) >> 24
                if block_id not in bind:
                    bind[block_id] = result
        elif kind == K_FREE:
            addr = av[i]
            if addr >= SYM_BASE:
                addr = bind[(addr - SYM_BASE) >> 24] + (addr & SYM_OFF_MASK)
            size = (bv[i] + 7) & ~7
            if in_txn:
                pending_frees.append((addr, size))
            else:
                local_free.setdefault(size, []).append(addr)
        else:  # K_YIELD
            yield


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_compiled(trace: CompiledTrace, run, machine_hook=None, bind_out=None):
    """Replay ``trace`` under ``run`` (a :class:`RunConfig`); returns the
    same :class:`~repro.harness.runner.RunOutcome` as
    :func:`~repro.harness.runner.run_workload` with bit-identical stats.

    The run is assembled by :func:`~repro.harness.runner.build_run` from
    the trace's image and heap snapshot, and the per-thread replay
    generators advance through a :class:`~repro.sched.shard.ShardMachine`
    — the same builder and drive order as an interpreted run.

    Engine selection happens *after* ``machine_hook`` runs: attaching a
    tracer, log tap or fault monitor (psan does both via
    ``machine.tracer``) switches to the via-API engine, which preserves
    the exact event stream; otherwise the trace-free fast engine runs.

    ``bind_out`` (a dict, filled in place) receives the symbolic
    block-id -> real-address binding the replay establishes; the static
    verifier uses it to translate a counterexample's symbolic addresses
    into the addresses the dynamic checker diagnosed.
    """
    from ..harness.runner import RunOutcome, build_run
    from ..sched.shard import ShardMachine

    if run.threads != trace.threads:
        raise WorkloadError(
            f"trace was compiled for {trace.threads} threads, run wants {run.threads}"
        )
    if run.txns_per_thread != trace.txns_per_thread:
        raise WorkloadError(
            f"trace was compiled for {trace.txns_per_thread} txns/thread, "
            f"run wants {run.txns_per_thread}"
        )
    machine, pm, _ = build_run(None, run, trace, machine_hook)
    if trace.derived_line_size != machine.config.line_size:
        trace.derive(machine.config.line_size)

    bind: dict[int, int] = {} if bind_out is None else bind_out
    if (
        machine.tracer is not None
        or machine.log_tap is not None
        or machine.fault_monitor is not None
    ):
        generators = [
            _api_thread(pm.api(core_id=tid, tid=tid), trace.thread_cols[tid], bind)
            for tid in range(run.threads)
        ]
    else:
        generators = [
            _fast_thread(machine, pm, trace.thread_cols[tid], tid, bind)
            for tid in range(run.threads)
        ]
    shard = ShardMachine(machine, pm, None, run.threads)
    shard.start(generators)
    shard.drain()

    stats = machine.finalize()
    return RunOutcome(run.policy, run.threads, stats, machine, pm)
