"""Workload protocol and accessors.

A workload builds its initial persistent state in :meth:`Workload.setup`
(untimed, via :class:`SetupAccessor`) and then runs timed transactions
through per-thread generators (:meth:`Workload.thread_body`), which the
harness interleaves across cores in core-clock order.

Structure code is written once against the *accessor* protocol —
``read_word(addr)``/``write_word(addr, value)`` for one little-endian
8-byte word, ``read(addr, size)``/``write(addr, data)`` for byte
strings, ``compute(n)``, ``alloc``/``free`` and ``transaction()`` — and
works in the untimed set-up phase (:class:`SetupAccessor`, through a word
view of the device), in the timed run phase (a
:class:`~repro.txn.runtime.ThreadAPI`) and while a trace is recorded
(:class:`~repro.sim.replay.RecordingAccessor`).

Four microbenchmarks pre-populate in bulk instead of calling their
structure code once per key: hash and ssca2 in closed form, rbtree and
btree by replaying their inserts as plain indexing on the word view
(:meth:`SetupAccessor.claim_words`).  They leave the image and heap the
per-key inserts would; ``tests/properties/test_bulk_setup.py`` checks
each against a per-key reference, and the prepared-image golden pins
the default sizes.  sps and the WHISPER kernels set up through the
structure code.
"""

from __future__ import annotations

import abc
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import AddressError, WorkloadError
from ..txn.runtime import PersistentMemory, ThreadAPI

#: Granule of the NVRAM dirty extent a set-up word write claims when it
#: first lands past the extent (see :class:`SetupAccessor`).
CLAIM_BYTES = 4096


class SetupAccessor:
    """Untimed accessor used while building initial workload state.

    Set-up issues millions of functional accesses for paper-scale
    footprints, almost all of them single 8-byte words (node fields,
    pointers, counters), so the accessor works on the NVRAM device
    directly (bound at construction) instead of through the
    :class:`PersistentMemory` facade:

    * ``read_word``/``write_word`` index a ``memoryview(image).cast("Q")``
      word view of the little-endian image: an aligned word costs one
      index, with no slice, no ``int.from_bytes``/``to_bytes`` and no
      :meth:`~repro.sim.nvram.NVRAM.poke` frame.  Unaligned and
      out-of-range addresses take the byte path, which sees the same
      bytes and raises the same :class:`AddressError`.
    * A word write goes straight into the view only below the device's
      low dirty extent.  The first write past it takes the byte path and
      claims the rest of its :data:`CLAIM_BYTES` granule
      (:meth:`~repro.sim.nvram.NVRAM.claim_written`), so every byte
      set-up writes stays inside the extent that ``recycle`` re-zeroes
      and :func:`~repro.harness.runner.prepare_workload` captures.
    * ``read`` returns a ``bytes`` slice of the image, and ``write`` is
      ``poke``, which carries byte strings and whole-slice fills.
    * ``claim_words(end)`` claims ``[0, end)`` and returns the word view
      itself, for the bulk builders that write a whole structure in
      place (word ``i`` holds image bytes ``[8 * i, 8 * i + 8)``).  A
      builder claims each range before it writes there.
    """

    def __init__(self, pm: PersistentMemory) -> None:
        if sys.byteorder != "little":
            raise WorkloadError(
                "set-up needs a little-endian host: the NVRAM image is "
                "little-endian and its word view uses native byte order"
            )
        self._pm = pm
        nvram = pm.machine.nvram
        image = nvram.image
        size = len(image)
        words = memoryview(image).cast("Q")
        poke = nvram.poke
        claim = nvram.claim_written
        # An aligned word at ``addr < x - 7`` ends at or before ``x``: the
        # device end for reads, the low dirty extent for writes.
        read_limit = size - 7
        write_limit = nvram.written_extent()[0] - 7

        def read(addr: int, length: int) -> bytes:
            end = addr + length
            if addr < 0 or length < 0 or end > size:
                raise AddressError(
                    f"setup read out of range: addr={addr:#x} size={length} "
                    f"limit={size:#x}"
                )
            return image[addr:end]

        def read_word(addr: int) -> int:
            if addr & 7 or addr < 0 or addr >= read_limit:
                return int.from_bytes(read(addr, 8), "little")
            return words[addr >> 3]

        def write_word(addr: int, value: int) -> None:
            nonlocal write_limit
            if addr & 7 or addr < 0 or addr >= write_limit:
                poke(addr, value.to_bytes(8, "little"))
                write_limit = claim((addr | (CLAIM_BYTES - 1)) + 1) - 7
                return
            words[addr >> 3] = value

        def claim_words(end: int) -> memoryview:
            nonlocal write_limit
            write_limit = claim(end) - 7
            return words

        self.read = read
        self.write = poke
        self.read_word = read_word
        self.write_word = write_word
        self.claim_words = claim_words

    def compute(self, count: int) -> None:
        """No-op during setup."""

    def alloc(self, size: int) -> int:
        """Allocate from the shared heap (setup has no txn constraints)."""
        return self._pm.heap.alloc(size)

    def free(self, addr: int, size: int) -> None:
        """Return a block to the shared heap immediately."""
        self._pm.heap.free(addr, size)

    @contextmanager
    def transaction(self):
        """No-op transaction context during setup."""
        yield self


@dataclass
class WorkloadResult:
    """What a finished run exposes to tests (beyond machine stats)."""

    transactions: int
    operations: dict


class Workload(abc.ABC):
    """One benchmark: persistent state plus a per-thread transaction mix."""

    #: paper name (e.g. ``"hash"``); subclasses override.
    name: str = "abstract"
    #: memory footprint reported in Table III (informational).
    paper_footprint: str = "-"
    #: one-line description for Table III.
    description: str = ""
    #: True when the workload's transactions are client-request shaped
    #: and it implements :meth:`serve_request`, so the service layer
    #: (:mod:`repro.sched`) can drive it from an open-loop traffic
    #: generator instead of per-thread closed-loop generators.
    request_shaped: bool = False

    def __init__(self, seed: int = 42, value_kind: str = "int") -> None:
        if value_kind not in ("int", "string"):
            raise ValueError(f"value_kind must be 'int' or 'string', not {value_kind!r}")
        self.seed = seed
        self.value_kind = value_kind

    @property
    def value_size(self) -> int:
        """Element payload size: one word for ints, multi-line for strings."""
        return 8 if self.value_kind == "int" else 96

    @abc.abstractmethod
    def setup(self, pm: PersistentMemory) -> None:
        """Allocate and initialise persistent state (untimed)."""

    def attach(self, pm: PersistentMemory) -> None:
        """Re-bind to a fresh machine whose NVRAM image was restored from
        a prepared snapshot (see :func:`repro.harness.runner.prepare_workload`)."""
        self._heap = pm.heap

    def reset_run_state(self) -> None:
        """Reset volatile per-run state to the post-setup baseline.

        A prepared workload instance is run many times — once per sweep
        cell, plus once by the trace compiler.  Anything host-side that
        thread bodies mutate (append cursors, free-slot rotors) must be
        re-derivable from ``(seed, tid)`` alone, or the second run sees
        the first run's leftovers and the :meth:`thread_body` contract
        (identical stream per run) silently breaks.  Subclasses with such
        state override this; the harness calls it before every run and
        before trace recording.

        The contract extends to **checkpointable** run state for the
        steppable-shard scheduler: :meth:`run_state` captures the same
        volatile state as an immutable value and :meth:`restore_run_state`
        reinstates it, so N shard machines sharing one prepared workload
        instance can interleave stepping without leaking cursors across
        shards (each shard swaps its own checkpoint in around every step
        window).  The triple must agree: ``reset_run_state()`` followed by
        ``run_state()`` is the baseline checkpoint, and
        ``restore_run_state(run_state())`` is an identity.
        """

    def run_state(self) -> tuple:
        """Checkpoint of the volatile per-run state (see
        :meth:`reset_run_state`).  Must return an immutable, equality-
        comparable value; subclasses with volatile state override this
        together with :meth:`restore_run_state`.  The default is the
        empty checkpoint for stateless workloads."""
        return ()

    def restore_run_state(self, state: tuple) -> None:
        """Reinstate a checkpoint captured by :meth:`run_state`."""
        if state != ():
            raise WorkloadError(
                f"{type(self).__name__} has no volatile run state to "
                f"restore, got checkpoint {state!r}"
            )

    def serve_request(self, api: ThreadAPI, tid: int, request) -> None:
        """Execute one client request's operations inside the caller's
        transaction (request-shaped workloads only).

        ``request`` carries uniform draws (``key_u``, ``op_u``) that the
        workload maps through its own key-popularity and operation-mix
        distributions, so the traffic generator stays
        workload-agnostic.  The caller (a :class:`repro.sched.shard.
        ShardMachine` serve thread) owns the surrounding transaction and
        request batching."""
        raise WorkloadError(
            f"{type(self).__name__} is not request-shaped; it cannot be "
            "driven by the open-loop service layer"
        )

    def identity_key(self) -> tuple:
        """Stable identity of this workload's configuration.

        Two workload instances with equal keys build identical persistent
        state and issue identical transaction streams, so prepared
        snapshots and cached sweep results may be shared between them.
        The key covers the concrete class plus every public (non-derived)
        attribute — derived run state uses underscored names by
        convention.  Used by the prepared-state check in
        :func:`repro.harness.runner.build_run` (which must accept an
        equivalent instance) and by the sweep result and trace caches.
        """
        public = tuple(
            (name, repr(value))
            for name, value in sorted(vars(self).items())
            if not name.startswith("_")
        )
        return (type(self).__module__, type(self).__qualname__, public)

    @abc.abstractmethod
    def thread_body(
        self, api: ThreadAPI, tid: int, num_txns: int
    ) -> Iterator[None]:
        """Generator running ``num_txns`` transactions, yielding after each.

        The contract every workload keeps: the body is partitioned and
        deterministic per ``(seed, tid)`` — it touches only its own
        partition (``tid % MAX_PARTITIONS``), through ``api`` alone,
        never reads another thread's writes or uninitialised memory, and
        draws its randomness from ``(seed, tid)``.  Each thread's stream
        is then independent of the interleaving, so the trace compiler
        (:mod:`repro.sim.replay`) records each thread once and replays
        the stream under every design.  The happens-before race
        detector (:mod:`repro.sanitizer.hb`) and the replay-equivalence
        tests check it.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def make_value(self, rng, tag: int) -> bytes:
        """Build an element payload (int word or multi-line string)."""
        if self.value_kind == "int":
            return (tag & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        body = (tag & 0xFF).to_bytes(1, "little") * self.value_size
        return body
