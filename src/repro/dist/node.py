"""A replica node: its own NVRAM and log ring, fed by shipped records.

A replica is a pure standby for the log stream: its persistent heap
starts as the primary's post-setup checkpoint image and is *never*
written during normal operation — only the log ring grows.  Recovery is
therefore a full redo of every committed transaction in the ring (plus
the usual undo of an uncommitted tail), run by the ordinary
:class:`~repro.core.recovery.RecoveryManager` against the replica's own
NVRAM.  That is the point of the design: the single-node recovery path,
already hardened by the fault campaign, is the *only* recovery path —
replication just changes where the ring lives.

The ring is sized to hold a run's record stream without wrapping (slot
== ``seq - base_seq``), so a replica can reconstruct committed state
that the primary's small circular log has long overwritten — the primary
relies on wrap-forced data write-backs that the replica's heap never
received.  For open-ended serve traffic the ring *compacts* instead of
growing without bound: :meth:`ReplicaNode.compact_below` folds the
record prefix below the cluster-committed frontier into the mirrored
heap (applying redo content in sequence order, exactly recovery's redo
pass) and slides the surviving suffix down, advancing ``base_seq``.
Compacted transactions are thereafter recovered from the checkpointed
heap rather than replayed from the log — the classic
checkpoint-plus-log contraction.

Every record carries both its undo and its redo value, so a replica
that was shipped a record already holds what the fold needs.  The node
keeps, per occupied slot, the shipped record and the entry bytes it
wrote there; compaction checks that the slot's NVRAM bytes still equal
that entry and folds the kept record's redo value, without decoding the
slot again.  The byte check refuses any damaged or overwritten slot,
even one that would still decode.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.logrecord import LogRecord, stamp_torn
from ..core.nvlog import CircularLog
from ..core.recovery import RecoveryManager, RecoveryReport
from ..errors import ConfigError
from ..sim.nvram import NVRAM, ImageSnapshot


def _ring_entries(count: int) -> int:
    entries = 64
    while entries < count:
        entries *= 2
    return entries


class ReplicaNode:
    """One standby node holding a full copy of the shipped log."""

    def __init__(
        self,
        node_id: int,
        system,
        image_prefix: bytes,
        capacity_records: int,
        *,
        line_size: int = 64,
    ) -> None:
        self.node_id = node_id
        entry_size = system.logging.log_entry_size
        entries = _ring_entries(max(1, capacity_records))
        primary_size = system.nvram.size_bytes
        base = primary_size  # ring lives above the mirrored primary space
        size = base + entries * entry_size
        # The DIMM geometry requires a whole number of rows per bank.
        row_stride = system.nvram.row_bytes * system.nvram.num_banks
        size = ((size + row_stride - 1) // row_stride) * row_stride
        if capacity_records > entries:
            raise ConfigError(
                f"replica ring too small: {capacity_records} records > "
                f"{entries} entries"
            )
        self.primary_size = primary_size
        self.line_size = line_size
        self.nvram = NVRAM(replace(system.nvram, size_bytes=size))
        self.nvram.load_image_prefix(image_prefix)
        # Ring geometry (entry addresses) only: shipped entries are
        # written straight into their slots, never placed.
        self.ring = CircularLog(base, entries, entry_size, line_size=line_size)
        self.appended = 0  # slots occupied, torn tail included
        self.base_seq = 0  # first sequence number still held in the ring
        self.torn_tail = False
        # Per occupied slot, the shipped record and the whole entry
        # written for it (slot == index).
        self._kept: list = []

    # ------------------------------------------------------------------
    def append(self, rec) -> int:
        """Durably append one shipped record; returns its slot.

        Slots map to sequence numbers as ``slot == seq - base_seq``
        (``base_seq`` advances when :meth:`compact_below` folds a prefix
        into the heap).  Deduplication is by sequence number: a record
        at or below the expected frontier (a re-shipped or duplicated
        batch, or one already compacted away) is ignored, so replayed
        batches cannot resurrect state — the slot already holds the
        identical record, and an undone/aborted tail can only be
        *truncated*, never re-extended, by recovery.
        """
        if self.torn_tail:
            raise ConfigError(
                f"replica {self.node_id}: append after a torn tail"
            )
        expected = self.base_seq + self.appended
        if rec.seq < expected:
            return rec.seq - self.base_seq  # duplicate delivery: already durable
        if rec.seq != expected:
            raise ConfigError(
                f"replica {self.node_id}: out-of-order append "
                f"(seq {rec.seq}, expected {expected})"
            )
        return self._write_next(rec, len(rec.payload))

    def append_torn(self, rec, keep_bytes: int) -> int:
        """A torn landing: only ``keep_bytes`` of the entry became durable."""
        if rec.seq != self.base_seq + self.appended:
            raise ConfigError(
                f"replica {self.node_id}: out-of-order torn append "
                f"(seq {rec.seq}, expected {self.base_seq + self.appended})"
            )
        slot = self._write_next(rec, max(0, keep_bytes))
        self.torn_tail = True
        return slot

    def _write_next(self, rec, keep: int) -> int:
        """Write the first ``keep`` bytes of ``rec``'s entry at the next slot.

        The bytes are the primary's own encoding.  The replica ring never
        wraps, so every entry in it is a first-pass entry with torn bit
        1; a record the primary wrote on an even pass of its ring (torn
        bit 0) is re-stamped.
        """
        if self.appended >= self.ring.num_entries:
            raise ConfigError(
                f"replica {self.node_id}: ring full at seq {rec.seq}; "
                "compact below the cluster-committed frontier first"
            )
        slot = self.appended
        entry = stamp_torn(rec.payload, 1)
        self.nvram.poke(self.ring.entry_addr(slot), entry[:keep])
        self._kept.append((rec, entry))
        self.appended += 1
        return slot

    def corrupt_slot(self, slot: int, offset: int = 8, flip: int = 0xFF) -> None:
        """Post-hoc storage damage: flip bits inside an occupied entry.

        The entry's checksum no longer verifies, so a restarting node's
        :meth:`scan_frontier` stops below it — the damaged-replica case
        the convergence checker must degrade around.
        """
        addr = self.ring.entry_addr(slot)
        raw = bytearray(self.nvram.peek(addr, self.ring.entry_size))
        raw[offset] ^= flip
        self.nvram.poke(addr, bytes(raw))

    # ------------------------------------------------------------------
    def scan_frontier(self) -> int:
        """First sequence number past the contiguous decodable prefix.

        Read back from NVRAM (not from volatile bookkeeping), so damage
        injected after the append — a torn landing, post-hoc corruption —
        is discovered exactly the way a recovering node would discover
        it.  Sequence numbers below ``base_seq`` were folded into the
        heap by compaction and count as durable by construction.
        """
        entry_size = self.ring.entry_size
        for slot in range(self.ring.num_entries):
            addr = self.ring.entry_addr(slot)
            payload = self.nvram.peek(addr, entry_size)
            record, status = LogRecord.classify(payload)
            if status.name != "OK" or record is None:
                return self.base_seq + slot
            if (record.torn & 1) != 1:
                return self.base_seq + slot  # wrong parity: not first-pass
        return self.base_seq + self.ring.num_entries

    def truncate_to(self, frontier: int) -> None:
        """Zero every slot at or past sequence ``frontier`` (reconciliation).

        Survivors agree on a common committed frontier before recovering
        independently; slots past it (records some other survivor never
        received, or a torn tail) are erased so every node scans the
        identical window.  ``frontier`` is an absolute sequence number;
        anything below ``base_seq`` is already folded into the heap and
        cannot be rewound.
        """
        rel = max(0, frontier - self.base_seq)
        if rel < self.appended:
            cleared = (self.appended - rel) * self.ring.entry_size
            self.nvram.poke(self.ring.entry_addr(rel), bytes(cleared))
            del self._kept[rel:]
            # A record re-shipped after the truncation lands back in its
            # own slot (slot == seq - base_seq).
            self.appended = rel
        self.torn_tail = False

    def compact_below(self, frontier: int) -> int:
        """Fold records below sequence ``frontier`` into the heap.

        The dropped prefix's redo content is applied to the mirrored
        primary space in sequence order — exactly the order recovery's
        redo pass would have replayed it — after which those
        transactions live in the checkpointed heap and the log entries
        are free.  The surviving suffix slides down so ``slot ==
        seq - base_seq`` keeps holding, and ``base_seq`` advances by the
        number of records dropped (returned).

        The fold reads the records kept at append, not the ring.  Every
        dropped slot's NVRAM bytes must still equal the entry written
        for it; otherwise nothing is folded and the first damaged slot
        is named in the error.

        The caller is responsible for ``frontier`` not exceeding the
        cluster-committed frontier: compacting an uncommitted record
        would bake a possibly-aborting transaction into the checkpoint
        with no undo information left to peel it back off.
        """
        drop = min(frontier - self.base_seq, self.appended)
        if drop <= 0:
            return 0
        if self.torn_tail and drop >= self.appended:
            raise ConfigError(
                f"replica {self.node_id}: cannot compact through a torn tail"
            )
        entry_size = self.ring.entry_size
        start = self.ring.entry_addr(0)
        kept = self._kept[:drop]
        written = b"".join([entry for _rec, entry in kept])
        if self.nvram.peek(start, drop * entry_size) != written:
            slot = next(
                slot
                for slot, (_rec, entry) in enumerate(kept)
                if self.nvram.peek(start + slot * entry_size, entry_size) != entry
            )
            raise ConfigError(
                f"replica {self.node_id}: cannot compact damaged "
                f"slot {slot} (seq {self.base_seq + slot})"
            )
        for slot, (rec, _entry) in enumerate(kept):
            if rec.kind == "DATA":
                if not rec.redo:
                    raise ConfigError(
                        f"replica {self.node_id}: cannot compact an "
                        f"undo-only record (seq {self.base_seq + slot}): "
                        "no redo content to fold into the checkpoint"
                    )
                self.nvram.poke(rec.addr, rec.redo)
            # BEGIN/COMMIT records are pure markers: nothing to fold.
        # Slide the surviving suffix down to slot 0 (slots are contiguous
        # in NVRAM), then clear the slots it vacated.
        keep = self.appended - drop
        if keep:
            suffix = self.nvram.peek(self.ring.entry_addr(drop), keep * entry_size)
            self.nvram.poke(start, suffix)
        self.nvram.poke(self.ring.entry_addr(keep), bytes(drop * entry_size))
        del self._kept[:drop]
        self.base_seq += drop
        self.appended = keep
        return drop

    # ------------------------------------------------------------------
    def recover(
        self,
        *,
        reset_log: bool = True,
        crash_injector=None,
        verify_checksums: bool = True,
    ) -> RecoveryReport:
        """Run the standard single-node recovery over the replica ring."""
        manager = RecoveryManager(
            self.nvram, self._cold_ring(), verify_checksums=verify_checksums
        )
        return manager.recover(reset_log=reset_log, crash_injector=crash_injector)

    def _cold_ring(self) -> CircularLog:
        # A freshly powered-on view of the ring: geometry only, no
        # volatile head/tail state survives the crash.
        return CircularLog(
            self.ring.base,
            self.ring.num_entries,
            self.ring.entry_size,
            line_size=self.line_size,
        )

    def snapshot(self) -> ImageSnapshot:
        """The full NVRAM image (bit-compare material)."""
        return self.nvram.snapshot()

    def heap_snapshot(self) -> ImageSnapshot:
        """The mirrored primary address space (heap + metadata)."""
        return self.nvram.snapshot(self.primary_size)

    def release(self) -> None:
        """Return the NVRAM buffer to the pool."""
        self.nvram.recycle()
