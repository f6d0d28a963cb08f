"""Log record format (Figure 3(a) of the paper).

Each record holds the undo and redo information of a single word update
plus: a torn bit, a 16-bit transaction ID, an 8-bit thread ID and the
48-bit physical address of the data.  We add a 2-bit record kind (BEGIN /
DATA / COMMIT) and two presence flags so that undo-only and redo-only
logs (the ``hw-rlog`` / ``hw-ulog`` / software baselines) reuse the same
format, and a magic byte so that never-written (zeroed) NVRAM decodes as
"no record".

Binary layout (little-endian, within a 32- or 64-byte log entry):

====== ====== ==============================================
offset size   field
====== ====== ==============================================
0      1      flags: bit0 torn, bits1-2 kind, bit3 has_undo,
              bit4 has_redo
1      2      transaction ID (16 bits)
3      1      thread ID (8 bits)
4      1      magic (0xA5)
5      1      value size (bytes)
6      1      checksum (XOR over all meaningful bytes)
7      1      reserved
8      6      physical address (48 bits)
14     2      reserved
16     8      undo value (old data word)
24     8      redo value (new data word)
====== ====== ==============================================

One :class:`struct.Struct` (``_HEADER``) describes those 32 bytes and
serves both directions: :meth:`LogRecord.encode` packs it and
:meth:`LogRecord.classify` unpacks it.  The address is packed as an
8-byte field whose top two bytes (offsets 14-15) are zero because the
address fits in 48 bits; decoding masks them off, so a non-zero value
there only matters to the checksum.

The checksum lets recovery reject a *torn* entry — one whose write was
in flight at the crash and only partially reached NVRAM — as the end of
the valid window (the role the paper assigns to consistent torn-bit
values over complete records).
"""

from __future__ import annotations

import enum
import struct
from operator import getitem
from typing import NamedTuple

from ..errors import LogError

MAGIC = 0xA5
RESET_MAGIC = 0x3C
"""Magic byte of the *reset marker* written to slot 0 while the log is
being cleared after recovery.  Scanning treats a marker as "log empty",
which makes the multi-entry reset crash-safe: a crash mid-reset leaves
the marker in place, so a second recovery replays nothing instead of
replaying a partially zeroed (and therefore misleading) window."""
HEADER_BYTES = 32
"""Meaningful bytes of a record; the rest of the entry is padding."""

_HEADER = struct.Struct("<BHBBBBxQ8s8s")
"""flags, txid, tid, magic, value size, checksum, reserved, address,
undo, redo: the header table above (``8s`` zero-fills a short value)."""
_ADDR_MASK = (1 << 48) - 1
_TORN, _HAS_UNDO, _HAS_REDO = 0x1, 0x8, 0x10
_PADDING: dict = {}
"""Zero padding past the header, by entry size."""


def _checksum_tables() -> tuple:
    """Per input length, the roll's constant term and per-offset tables.

    The roll ``value = (value * 31 + byte) & 0xFF`` over ``n`` bytes is
    linear mod 256: it equals ``0x5C * 31**n + sum(byte_k * 31**(n-1-k))``
    mod 256, where ``k`` counts only the rolled bytes (offset 6, the
    checksum itself, is skipped and weighs 0).  An offset's table holds
    ``weight * byte`` mod 256 for each of the 256 byte values (offsets
    of equal weight share one), so a byte's term is one lookup.
    """
    products: dict = {}
    tables = []
    for length in range(HEADER_BYTES + 1):
        rolled = [offset for offset in range(length) if offset != 6]
        weights = [0] * length
        for rank, offset in enumerate(rolled):
            weights[offset] = pow(31, len(rolled) - 1 - rank, 256)
        for weight in weights:
            if weight not in products:
                products[weight] = tuple(weight * byte & 0xFF for byte in range(256))
        terms = tuple(products[weight] for weight in weights)
        tables.append(((0x5C * pow(31, len(rolled), 256)) & 0xFF, terms))
    return tuple(tables)


_CHECKSUM_TABLES = _checksum_tables()
_CHECKSUM_BYTES = tuple(bytes((value,)) for value in range(256))
_FLAGS_WEIGHT = _CHECKSUM_TABLES[HEADER_BYTES][1][0][1]
"""Weight of the flags byte in a whole header's checksum (its table's
term for byte value 1)."""


def _checksum(buf: bytes) -> int:
    """Position-sensitive rolling checksum over the meaningful bytes.

    A plain XOR would cancel on repeated-byte payloads (a zeroed tail of
    ``b"OO...O"`` keeps the XOR intact); the multiplicative roll makes
    every byte's position matter, so a torn tail is detected.  Computed
    as a sum of per-offset table terms from :func:`_checksum_tables`
    (bytes past the header weigh nothing: ``map`` stops at the shorter
    sequence).
    """
    length = len(buf)
    base, tables = _CHECKSUM_TABLES[length if length < HEADER_BYTES else HEADER_BYTES]
    return sum(map(getitem, tables, buf), base) & 0xFF


def stamp_torn(entry: bytes, torn: int) -> bytes:
    """``entry`` (an encoded record, so at least :data:`HEADER_BYTES`
    long) with its torn bit set to ``torn``.

    The checksum covers the flags byte.  It is linear mod 256, so
    flipping bit 0 of the flags moves it by exactly the flags byte's
    weight; the rest of the entry is not summed again.  An entry whose
    checksum was wrong stays wrong.  An entry that already carries
    ``torn`` is returned unchanged.
    """
    if (entry[0] & 1) == torn:
        return entry
    buf = bytearray(entry)
    buf[0] ^= 1
    buf[6] = (buf[6] + (_FLAGS_WEIGHT if torn else -_FLAGS_WEIGHT)) & 0xFF
    return bytes(buf)


class RecordKind(enum.IntEnum):
    """Record type stored in the flags byte."""

    INVALID = 0
    BEGIN = 1
    DATA = 2
    COMMIT = 3


_KINDS = tuple(RecordKind)


class DecodeStatus(enum.Enum):
    """Why a log entry did or did not decode to a record.

    Recovery uses the distinction to place torn entries (in-flight writes
    partially applied at the crash) at the window boundary while merely
    *corrupt* entries elsewhere are skipped and counted, instead of
    silently truncating the valid window at the first bad slot.
    """

    OK = "ok"
    EMPTY = "empty"          # magic byte absent: never written (or wiped)
    CHECKSUM = "checksum"    # magic present but checksum mismatch: torn/corrupt
    CORRUPT = "corrupt"      # checksum fine but fields impossible (bad size/kind)
    RESET_MARKER = "reset"   # the crash-safe log-reset marker


def reset_marker(entry_size: int) -> bytes:
    """The reset-marker entry payload (all zeros except the magic)."""
    if entry_size < HEADER_BYTES:
        raise LogError(f"entry size {entry_size} below {HEADER_BYTES}")
    buf = bytearray(entry_size)
    buf[4] = RESET_MAGIC
    buf[6] = _checksum(buf)
    return bytes(buf)


class _RecordFields(NamedTuple):
    """The fields of :class:`LogRecord`, in order."""

    kind: RecordKind
    txid: int
    tid: int
    addr: int = 0
    undo: bytes = b""
    redo: bytes = b""
    torn: int = 0


class LogRecord(_RecordFields):
    """One decoded log record.

    An immutable tuple of its seven fields, built once per persistent
    store and per decoded entry.  The constructor checks that every
    field fits the binary layout; :meth:`_replace` and unpickling go
    through it too.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: RecordKind,
        txid: int,
        tid: int,
        addr: int = 0,
        undo: bytes = b"",
        redo: bytes = b"",
        torn: int = 0,
    ) -> "LogRecord":
        if not 0 <= txid < (1 << 16):
            raise LogError(f"txid {txid} does not fit in 16 bits")
        if not 0 <= tid < (1 << 8):
            raise LogError(f"tid {tid} does not fit in 8 bits")
        if not 0 <= addr < (1 << 48):
            raise LogError(f"addr {addr:#x} does not fit in 48 bits")
        if len(undo) > 8 or len(redo) > 8:
            raise LogError("undo/redo values must be at most one word")
        if torn not in (0, 1):
            raise LogError("torn bit must be 0 or 1")
        return tuple.__new__(cls, (kind, txid, tid, addr, undo, redo, torn))

    @classmethod
    def _make(cls, iterable) -> "LogRecord":
        return cls(*iterable)

    @property
    def has_undo(self) -> bool:
        """True when the record carries an old (undo) value."""
        return len(self.undo) > 0

    @property
    def has_redo(self) -> bool:
        """True when the record carries a new (redo) value."""
        return len(self.redo) > 0

    @property
    def value_size(self) -> int:
        """Size in bytes of the logged word piece (0 for BEGIN/COMMIT)."""
        return max(len(self.undo), len(self.redo))

    # ------------------------------------------------------------------
    # Binary encoding
    # ------------------------------------------------------------------
    def encode(self, entry_size: int, torn: "int | None" = None) -> bytes:
        """Encode into an ``entry_size``-byte log entry.

        ``torn`` overrides the record's own torn bit; the circular log
        passes its pass parity here instead of building a stamped copy.
        """
        if entry_size < HEADER_BYTES:
            raise LogError(f"entry size {entry_size} below {HEADER_BYTES}")
        if torn is None:
            torn = self.torn
        elif torn not in (0, 1):
            raise LogError("torn bit must be 0 or 1")
        undo, redo = self.undo, self.redo
        header = _HEADER.pack(
            torn
            | (self.kind << 1)
            | (_HAS_UNDO if undo else 0)
            | (_HAS_REDO if redo else 0),
            self.txid,
            self.tid,
            MAGIC,
            max(len(undo), len(redo)),
            0,
            self.addr,
            undo,
            redo,
        )
        padding = _PADDING.get(entry_size)
        if padding is None:
            padding = _PADDING[entry_size] = bytes(entry_size - HEADER_BYTES)
        return b"".join(
            (header[:6], _CHECKSUM_BYTES[_checksum(header)], header[7:], padding)
        )

    @classmethod
    def decode(cls, raw: bytes, verify_checksum: bool = True) -> "LogRecord | None":
        """Decode a log entry; returns None for never-written or torn
        (checksum-failing) entries.  ``verify_checksum=False`` decodes on
        the magic byte alone (the paper's bare torn-bit scheme, with no
        per-record integrity check)."""
        record, _status = cls.classify(raw, verify_checksum)
        return record

    @classmethod
    def classify(
        cls, raw: bytes, verify_checksum: bool = True
    ) -> "tuple[LogRecord | None, DecodeStatus]":
        """Decode a log entry and report *why* when it does not decode.

        Returns ``(record, status)``; ``record`` is None unless ``status``
        is :attr:`DecodeStatus.OK`.
        """
        if len(raw) < HEADER_BYTES:
            raise LogError(f"log entry of {len(raw)} bytes is too short")
        flags, txid, tid, magic, size, checksum, addr, undo, redo = _HEADER.unpack_from(raw)
        if magic != MAGIC:
            if magic == RESET_MAGIC:
                return None, DecodeStatus.RESET_MARKER
            return None, DecodeStatus.EMPTY
        if verify_checksum and _checksum(raw) != checksum:
            return None, DecodeStatus.CHECKSUM
        kind = (flags >> 1) & 0x3
        if kind == RecordKind.INVALID:
            return None, DecodeStatus.CORRUPT
        if size > 8:
            return None, DecodeStatus.CORRUPT
        record = cls(
            _KINDS[kind],
            txid,
            tid,
            addr & _ADDR_MASK,
            undo[:size] if flags & _HAS_UNDO else b"",
            redo[:size] if flags & _HAS_REDO else b"",
            flags & _TORN,
        )
        return record, DecodeStatus.OK
