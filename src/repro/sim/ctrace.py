"""Compiled workload traces: compact column-oriented micro-op streams.

The trace-compilation engine (:mod:`repro.sim.replay`) decodes each
workload's abstract operation stream **once** — per (workload identity,
thread count, transactions per thread) — into the columns held here, and
then replays the columns under any number of
:class:`~repro.core.design.DesignSpec` cells.  Columns are stdlib
``array.array`` instances (``'B'``/``'q'``/``'Q'`` typecodes).

Symbolic addresses
------------------

A thread's allocation results depend on how the per-cell interleaving
orders the shared heap's bump cursor and free lists, so recorded traces
cannot bake real addresses of run-time allocations in.  The recorder
instead hands out *symbolic block tokens*::

    token = SYM_BASE + block_id * SYM_STRIDE + offset_in_block

with ``SYM_BASE = 2**52`` — far above any real address (the NVRAM device
is tens of MB) and below any workload data value that could be mistaken
for a pointer (string-element payloads repeat a byte, so their smallest
non-zero word value is ``0x0101_0101_0101_0101 > 2**56``).  At replay the
engine performs the thread's allocations live against the real heap and
binds each block id to the address actually returned; every recorded
address or pointer-valued word relocates through that binding.

Write values are stored per *word piece* (the units
:func:`repro.utils.split_words` produces — never more than 8 bytes) as
integers; a piece whose value is a symbolic token is flagged and
re-encoded with its relocated address at replay.
"""

from __future__ import annotations

import json
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Optional

TRACE_FORMAT = "ctrace-v1"
_MAGIC = b"CTRC0001"

# Op kinds (the ``kinds`` column).
K_COMPUTE = 0  # a = instruction count
K_READ = 1  # a = address, b = size
K_WRITE = 2  # a = first piece index, b = piece count
K_ALLOC = 3  # a = requested size, b = returned token (symbolic or real)
K_FREE = 4  # a = address token, b = requested size
K_TX_BEGIN = 5
K_TX_COMMIT = 6
K_YIELD = 7  # generator yield point (interleaving boundary)

SYM_BASE = 1 << 52
SYM_STRIDE = 1 << 24
SYM_OFF_MASK = SYM_STRIDE - 1


def sym_token(block_id: int) -> int:
    """The symbolic base address of allocation ``block_id``."""
    return SYM_BASE + block_id * SYM_STRIDE


@dataclass
class CompiledThread:
    """One thread's recorded op stream as parallel columns."""

    kinds: array = field(default_factory=lambda: array("B"))
    a: array = field(default_factory=lambda: array("q"))
    b: array = field(default_factory=lambda: array("q"))
    # Per-write-piece columns (a WRITE op spans a [a, a+b) slice of these).
    piece_addr: array = field(default_factory=lambda: array("q"))
    piece_len: array = field(default_factory=lambda: array("B"))
    piece_sym: array = field(default_factory=lambda: array("B"))
    piece_val: array = field(default_factory=lambda: array("Q"))
    #: Derived (decode-time, never serialised): for READ ops with a real
    #: address that stays inside one cache line, the line base address;
    #: -1 otherwise.  Lets the replay loop skip per-access line math.
    read_line: Optional[array] = None
    #: Derived: pre-encoded bytes per write piece (None for symbolic
    #: pointer pieces, which re-encode with their relocated address per
    #: replay).  Saves an ``int.to_bytes`` per piece per cell.
    piece_data: Optional[list] = None

    def op_count(self) -> int:
        """Number of recorded ops (yield markers included)."""
        return len(self.kinds)

    # ------------------------------------------------------------------
    # Analyzer views (static verifier / happens-before detector).  These
    # expose the columns as per-op tuples without copying; the consumers
    # walk each thread exactly once.
    # ------------------------------------------------------------------
    def iter_ops(self):
        """Yield ``(index, kind, a, b)`` for every recorded op."""
        kinds = self.kinds
        a = self.a
        b = self.b
        for i in range(len(kinds)):
            yield i, kinds[i], a[i], b[i]

    def write_pieces(self, first: int, count: int):
        """Yield ``(piece_index, addr, length, symbolic)`` for a WRITE op.

        ``first``/``count`` are the op's ``a``/``b`` column values.
        Addresses may be symbolic block tokens (see the module
        docstring); analyzers treat symbolic and real addresses
        uniformly, since distinct blocks never alias.
        """
        piece_addr = self.piece_addr
        piece_len = self.piece_len
        piece_sym = self.piece_sym
        for j in range(first, first + count):
            yield j, piece_addr[j], piece_len[j], bool(piece_sym[j])

    # ------------------------------------------------------------------
    def derive_read_lines(self, line_size: int) -> None:
        """Build :attr:`read_line`."""
        mask = line_size - 1
        out = array("q", bytes(8 * len(self.kinds)))
        kinds = self.kinds
        a = self.a
        b = self.b
        for i in range(len(kinds)):
            if kinds[i] == K_READ:
                addr = a[i]
                line = addr & ~mask
                if 0 <= addr < SYM_BASE and (addr + b[i] - 1) & ~mask == line:
                    out[i] = line
                    continue
            out[i] = -1
        self.read_line = out

    def derive_piece_data(self) -> None:
        """Pre-encode non-symbolic piece values as bytes."""
        piece_val = self.piece_val
        piece_len = self.piece_len
        piece_sym = self.piece_sym
        self.piece_data = [
            None if piece_sym[j] else piece_val[j].to_bytes(piece_len[j], "little")
            for j in range(len(piece_val))
        ]

    # ------------------------------------------------------------------
    _COLUMNS = ("kinds", "a", "b", "piece_addr", "piece_len", "piece_sym", "piece_val")

    def column_blobs(self) -> list:
        """Raw column bytes, in :data:`_COLUMNS` order."""
        return [getattr(self, name).tobytes() for name in self._COLUMNS]

    @classmethod
    def from_blobs(cls, blobs: list) -> "CompiledThread":
        """Rebuild a thread from :meth:`column_blobs` output."""
        thread = cls()
        for name, blob in zip(cls._COLUMNS, blobs):
            column = getattr(thread, name)
            column.frombytes(blob)
        return thread


@dataclass
class CompiledTrace:
    """A fully decoded workload: columns plus the prepared initial state.

    Self-contained for replay — the original workload object is only
    needed to *compile* (its ``thread_body`` is recorded once); replaying
    needs the initial NVRAM prefix, the heap snapshot and the columns.
    """

    workload_key: tuple
    threads: int
    txns_per_thread: int
    image_prefix: bytes
    image_size: int
    heap_state: tuple
    block_sizes: list
    thread_cols: list
    #: Line size the derived columns were computed for (None = underived).
    derived_line_size: Optional[int] = None

    def op_count(self) -> int:
        """Total recorded ops across threads."""
        return sum(col.op_count() for col in self.thread_cols)

    def piece_count(self) -> int:
        """Total recorded write pieces across threads."""
        return sum(len(col.piece_addr) for col in self.thread_cols)

    def derive(self, line_size: int) -> None:
        """Compute every thread's derived columns for ``line_size``."""
        for col in self.thread_cols:
            col.derive_read_lines(line_size)
            if col.piece_data is None:
                col.derive_piece_data()
        self.derived_line_size = line_size

    # ------------------------------------------------------------------
    # Pickling (worker shipping) reuses the compact binary codec; the
    # derived columns are dropped and recomputed in the receiving process.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"blob": self.to_bytes()}

    def __setstate__(self, state: dict) -> None:
        restored = CompiledTrace.from_bytes(state["blob"])
        self.__dict__.update(restored.__dict__)

    # ------------------------------------------------------------------
    # Binary codec (content-addressed trace cache files)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise: JSON header + zlib image prefix + zlib column blobs."""
        image_blob = zlib.compress(self.image_prefix, 1)
        column_blobs = []
        column_lens = []
        for col in self.thread_cols:
            blobs = col.column_blobs()
            column_lens.append([len(blob) for blob in blobs])
            column_blobs.extend(blobs)
        columns_blob = zlib.compress(b"".join(column_blobs), 1)
        cursor, free = self.heap_state
        header = {
            "format": TRACE_FORMAT,
            "byteorder": sys.byteorder,
            "workload_key": _key_to_json(self.workload_key),
            "threads": self.threads,
            "txns_per_thread": self.txns_per_thread,
            "image_size": self.image_size,
            "image_blob_len": len(image_blob),
            "heap_cursor": cursor,
            "heap_free": {str(size): list(addrs) for size, addrs in free.items()},
            "block_sizes": list(self.block_sizes),
            "column_lens": column_lens,
            "columns_blob_len": len(columns_blob),
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = b"".join(
            [_MAGIC, len(head).to_bytes(4, "little"), head, image_blob, columns_blob]
        )
        # CRC32 trailer over everything before it: on-disk cache entries
        # can rot (torn writes, bit flips), and a flip inside the zlib
        # streams would otherwise either raise ``zlib.error`` or —
        # worse — decode to silently wrong replay columns.
        return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "CompiledTrace":
        """Decode :meth:`to_bytes` output; raises ``ValueError`` on any
        mismatch (magic, checksum, format version, byte order)."""
        if payload[:8] != _MAGIC:
            raise ValueError("not a compiled-trace blob")
        if len(payload) < 16:
            raise ValueError("truncated compiled-trace blob")
        # Verify the CRC32 trailer before trusting a single byte of the
        # header or the compressed streams.
        stored = int.from_bytes(payload[-4:], "little")
        computed = zlib.crc32(payload[:-4]) & 0xFFFFFFFF
        if stored != computed:
            raise ValueError(
                f"compiled-trace checksum mismatch "
                f"(stored {stored:#010x}, computed {computed:#010x})"
            )
        payload = payload[:-4]
        head_len = int.from_bytes(payload[8:12], "little")
        header = json.loads(payload[12:12 + head_len].decode())
        if header.get("format") != TRACE_FORMAT:
            raise ValueError(f"unsupported trace format {header.get('format')!r}")
        if header.get("byteorder") != sys.byteorder:
            raise ValueError("trace written with a different byte order")
        cursor = 12 + head_len
        image_blob = payload[cursor:cursor + header["image_blob_len"]]
        cursor += header["image_blob_len"]
        columns_raw = zlib.decompress(
            payload[cursor:cursor + header["columns_blob_len"]]
        )
        threads = []
        offset = 0
        for lens in header["column_lens"]:
            blobs = []
            for blob_len in lens:
                blobs.append(columns_raw[offset:offset + blob_len])
                offset += blob_len
            threads.append(CompiledThread.from_blobs(blobs))
        return cls(
            workload_key=_key_from_json(header["workload_key"]),
            threads=header["threads"],
            txns_per_thread=header["txns_per_thread"],
            image_prefix=zlib.decompress(image_blob),
            image_size=header["image_size"],
            heap_state=(
                header["heap_cursor"],
                {int(size): list(addrs) for size, addrs in header["heap_free"].items()},
            ),
            block_sizes=list(header["block_sizes"]),
            thread_cols=threads,
        )


def _key_to_json(key):
    """Identity keys are nested tuples of strings; JSON stores lists."""
    if isinstance(key, tuple):
        return [_key_to_json(item) for item in key]
    return key


def _key_from_json(key):
    if isinstance(key, list):
        return tuple(_key_from_json(item) for item in key)
    return key
