"""Unit tests for repro.core.logrecord."""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logrecord import (
    HEADER_BYTES,
    MAGIC,
    RESET_MAGIC,
    DecodeStatus,
    LogRecord,
    RecordKind,
    _checksum,
    stamp_torn,
)
from repro.core.nvlog import CircularLog
from repro.errors import LogError


def data_record(**overrides) -> LogRecord:
    fields = dict(
        kind=RecordKind.DATA,
        txid=42,
        tid=3,
        addr=0x123456789AB,
        undo=b"OLDVALUE",
        redo=b"NEWVALUE",
        torn=1,
    )
    fields.update(overrides)
    return LogRecord(**fields)


class TestValidation:
    def test_txid_16_bits(self):
        with pytest.raises(LogError):
            data_record(txid=1 << 16)

    def test_tid_8_bits(self):
        with pytest.raises(LogError):
            data_record(tid=256)

    def test_addr_48_bits(self):
        with pytest.raises(LogError):
            data_record(addr=1 << 48)

    def test_values_at_most_one_word(self):
        with pytest.raises(LogError):
            data_record(undo=bytes(9))

    def test_torn_is_a_bit(self):
        with pytest.raises(LogError):
            data_record(torn=2)


class TestProperties:
    def test_has_undo_redo(self):
        record = data_record()
        assert record.has_undo and record.has_redo

    def test_undo_only(self):
        record = data_record(redo=b"")
        assert record.has_undo and not record.has_redo

    def test_value_size(self):
        assert data_record().value_size == 8
        assert data_record(undo=b"abc", redo=b"xyz").value_size == 3
        assert LogRecord(RecordKind.COMMIT, 1, 0).value_size == 0


class TestEncoding:
    def test_roundtrip_full(self):
        record = data_record()
        decoded = LogRecord.decode(record.encode(64))
        assert decoded == record

    def test_roundtrip_32_byte_entry(self):
        record = data_record()
        assert LogRecord.decode(record.encode(32)) == record

    def test_roundtrip_partial_word(self):
        record = data_record(undo=b"abc", redo=b"def")
        assert LogRecord.decode(record.encode(64)) == record

    def test_roundtrip_begin_commit(self):
        for kind in (RecordKind.BEGIN, RecordKind.COMMIT):
            record = LogRecord(kind, 7, 2, torn=1)
            assert LogRecord.decode(record.encode(64)) == record

    def test_roundtrip_single_side(self):
        undo_only = data_record(redo=b"")
        redo_only = data_record(undo=b"")
        assert LogRecord.decode(undo_only.encode(64)) == undo_only
        assert LogRecord.decode(redo_only.encode(64)) == redo_only

    def test_zeroed_entry_decodes_to_none(self):
        assert LogRecord.decode(bytes(64)) is None

    def test_entry_too_small_rejected(self):
        with pytest.raises(LogError):
            data_record().encode(HEADER_BYTES - 1)

    def test_short_buffer_rejected(self):
        with pytest.raises(LogError):
            LogRecord.decode(bytes(16))

    def test_encode_pads_to_entry_size(self):
        assert len(data_record().encode(64)) == 64

    def test_torn_bit_survives(self):
        for torn in (0, 1):
            decoded = LogRecord.decode(data_record(torn=torn).encode(64))
            assert decoded.torn == torn


def rolling_checksum(buf: bytes) -> int:
    """The checksum's defining byte-at-a-time roll (offset 6 skipped)."""
    value = 0x5C
    for offset in range(min(len(buf), HEADER_BYTES)):
        if offset != 6:
            value = (value * 31 + buf[offset]) & 0xFF
    return value


class TestChecksum:
    @settings(max_examples=400, deadline=None)
    @given(st.binary(min_size=0, max_size=2 * HEADER_BYTES + 3))
    def test_table_matches_the_roll(self, buf):
        assert _checksum(buf) == rolling_checksum(buf)

    def test_table_matches_the_roll_on_extremes(self):
        for length in range(2 * HEADER_BYTES + 1):
            for fill in (0x00, 0x01, 0x7F, 0x80, 0xFF):
                buf = bytes([fill]) * length
                assert _checksum(buf) == rolling_checksum(buf)
                assert _checksum(bytearray(buf)) == rolling_checksum(buf)

    def test_encoded_entries_carry_the_rolled_checksum(self):
        for torn in (0, 1):
            raw = data_record(torn=torn).encode(64)
            assert raw[6] == rolling_checksum(raw)

    def test_decode_rejects_any_flipped_header_byte(self):
        raw = data_record().encode(64)
        for offset in range(HEADER_BYTES):
            if offset == 4:
                continue  # the magic byte: the entry no longer claims a record
            damaged = bytearray(raw)
            damaged[offset] ^= 0x01
            _record, status = LogRecord.classify(bytes(damaged))
            assert status is DecodeStatus.CHECKSUM, offset


class TestStampTorn:
    def test_restamp_equals_encoding_with_that_bit(self):
        for source, target in ((0, 1), (1, 0), (1, 1), (0, 0)):
            raw = data_record(torn=source).encode(64)
            assert stamp_torn(raw, target) == data_record(torn=target).encode(64)

    def test_restamped_entry_decodes(self):
        raw = data_record(torn=0).encode(64)
        decoded = LogRecord.decode(stamp_torn(raw, 1))
        assert decoded == data_record(torn=1)


# ----------------------------------------------------------------------
# Reference: the byte-at-a-time encoder and decoder the packed layout
# replaced.  The packed path must agree with them on every input.
# ----------------------------------------------------------------------
def reference_encode(record: LogRecord, entry_size: int) -> bytes:
    if entry_size < HEADER_BYTES:
        raise LogError(f"entry size {entry_size} below {HEADER_BYTES}")
    flags = (
        (record.torn & 1)
        | (int(record.kind) << 1)
        | (int(record.has_undo) << 3)
        | (int(record.has_redo) << 4)
    )
    buf = bytearray(entry_size)
    buf[0] = flags
    buf[1:3] = record.txid.to_bytes(2, "little")
    buf[3] = record.tid
    buf[4] = MAGIC
    buf[5] = record.value_size
    buf[8:14] = record.addr.to_bytes(6, "little")
    buf[16:16 + len(record.undo)] = record.undo
    buf[24:24 + len(record.redo)] = record.redo
    buf[6] = rolling_checksum(buf)
    return bytes(buf)


def reference_classify(raw: bytes, verify_checksum: bool = True):
    if len(raw) < HEADER_BYTES:
        raise LogError(f"log entry of {len(raw)} bytes is too short")
    if raw[4] != MAGIC:
        if raw[4] == RESET_MAGIC:
            return None, DecodeStatus.RESET_MARKER
        return None, DecodeStatus.EMPTY
    if verify_checksum and rolling_checksum(raw[:HEADER_BYTES]) != raw[6]:
        return None, DecodeStatus.CHECKSUM
    flags = raw[0]
    kind = RecordKind((flags >> 1) & 0x3)
    if kind == RecordKind.INVALID:
        return None, DecodeStatus.CORRUPT
    size = raw[5]
    if size > 8:
        return None, DecodeStatus.CORRUPT
    undo = bytes(raw[16:16 + size]) if flags & 0x8 else b""
    redo = bytes(raw[24:24 + size]) if flags & 0x10 else b""
    record = LogRecord(
        kind=kind,
        txid=int.from_bytes(raw[1:3], "little"),
        tid=raw[3],
        addr=int.from_bytes(raw[8:14], "little"),
        undo=undo,
        redo=redo,
        torn=flags & 1,
    )
    return record, DecodeStatus.OK


records = st.builds(
    LogRecord,
    kind=st.sampled_from([RecordKind.BEGIN, RecordKind.DATA, RecordKind.COMMIT]),
    txid=st.integers(0, (1 << 16) - 1),
    tid=st.integers(0, 255),
    addr=st.one_of(st.sampled_from([0, (1 << 48) - 1]), st.integers(0, (1 << 48) - 1)),
    undo=st.binary(max_size=8),
    redo=st.binary(max_size=8),
    torn=st.integers(0, 1),
)
entry_sizes = st.sampled_from([32, 64])


class TestStampTornIsExact:
    """Re-stamping moves the checksum by the flags byte's weight alone."""

    @settings(max_examples=400, deadline=None)
    @given(records, st.integers(0, 1), entry_sizes)
    def test_restamp_equals_encoding_at_the_other_parity(self, record, parity, entry_size):
        raw = record.encode(entry_size, parity)
        assert stamp_torn(raw, 1 - parity) == record.encode(entry_size, 1 - parity)
        assert stamp_torn(raw, parity) is raw

    @settings(max_examples=200, deadline=None)
    @given(records, st.integers(0, 1), st.integers(1, 255))
    def test_a_wrong_checksum_stays_wrong(self, record, parity, skew):
        raw = bytearray(record.encode(64, parity))
        raw[6] = (raw[6] + skew) & 0xFF
        restamped = stamp_torn(bytes(raw), 1 - parity)
        assert LogRecord.classify(restamped)[1] is DecodeStatus.CHECKSUM


class TestPackedLayoutMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(record=records, entry_size=entry_sizes, torn=st.sampled_from([None, 0, 1]))
    def test_encode_matches_byte_for_byte(self, record, entry_size, torn):
        stamped = record if torn is None else record._replace(torn=torn)
        assert record.encode(entry_size, torn) == reference_encode(stamped, entry_size)

    @settings(max_examples=400, deadline=None)
    @given(record=records, entry_size=entry_sizes)
    def test_classify_matches_on_encoded_entries(self, record, entry_size):
        raw = reference_encode(record, entry_size)
        for verify in (True, False):
            assert LogRecord.classify(raw, verify) == reference_classify(raw, verify)

    @settings(max_examples=400, deadline=None)
    @given(
        record=records,
        entry_size=entry_sizes,
        reserved=st.tuples(*[st.integers(1, 255)] * 3),
    )
    def test_classify_ignores_reserved_bytes(self, record, entry_size, reserved):
        clean = reference_encode(record, entry_size)
        raw = bytearray(clean)
        raw[7], raw[14], raw[15] = reserved
        raw = bytes(raw)
        for verify in (True, False):
            assert LogRecord.classify(raw, verify) == reference_classify(raw, verify)
        assert LogRecord.classify(raw, False) == LogRecord.classify(clean, False)

    @settings(max_examples=400, deadline=None)
    @given(
        raw=st.binary(min_size=HEADER_BYTES, max_size=64),
        magic=st.sampled_from([MAGIC, RESET_MAGIC, 0x00, 0x5A]),
        seal=st.booleans(),
    )
    def test_classify_matches_on_arbitrary_entries(self, raw, magic, seal):
        """Damaged and foreign entries get the reference's status, checked
        in its order: magic, reset marker, checksum, kind, size."""
        buf = bytearray(raw)
        buf[4] = magic
        if seal:
            buf[6] = rolling_checksum(buf)
        for verify in (True, False):
            assert LogRecord.classify(bytes(buf), verify) == reference_classify(
                bytes(buf), verify
            )

    def test_torn_override_is_a_bit(self):
        with pytest.raises(LogError):
            data_record().encode(64, torn=2)

    def test_ring_payloads_carry_each_pass_parity(self):
        ring = CircularLog(base=0x4000, num_entries=4, entry_size=64)
        for index in range(3 * ring.num_entries):
            if index % 4 in (1, 2):
                record = data_record(txid=index, addr=0x1000 + 8 * index, torn=index % 2)
            else:
                kind = RecordKind.BEGIN if index % 4 == 0 else RecordKind.COMMIT
                record = LogRecord(kind, txid=index, tid=index % 3, torn=index % 2)
            parity = 1 - (index // ring.num_entries) % 2
            placed = ring.place(record)
            assert placed.payload == reference_encode(
                record._replace(torn=parity), ring.entry_size
            ), index
            assert placed.record is record


@dataclass(frozen=True)
class ReferenceRecord:
    """``LogRecord`` as the frozen dataclass it used to be."""

    kind: RecordKind
    txid: int
    tid: int
    addr: int = 0
    undo: bytes = b""
    redo: bytes = b""
    torn: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.txid < (1 << 16):
            raise LogError(f"txid {self.txid} does not fit in 16 bits")
        if not 0 <= self.tid < (1 << 8):
            raise LogError(f"tid {self.tid} does not fit in 8 bits")
        if not 0 <= self.addr < (1 << 48):
            raise LogError(f"addr {self.addr:#x} does not fit in 48 bits")
        if len(self.undo) > 8 or len(self.redo) > 8:
            raise LogError("undo/redo values must be at most one word")
        if self.torn not in (0, 1):
            raise LogError("torn bit must be 0 or 1")


def around(limit: int):
    """Integers at and just past ``[0, limit)``'s ends, or anywhere near."""
    edges = st.sampled_from([-1, 0, 1, limit - 1, limit, limit + 1])
    return st.one_of(edges, st.integers(-2 * limit, 2 * limit))


any_fields = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(list(RecordKind)),
        "txid": around(1 << 16),
        "tid": around(1 << 8),
        "addr": around(1 << 48),
        "undo": st.binary(max_size=10),
        "redo": st.binary(max_size=10),
        "torn": st.sampled_from([-1, 0, 1, 2, False, True]),
    }
)


def build(cls, fields):
    """``(record, None)``, or ``(None, message)`` when the fields are refused."""
    try:
        return cls(**fields), None
    except LogError as exc:
        return None, str(exc)


class TestTupleRecordMatchesTheDataclass:
    @settings(max_examples=400, deadline=None)
    @given(fields=any_fields)
    def test_constructor_accepts_and_rejects_the_same_inputs(self, fields):
        record, error = build(LogRecord, fields)
        reference, reference_error = build(ReferenceRecord, fields)
        assert error == reference_error
        assert (record is None) == (reference is None)

    @settings(max_examples=200, deadline=None)
    @given(fields=any_fields)
    def test_replace_validates_like_the_constructor(self, fields):
        base = LogRecord(RecordKind.COMMIT, 1, 0)
        try:
            replaced, error = base._replace(**fields), None
        except LogError as exc:
            replaced, error = None, str(exc)
        assert (replaced, error) == build(LogRecord, fields)

    @settings(max_examples=300, deadline=None)
    @given(first=records, second=records)
    def test_equality_hash_repr_and_pickle(self, first, second):
        ref_first, ref_second = (
            ReferenceRecord(*record) for record in (first, second)
        )
        assert (first == second) == (ref_first == ref_second)
        assert (first != second) == (ref_first != ref_second)
        assert hash(first) == hash(ref_first)
        assert type(first).__name__ == "LogRecord"
        assert repr(first).partition("(")[2] == repr(ref_first).partition("(")[2]
        for record in (first, second):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is LogRecord
