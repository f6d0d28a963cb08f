"""Unit tests for repro.core.logrecord."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logrecord import (
    HEADER_BYTES,
    DecodeStatus,
    LogRecord,
    RecordKind,
    _checksum,
    stamp_torn,
)
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

    def test_with_torn(self):
        flipped = data_record(torn=0).with_torn(1)
        assert flipped.torn == 1
        assert flipped.addr == data_record().addr


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
