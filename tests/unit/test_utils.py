"""Unit tests for repro.utils."""

import pytest

from repro.errors import ConfigError
from repro.utils import (
    WORD_SIZE,
    align_down,
    align_up,
    int_to_word,
    is_power_of_two,
    line_address,
    ns_to_cycles,
    require_power_of_two,
    split_words,
    word_to_int,
)


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for exp in range(20):
            assert is_power_of_two(1 << exp)

    def test_rejects_non_powers(self):
        for value in (0, -1, 3, 6, 12, 100):
            assert not is_power_of_two(value)

    def test_require_returns_value(self):
        assert require_power_of_two(64, "x") == 64

    def test_require_raises(self):
        with pytest.raises(ConfigError, match="line size"):
            require_power_of_two(63, "line size")


class TestAlignment:
    def test_align_down(self):
        assert align_down(0x1234, 64) == 0x1200

    def test_align_down_already_aligned(self):
        assert align_down(0x1240, 64) == 0x1240

    def test_align_up(self):
        assert align_up(0x1201, 64) == 0x1240

    def test_align_up_already_aligned(self):
        assert align_up(0x1240, 64) == 0x1240

    def test_line_address(self):
        assert line_address(0x107F, 64) == 0x1040


class TestSplitWords:
    def test_aligned_single_word(self):
        assert split_words(0, b"abcdefgh") == [(0, b"abcdefgh")]

    def test_aligned_two_words(self):
        pieces = split_words(8, bytes(16))
        assert pieces == [(8, bytes(8)), (16, bytes(8))]

    def test_unaligned_start(self):
        pieces = split_words(5, b"abcdef")
        assert pieces == [(5, b"abc"), (8, b"def")]

    def test_no_piece_crosses_word_boundary(self):
        for addr in range(0, 16):
            for size in range(1, 25):
                for piece_addr, piece in split_words(addr, bytes(size)):
                    start_word = piece_addr // WORD_SIZE
                    end_word = (piece_addr + len(piece) - 1) // WORD_SIZE
                    assert start_word == end_word

    def test_pieces_cover_exactly(self):
        pieces = split_words(3, bytes(range(20)))
        total = sum(len(p) for _a, p in pieces)
        assert total == 20
        assert pieces[0][0] == 3

    def test_empty_write(self):
        assert split_words(0, b"") == []


class TestWords:
    def test_roundtrip(self):
        for value in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
            assert word_to_int(int_to_word(value)) == value

    def test_short_piece_decode(self):
        assert word_to_int(b"\x05") == 5


class TestNsToCycles:
    def test_table_ii_l1(self):
        assert ns_to_cycles(1.6, 2.5) == 4

    def test_table_ii_llc(self):
        assert ns_to_cycles(4.4, 2.5) == 11

    def test_table_ii_row_hit(self):
        assert ns_to_cycles(36.0, 2.5) == 90

    def test_minimum_one_cycle(self):
        assert ns_to_cycles(0.01, 2.5) == 1
