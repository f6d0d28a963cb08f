"""Small shared helpers: alignment math, integer packing, validation."""

from __future__ import annotations

from .errors import ConfigError

WORD_SIZE = 8
"""Machine word size in bytes (64-bit machine, Section IV-E of the paper)."""


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def require_power_of_two(value: int, what: str) -> int:
    """Validate that ``value`` is a power of two, returning it unchanged."""
    if not is_power_of_two(value):
        raise ConfigError(f"{what} must be a power of two, got {value}")
    return value


def align_down(addr: int, alignment: int) -> int:
    """Round ``addr`` down to a multiple of ``alignment`` (a power of two)."""
    return addr & ~(alignment - 1)


def align_up(addr: int, alignment: int) -> int:
    """Round ``addr`` up to a multiple of ``alignment`` (a power of two)."""
    return (addr + alignment - 1) & ~(alignment - 1)


def line_address(addr: int, line_size: int) -> int:
    """Return the cache-line base address containing ``addr``."""
    return addr & ~(line_size - 1)


def split_words(addr: int, data: bytes) -> list[tuple[int, bytes]]:
    """Split a write into word-sized (or smaller) pieces.

    Hardware logging operates at word granularity (one log record per word,
    Section III-B).  A write that is not word-aligned or not a whole number
    of words is split so that no piece crosses a word boundary.

    Returns a list of ``(address, piece_bytes)`` tuples in address order.
    """
    pieces: list[tuple[int, bytes]] = []
    offset = 0
    remaining = len(data)
    while remaining > 0:
        at = addr + offset
        word_end = align_down(at, WORD_SIZE) + WORD_SIZE
        take = min(remaining, word_end - at)
        pieces.append((at, bytes(data[offset:offset + take])))
        offset += take
        remaining -= take
    return pieces


def int_to_word(value: int) -> bytes:
    """Encode an unsigned integer as a little-endian machine word."""
    return int(value).to_bytes(WORD_SIZE, "little")


def word_to_int(data: bytes) -> int:
    """Decode a little-endian machine word (or shorter piece) to an int."""
    return int.from_bytes(data, "little")


def ns_to_cycles(nanoseconds: float, clock_ghz: float) -> int:
    """Convert a latency in nanoseconds to (rounded) core clock cycles."""
    return max(1, round(nanoseconds * clock_ghz))
