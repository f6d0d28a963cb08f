"""``ThreadAPI.read``/``write`` word fast paths against the general path.

``read`` and ``write`` serve an aligned single word without the
line-splitting loop and without ``split_words``.  The reference below
is the loop both methods ran for every access before the fast paths
existed; driving one machine through the public methods and a twin
through the reference must give the same tracer event stream, the same
returned bytes, the same golden model and the same stats, at aligned,
unaligned and line-crossing addresses, with and without a live redo
overlay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import Machine, PersistentMemory
from repro.core.design import HWL, NON_PERS, REDO_CLWB, UNDO_CLWB
from repro.errors import TransactionError
from repro.sim.trace import Tracer
from repro.utils import line_address, split_words
from tests.conftest import tiny_system


def reference_read(api, addr: int, size: int) -> bytes:
    """``ThreadAPI.read`` as one loop: one load per line touched."""
    line_size = api._machine.config.line_size
    out = bytearray()
    cursor = addr
    end = addr + size
    while cursor < end:
        take = min(end, line_address(cursor, line_size) + line_size) - cursor
        out += api._load(cursor, take)
        cursor += take
    if api._overlay:
        api._patch_overlay(addr, out)
    return bytes(out)


def reference_write(api, addr: int, data) -> None:
    """``ThreadAPI.write`` as one loop over ``split_words``."""
    if not api.in_transaction:
        raise TransactionError("persistent writes require a transaction")
    policy = api._policy
    machine = api._machine
    core = api._core
    for piece_addr, piece in split_words(addr, data):
        api._writes[piece_addr] = piece
        api._write_lines.add(line_address(piece_addr, machine.config.line_size))
        if not (policy.uses_hw_logging or policy.uses_sw_logging):
            machine.issue(core, core.exec_store, piece_addr, piece)
        elif policy.uses_hw_logging:
            machine.issue(
                core, core.exec_store, piece_addr, piece, True, api._txid, api.tid
            )
        elif policy.defers_in_place_stores:
            api._sw_redo_write(piece_addr, piece)
        else:
            api._sw_undo_write(piece_addr, piece)


class Fast:
    """The public methods."""

    read = staticmethod(lambda api, addr, size: api.read(addr, size))
    read_word = staticmethod(lambda api, addr: api.read_word(addr))
    write = staticmethod(lambda api, addr, data: api.write(addr, data))
    write_word = staticmethod(lambda api, addr, value: api.write_word(addr, value))


class Reference:
    """The general loop for every access."""

    read = staticmethod(reference_read)
    read_word = staticmethod(
        lambda api, addr: int.from_bytes(reference_read(api, addr, 8), "little")
    )
    write = staticmethod(reference_write)
    write_word = staticmethod(
        lambda api, addr, value: reference_write(api, addr, value.to_bytes(8, "little"))
    )


def as_buffer(data: bytes, kind: str):
    """``data`` as the caller's buffer type (mutable ones get scribbled
    over after the write, so any aliasing shows in the golden model)."""
    if kind == "bytearray":
        return bytearray(data)
    if kind == "memoryview":
        return memoryview(bytearray(data))
    return data


def drive(design, transactions, side) -> tuple:
    machine = Machine(tiny_system(), design)
    tracer = Tracer()
    machine.tracer = tracer
    pm = PersistentMemory(machine)
    api = pm.api(0)
    base = machine.heap_base
    returned = []
    for ops in transactions:
        api.tx_begin()
        for op in ops:
            name, offset = op[0], op[1]
            addr = base + offset
            if name == "read":
                returned.append(side.read(api, addr, op[2]))
            elif name == "read_word":
                returned.append(side.read_word(api, addr))
            elif name == "write":
                buffer = as_buffer(op[2], op[3])
                side.write(api, addr, buffer)
                if not isinstance(buffer, bytes):
                    buffer[:] = b"\xee" * len(buffer)
            else:
                side.write_word(api, addr, op[2])
        api.tx_commit()
        # Plain reads between transactions: no overlay.
        returned.extend(
            side.read(api, base + op[1], 8) for op in ops if op[0] != "write_word"
        )
    events = [
        (event.time, event.kind, event.core, sorted(event.detail.items()))
        for event in tracer.events()
    ]
    return events, returned, pm.golden.commits, machine.stats


offsets = st.one_of(
    st.integers(0, 40).map(lambda k: 8 * k),  # aligned words
    st.integers(0, 320),  # anywhere
    st.integers(1, 4).map(lambda k: 64 * k - 4),  # straddling a line end
)
ops = st.one_of(
    st.tuples(st.just("read"), offsets, st.sampled_from([8, 8, 1, 3, 12, 24])),
    st.tuples(st.just("read_word"), offsets),
    st.tuples(
        st.just("write"),
        offsets,
        st.one_of(st.binary(min_size=8, max_size=8), st.binary(min_size=1, max_size=20)),
        st.sampled_from(["bytes", "bytearray", "memoryview"]),
    ),
    st.tuples(st.just("write_word"), offsets, st.integers(0, (1 << 64) - 1)),
)
transactions = st.lists(st.lists(ops, max_size=10), min_size=1, max_size=3)


@pytest.mark.parametrize("design", [HWL, UNDO_CLWB, REDO_CLWB, NON_PERS], ids=str)
@settings(max_examples=60, deadline=None)
@given(transactions=transactions)
def test_fast_paths_match_the_general_loop(design, transactions):
    fast = drive(design, transactions, Fast)
    reference = drive(design, transactions, Reference)
    assert fast[0] == reference[0]  # tracer event stream, in order
    assert fast[1] == reference[1]  # returned bytes and words
    assert fast[2] == reference[2]  # golden model (no aliased buffers)
    assert fast[3] == reference[3]  # every stat counter
    for _durable, writes in fast[2]:
        assert all(type(piece) is bytes for piece in writes.values())


def test_aligned_word_write_keeps_a_bytes_argument_and_copies_the_rest():
    pm = PersistentMemory(Machine(tiny_system(), HWL))
    api = pm.api(0)
    addr = pm.machine.heap_base
    word = b"ABCDEFGH"
    buffer = bytearray(b"12345678")
    with api.transaction():
        api.write(addr, word)
        api.write(addr + 8, buffer)
        buffer[:] = b"xxxxxxxx"
    writes = pm.golden.commits[-1][1]
    assert writes[addr] is word
    assert writes[addr + 8] == b"12345678"
