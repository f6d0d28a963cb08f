"""Property-based crash-consistency tests — the paper's core guarantee.

For any sequence of transactions and any crash instant, recovery must
produce exactly the committed prefix: every transaction whose commit was
durable at the crash is fully present (durability), every other
transaction is fully absent (atomicity).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, PersistentMemory, recover_image
from repro.core.design import FWB, HWL, REDO_CLWB, UNDO_CLWB
from repro.sim.config import LoggingConfig
from tests.conftest import tiny_system, word

GUARANTEED = [FWB, HWL, UNDO_CLWB, REDO_CLWB]

transactions = st.lists(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 1 << 30)),  # (slot, value)
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=12,
)


def run_and_crash(
    policy,
    txns,
    crash_fraction,
    log_entries=128,
    logging_overrides=None,
    nvram_overrides=None,
):
    logging = LoggingConfig(log_entries=log_entries, **(logging_overrides or {}))
    system = tiny_system(logging=logging)
    if nvram_overrides:
        from dataclasses import replace

        system = system.scaled(nvram=replace(system.nvram, **nvram_overrides))
    machine = Machine(system, policy)
    pm = PersistentMemory(machine)
    api = pm.api(0)
    slots = [pm.heap.alloc(8) for _ in range(16)]
    for addr in slots:
        pm.setup_write(addr, word(0))
    for txn in txns:
        with api.transaction():
            for slot, value in txn:
                api.write(slots[slot], word(value))
            api.compute(5)
    horizon = max(api.now, max((t for t, _ in pm.golden.commits), default=0.0))
    crash_time = horizon * crash_fraction
    machine.crash(at_time=crash_time)
    recover_image(machine.nvram, machine.config)
    expected = pm.golden.expected_at(crash_time)
    for i, addr in enumerate(slots):
        want = expected.get(addr, word(0))
        got = machine.nvram.read(addr, 8)
        assert got == want, (
            f"{policy.value}: slot {i} = {got.hex()} want {want.hex()} "
            f"at crash {crash_time:.1f}"
        )


@settings(max_examples=25, deadline=None)
@given(txns=transactions, crash_fraction=st.floats(0.0, 1.0))
def test_fwb_crash_consistency(txns, crash_fraction):
    run_and_crash(FWB, txns, crash_fraction)


@settings(max_examples=25, deadline=None)
@given(txns=transactions, crash_fraction=st.floats(0.0, 1.0))
def test_hwl_crash_consistency(txns, crash_fraction):
    run_and_crash(HWL, txns, crash_fraction)


@settings(max_examples=20, deadline=None)
@given(txns=transactions, crash_fraction=st.floats(0.0, 1.0))
def test_undo_clwb_crash_consistency(txns, crash_fraction):
    run_and_crash(UNDO_CLWB, txns, crash_fraction)


@settings(max_examples=20, deadline=None)
@given(txns=transactions, crash_fraction=st.floats(0.0, 1.0))
def test_redo_clwb_crash_consistency(txns, crash_fraction):
    run_and_crash(REDO_CLWB, txns, crash_fraction)


@settings(max_examples=15, deadline=None)
@given(txns=transactions, crash_fraction=st.floats(0.2, 1.0))
def test_fwb_crash_consistency_with_tiny_wrapping_log(txns, crash_fraction):
    """Same guarantee with a 16-entry log that wraps constantly, forcing
    the wrap-protection path."""
    run_and_crash(FWB, txns, crash_fraction, log_entries=16)


@settings(max_examples=15, deadline=None)
@given(txns=transactions, crash_fraction=st.floats(0.0, 1.0))
def test_fwb_crash_consistency_with_log_grow(txns, crash_fraction):
    """Same guarantee with log_grow() enabled on a tiny log, so active
    transactions trigger region growth."""
    run_and_crash(
        FWB,
        txns,
        crash_fraction,
        log_entries=16,
        logging_overrides={"enable_log_grow": True},
    )


@settings(max_examples=15, deadline=None)
@given(txns=transactions, crash_fraction=st.floats(0.0, 1.0))
def test_fwb_crash_consistency_with_distributed_logs(txns, crash_fraction):
    """Same guarantee over per-thread distributed rings."""
    run_and_crash(
        FWB,
        txns,
        crash_fraction,
        log_entries=128,
        logging_overrides={"distributed_logs": 2},
    )


@settings(max_examples=15, deadline=None)
@given(
    txns=transactions,
    crash_fraction=st.floats(0.0, 1.0),
    policy=st.sampled_from([FWB, UNDO_CLWB]),
)
def test_crash_consistency_under_adr(txns, crash_fraction, policy):
    """With an ADR persist domain, durability moves to controller
    acceptance — the golden model, fences, and crash journal must stay
    mutually consistent."""
    run_and_crash(policy, txns, crash_fraction, nvram_overrides={"adr_persist_domain": True})
