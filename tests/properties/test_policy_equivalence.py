"""Differential testing: all eight designs compute the same values.

Persistence policies differ in *when* data becomes durable and what the
log contains — never in the values the program observes or the final
flushed memory image.  Any divergence is a simulator bug (this class of
test caught a real coherence bug during development).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, PersistentMemory
from repro.core.design import CANONICAL_DESIGNS, FWB, NON_PERS
from tests.conftest import tiny_system, word

operations = st.lists(
    st.tuples(
        st.integers(0, 11),           # slot
        st.integers(0, (1 << 32) - 1),  # value
        st.booleans(),                # read-back inside the transaction?
    ),
    min_size=1,
    max_size=10,
)
txn_lists = st.lists(operations, min_size=1, max_size=8)


def run_policy(policy, txns):
    machine = Machine(tiny_system(), policy)
    pm = PersistentMemory(machine)
    api = pm.api(0)
    slots = [pm.heap.alloc(8) for _ in range(12)]
    observations = []
    for txn in txns:
        with api.transaction():
            for slot, value, read_back in txn:
                api.write(slots[slot], word(value))
                if read_back:
                    observations.append(api.read(slots[slot], 8))
    machine.hierarchy.flush_all(machine.core_time(0))
    image = bytes(machine.nvram.read(slots[0], 12 * 8))
    return observations, image


@settings(max_examples=20, deadline=None)
@given(txns=txn_lists)
def test_all_policies_functionally_equivalent(txns):
    reference = run_policy(NON_PERS, txns)
    for policy in CANONICAL_DESIGNS:
        if policy is NON_PERS:
            continue
        assert run_policy(policy, txns) == reference, policy.value


@settings(max_examples=10, deadline=None)
@given(txns=txn_lists)
def test_custom_specs_functionally_equivalent(txns):
    """Off-grid mechanism compositions still compute the same values —
    mechanisms change timing and durability, never program semantics."""
    from repro.core.design import parse_design

    reference = run_policy(NON_PERS, txns)
    for text in ("hw+undo+clwb", "sw+redo+fwb", "sw+undo+redo+clwb", "hw+redo+fwb"):
        assert run_policy(parse_design(text), txns) == reference, text


@settings(max_examples=10, deadline=None)
@given(txns=txn_lists)
def test_grow_and_distributed_match_centralized(txns):
    from repro.sim.config import LoggingConfig

    def run_with(logging):
        machine = Machine(tiny_system(logging=logging), FWB)
        pm = PersistentMemory(machine)
        api = pm.api(0)
        slots = [pm.heap.alloc(8) for _ in range(12)]
        for txn in txns:
            with api.transaction():
                for slot, value, _rb in txn:
                    api.write(slots[slot], word(value))
        machine.hierarchy.flush_all(machine.core_time(0))
        return bytes(machine.nvram.read(slots[0], 12 * 8))

    centralized = run_with(LoggingConfig(log_entries=128))
    grown = run_with(LoggingConfig(log_entries=16, enable_log_grow=True))
    distributed = run_with(LoggingConfig(log_entries=128, distributed_logs=2))
    assert grown == centralized
    assert distributed == centralized
