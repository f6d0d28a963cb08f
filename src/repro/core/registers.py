"""Special registers added by the design (Section IV-B, Table I).

* one 8-bit physical transaction-ID register bank: the ``txid`` argument
  of ``tx_begin()`` translates to a not-in-use physical ID (256 active
  transactions at a time, reusable after commit);
* optional registers for extra log regions allocated by ``log_grow()``.

The log's head and tail pointer registers are the ring's own
:attr:`~repro.core.nvlog.CircularLog.head` and ``tail``.

All of this state is volatile (it is reconstructed from the log itself on
recovery).
"""

from __future__ import annotations

from ..errors import TransactionError

PHYSICAL_TXID_SPACE = 256


class SpecialRegisters:
    """Volatile processor registers for the logging machinery."""

    def __init__(self) -> None:
        self._free_ids = list(range(PHYSICAL_TXID_SPACE - 1, -1, -1))
        self._active: dict[int, int] = {}  # user txid -> physical id
        self._generation: dict[int, int] = {}  # physical id -> acquisition count
        self.grow_regions: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Physical transaction IDs
    # ------------------------------------------------------------------
    def acquire_txid(self, user_txid: int) -> int:
        """Map a user transaction ID to a free 8-bit physical ID."""
        if user_txid in self._active:
            raise TransactionError(f"transaction {user_txid} already active")
        if not self._free_ids:
            raise TransactionError(
                f"more than {PHYSICAL_TXID_SPACE} concurrently active transactions"
            )
        physical = self._free_ids.pop()
        self._active[user_txid] = physical
        self._generation[physical] = self._generation.get(physical, 0) + 1
        return physical

    def release_txid(self, user_txid: int) -> None:
        """Return the physical ID of a committed transaction to the pool."""
        physical = self._active.pop(user_txid, None)
        if physical is None:
            raise TransactionError(f"transaction {user_txid} is not active")
        self._free_ids.append(physical)

    def physical_txid(self, user_txid: int) -> int:
        """Physical ID currently backing ``user_txid``."""
        try:
            return self._active[user_txid]
        except KeyError:
            raise TransactionError(f"transaction {user_txid} is not active") from None

    def activity_token(self, physical) -> "int | None":
        """Current generation of ``physical`` if it is active, else None.

        Physical IDs recycle (8 bits, Section IV-B); the generation token
        distinguishes the *instance*: a log entry stamped with an old
        token belongs to a long-committed transaction even if its
        physical ID is active again.
        """
        if physical not in self._active.values():
            return None
        return self._generation.get(physical)

    @property
    def active_count(self) -> int:
        """Number of currently active transactions."""
        return len(self._active)

    # ------------------------------------------------------------------
    # Log regions
    # ------------------------------------------------------------------
    def add_grow_region(self, base: int, size: int) -> None:
        """Record an additional log region allocated by ``log_grow()``."""
        self.grow_regions.append((base, size))
