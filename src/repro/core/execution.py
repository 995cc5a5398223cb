"""Epoch execution layer (paper Appendix G: extension to a full blockchain).

The extended abstract sketches how a Setchain becomes a full blockchain:

1. while elements are added and epochs created, each transaction is validated
   *optimistically and independently* (in parallel, ignoring semantics);
2. once an epoch consolidates and its elements are ordered, the effects are
   applied *sequentially* in that order against the replicated state, and any
   transaction found semantically invalid at its final position is marked
   void rather than removed.

This module implements that two-phase scheme over a simple account/balance
state machine so the trade-off the appendix discusses (epoch size vs
sequential execution cost) can be exercised and benchmarked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import SetchainError
from ..workload.elements import Element


@dataclass(frozen=True, slots=True)
class Transfer:
    """A semantic payload for an element: move ``amount`` from ``sender`` to ``receiver``."""

    sender: str
    receiver: str
    amount: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise SetchainError("transfer amount must be positive")


@dataclass
class ExecutionResult:
    """Outcome of executing one epoch."""

    epoch_number: int
    applied: int = 0
    voided: int = 0
    #: element_id -> reason string for voided transactions.
    void_reasons: dict[int, str] = field(default_factory=dict)


class AccountState:
    """The replicated account/balance state machine."""

    def __init__(self, initial_balances: Mapping[str, int] | None = None) -> None:
        self.balances: dict[str, int] = dict(initial_balances or {})

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def credit(self, account: str, amount: int) -> None:
        self.balances[account] = self.balance(account) + amount

    def try_apply(self, transfer: Transfer) -> bool:
        """Apply the transfer if funds allow; returns False (void) otherwise."""
        if self.balance(transfer.sender) < transfer.amount:
            return False
        self.balances[transfer.sender] -= transfer.amount
        self.credit(transfer.receiver, transfer.amount)
        return True


class EpochExecutor:
    """Two-phase execution of consolidated epochs.

    ``payload_of`` maps an element to its semantic payload (or ``None`` for
    elements with no executable semantics, which are skipped).
    """

    def __init__(self, state: AccountState,
                 payload_of: Callable[[Element], Transfer | None]) -> None:
        self.state = state
        self.payload_of = payload_of
        self.results: list[ExecutionResult] = []
        self._executed_epochs: set[int] = set()

    # -- phase 1: optimistic, order-independent validation -------------------------

    @staticmethod
    def optimistic_valid(element: Element) -> bool:
        """Per-element validation that ignores state (parallelisable)."""
        return element.valid

    def optimistic_filter(self, elements: Iterable[Element]) -> list[Element]:
        """Filter an epoch's elements with the stateless check only."""
        return [e for e in elements if self.optimistic_valid(e)]

    # -- phase 2: sequential application in epoch order ------------------------------

    def execute_epoch(self, epoch_number: int,
                      elements: Sequence[Element]) -> ExecutionResult:
        """Apply one consolidated epoch; elements execute in a deterministic order."""
        if epoch_number in self._executed_epochs:
            raise SetchainError(f"epoch {epoch_number} was already executed")
        expected = len(self.results) + 1
        if epoch_number != expected:
            raise SetchainError(
                f"epochs must execute in order: expected {expected}, got {epoch_number}")
        result = ExecutionResult(epoch_number=epoch_number)
        ordered = sorted(self.optimistic_filter(elements),
                         key=lambda e: e.element_id)
        for element in ordered:
            payload = self.payload_of(element)
            if payload is None:
                continue
            if self.state.try_apply(payload):
                result.applied += 1
            else:
                result.voided += 1
                result.void_reasons[element.element_id] = "insufficient funds"
        self._executed_epochs.add(epoch_number)
        self.results.append(result)
        return result

    def execute_history(self, history: Mapping[int, Iterable[Element]]) -> list[ExecutionResult]:
        """Execute every not-yet-executed epoch of a server's history, in order."""
        outcomes: list[ExecutionResult] = []
        for epoch_number in sorted(history):
            if epoch_number in self._executed_epochs:
                continue
            outcomes.append(self.execute_epoch(epoch_number, list(history[epoch_number])))
        return outcomes

    @property
    def total_applied(self) -> int:
        return sum(r.applied for r in self.results)

    @property
    def total_voided(self) -> int:
        return sum(r.voided for r in self.results)
