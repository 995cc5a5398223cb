"""Validator set: membership, quorums, proposer rotation.

The set is *epoch-aware*: membership changes activate at a declared ledger
height (two blocks after the change commits, as in real Tendermint), so
proposer rotation and quorum counting are functions of the height being
decided, not of wall-clock time.  Static deployments keep a single epoch and
behave exactly as the original fixed set.
"""

from __future__ import annotations

from ...errors import ConsensusError


class ValidatorSet:
    """Equally-weighted validator membership as a step function of height.

    CometBFT tolerates ``f < n/3`` Byzantine validators; quorums are therefore
    ``2f + 1`` with ``f = (n - 1) // 3``.  Proposer selection rotates
    round-robin by ``height + round``, a simplification of CometBFT's
    weighted-priority rotation that preserves fairness for equal weights.
    """

    def __init__(self, names: list[str]) -> None:
        if not names:
            raise ConsensusError("validator set cannot be empty")
        if len(set(names)) != len(names):
            raise ConsensusError("validator names must be unique")
        #: ``(effective_height, members)`` in activation order; the first
        #: entry is the genesis set, effective from height 1 (and before).
        self._epochs: list[tuple[int, tuple[str, ...]]] = [(0, tuple(sorted(names)))]
        #: Bumped on every membership change; nodes use it to invalidate
        #: cached peer lists.
        self.version = 0

    # -- current (latest-epoch) view -------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Members of the most recent epoch, sorted."""
        return self._epochs[-1][1]

    # -- height-keyed view ------------------------------------------------------

    def names_at(self, height: int) -> tuple[str, ...]:
        """The member set deciding blocks at ``height``."""
        for effective, members in reversed(self._epochs):
            if effective <= height:
                return members
        return self._epochs[0][1]

    def quorum_at(self, height: int) -> int:
        n = len(self.names_at(height))
        return 2 * ((n - 1) // 3) + 1

    def proposer(self, height: int, round_: int = 0) -> str:
        """Validator that proposes at ``(height, round)``."""
        if height < 1 or round_ < 0:
            raise ConsensusError(f"invalid (height, round) = ({height}, {round_})")
        names = self.names_at(height)
        return names[(height - 1 + round_) % len(names)]

    # -- membership changes -----------------------------------------------------

    def add_validator(self, name: str, effective_height: int) -> None:
        """Admit ``name`` to the set from ``effective_height`` on."""
        current = self._epochs[-1][1]
        if name in current:
            raise ConsensusError(f"validator {name!r} is already a member")
        effective_height = max(effective_height, self._epochs[-1][0])
        self._epochs.append((effective_height, tuple(sorted(current + (name,)))))
        self.version += 1

    def remove_validator(self, name: str, effective_height: int) -> None:
        """Retire ``name`` from the set from ``effective_height`` on."""
        current = self._epochs[-1][1]
        if name not in current:
            raise ConsensusError(f"validator {name!r} is not a member")
        members = tuple(v for v in current if v != name)
        if not members:
            raise ConsensusError("cannot remove the last validator")
        effective_height = max(effective_height, self._epochs[-1][0])
        self._epochs.append((effective_height, members))
        self.version += 1

    def epochs(self) -> list[tuple[int, tuple[str, ...]]]:
        """Every ``(effective_height, members)`` epoch, in activation order."""
        return list(self._epochs)

    def __contains__(self, name: str) -> bool:
        return name in self.names
