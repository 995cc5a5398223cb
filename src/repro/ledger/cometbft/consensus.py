"""Consensus messages and per-height vote bookkeeping."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from ...errors import ConsensusError
from ..types import Transaction


def block_id_for(height: int, transactions: tuple[Transaction, ...], proposer: str) -> str:
    """Deterministic identifier of a proposed block (hash of header + tx ids)."""
    hasher = hashlib.sha256()
    hasher.update(f"{height}:{proposer}:".encode())
    for tx in transactions:
        hasher.update(tx.tx_id.to_bytes(8, "big"))
    return hasher.hexdigest()


@dataclass(frozen=True, slots=True)
class Proposal:
    """A block proposal for ``(height, round)`` carrying the full transaction list."""

    height: int
    round: int
    proposer: str
    transactions: tuple[Transaction, ...]
    block_id: str
    #: Wire size, summed once at construction (broadcast reads it per message).
    size_bytes: int = field(init=False, default=0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size_bytes",
                           sum(tx.size_bytes for tx in self.transactions))


class VoteType(str, Enum):
    PREVOTE = "prevote"
    PRECOMMIT = "precommit"


#: Block id used in nil votes (proposal not received before timeout).
NIL_BLOCK = "<nil>"


@dataclass(frozen=True, slots=True)
class Vote:
    """A validator's prevote or precommit for a block id (or nil)."""

    height: int
    round: int
    voter: str
    vote_type: VoteType
    block_id: str


@dataclass
class ConsensusState:
    """One node's bookkeeping for the height currently being decided."""

    height: int
    round: int = 0
    proposal: Proposal | None = None
    prevoted: bool = False
    precommitted: bool = False
    committed: bool = False
    #: (round, vote_type, block_id) -> set of voter names.
    votes: dict[tuple[int, VoteType, str], set[str]] = field(default_factory=dict)
    #: Validators entitled to vote at this height (``None`` = anyone).  With
    #: dynamic membership a vote from a validator whose epoch has not yet
    #: activated — or has already ended — must not count toward quorums.
    members: frozenset[str] | None = None

    def record_vote(self, vote: Vote) -> int:
        """Add a vote; returns the updated count for its (round, type, block).

        Votes from non-members of this height's validator epoch are ignored
        (recorded count unchanged).
        """
        if vote.height != self.height:
            raise ConsensusError(
                f"vote for height {vote.height} recorded against state at height {self.height}"
            )
        key = (vote.round, vote.vote_type, vote.block_id)
        if self.members is not None and vote.voter not in self.members:
            return len(self.votes.get(key, ()))
        voters = self.votes.setdefault(key, set())
        voters.add(vote.voter)
        return len(voters)

    def count(self, round_: int, vote_type: VoteType, block_id: str) -> int:
        return len(self.votes.get((round_, vote_type, block_id), ()))

    def round_voters(self, round_: int, vote_type: VoteType) -> int:
        """Distinct voters of ``vote_type`` in ``round_`` across all block ids.

        Used by the round-timeout liveness rules: a full set of votes split
        between a block and nil reaches no per-block quorum but still proves
        the round cannot progress.
        """
        voters: set[str] = set()
        for (vote_round, vote_kind, _block_id), names in self.votes.items():
            if vote_round == round_ and vote_kind == vote_type:
                voters.update(names)
        return len(voters)
