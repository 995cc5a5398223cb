"""Membership epochs: the server set as a step function of time.

Static deployments have a single membership epoch fixed at build time.  A
``Join`` or ``Leave`` (a scheduled fault event or one passed to
``Session.apply``) appends a new epoch whose quorum activates at a *block
boundary* two blocks after the change is committed — mirroring real
Tendermint's validator-set update delay — so every correct server switches
quorums at the same deterministic point in the ledger, not at a wall-clock
instant.

The log answers two questions:

* what is the member set / quorum *at ledger height h* (used by the
  epoch-commit rule and the hashchain ``f+1`` consolidation trigger), and
* what changed when (used by ``RunResult.membership`` and the service
  health endpoint).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.budget import fault_tolerance


@dataclass(frozen=True)
class MembershipEpoch:
    """One interval of constant membership."""

    #: 1-based position in the log.
    index: int
    #: Simulated time the change was initiated.
    at: float
    #: First ledger height at which this epoch's quorum applies.
    effective_height: int
    #: Sorted member names.
    members: tuple[str, ...]
    #: Resolved fault tolerance for this member count.
    f: int
    #: Signers/proofs needed to trust an epoch under this membership.
    quorum: int
    #: "initial", "join" or "leave".
    reason: str
    #: The node that joined/left (None for the initial epoch).
    node: str | None = None

    def to_dict(self) -> dict:
        data = {
            "index": self.index,
            "at": self.at,
            "effective_height": self.effective_height,
            "members": list(self.members),
            "f": self.f,
            "quorum": self.quorum,
            "reason": self.reason,
        }
        if self.node is not None:
            data["node"] = self.node
        return data


@dataclass
class _JoinRecord:
    node: str
    at: float
    effective_height: int
    caught_up_at: float | None = None
    first_commit_at: float | None = None


@dataclass
class _LeaveRecord:
    node: str
    at: float
    effective_height: int
    drained: bool = True
    retired_at: float | None = None


class MembershipLog:
    """Ordered membership epochs keyed by effective ledger height."""

    def __init__(self, members: list[str] | tuple[str, ...],
                 explicit_f: int | None = None, at: float = 0.0) -> None:
        self._explicit_f = explicit_f
        initial = tuple(sorted(members))
        self._epochs: list[MembershipEpoch] = [
            MembershipEpoch(index=1, at=at, effective_height=0,
                            members=initial, f=self._f_for(len(initial)),
                            quorum=self._f_for(len(initial)) + 1,
                            reason="initial")
        ]
        self.joins: list[_JoinRecord] = []
        self.leaves: list[_LeaveRecord] = []

    def _f_for(self, n: int) -> int:
        return fault_tolerance(n, self._explicit_f)

    # -- mutation ---------------------------------------------------------------

    def _append(self, members: tuple[str, ...], at: float,
                effective_height: int, reason: str, node: str) -> MembershipEpoch:
        # Epochs activate in log order; a change recorded later can never
        # take effect at an earlier height than its predecessor.
        effective_height = max(effective_height,
                               self._epochs[-1].effective_height)
        f = self._f_for(len(members))
        epoch = MembershipEpoch(index=len(self._epochs) + 1, at=at,
                                effective_height=effective_height,
                                members=members, f=f, quorum=f + 1,
                                reason=reason, node=node)
        self._epochs.append(epoch)
        return epoch

    def join(self, name: str, at: float, effective_height: int) -> MembershipEpoch:
        current = self._epochs[-1].members
        if name in current:
            raise ValueError(f"{name!r} is already a member")
        epoch = self._append(tuple(sorted(current + (name,))), at,
                             effective_height, "join", name)
        self.joins.append(_JoinRecord(node=name, at=at,
                                      effective_height=epoch.effective_height))
        return epoch

    def leave(self, name: str, at: float, effective_height: int,
              drained: bool = True) -> MembershipEpoch:
        current = self._epochs[-1].members
        if name not in current:
            raise ValueError(f"{name!r} is not a member")
        members = tuple(m for m in current if m != name)
        if not members:
            raise ValueError("cannot remove the last member")
        epoch = self._append(members, at, effective_height, "leave", name)
        self.leaves.append(_LeaveRecord(node=name, at=at,
                                        effective_height=epoch.effective_height,
                                        drained=drained))
        return epoch

    # -- queries ----------------------------------------------------------------

    @property
    def epochs(self) -> tuple[MembershipEpoch, ...]:
        return tuple(self._epochs)

    @property
    def current(self) -> MembershipEpoch:
        return self._epochs[-1]

    @property
    def changed(self) -> bool:
        """True once any join/leave has been recorded."""
        return len(self._epochs) > 1

    def epoch_at_height(self, height: int) -> MembershipEpoch:
        """The epoch governing blocks at ledger ``height``."""
        for epoch in reversed(self._epochs):
            if epoch.effective_height <= height:
                return epoch
        return self._epochs[0]

    def quorum_at_height(self, height: int) -> int:
        return self.epoch_at_height(height).quorum

    def min_quorum(self) -> int:
        """The smallest quorum any epoch used (for retrospective proof checks)."""
        return min(e.quorum for e in self._epochs)
