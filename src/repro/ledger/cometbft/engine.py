"""The CometBFT-style node and network.

Each :class:`CometBFTNode` couples a mempool, the consensus state machine, and
an ABCI application (the Setchain server).  Nodes exchange three kinds of
message over the simulated network, one simulator event per delivery:

* ``proposal``  — block proposal for a height/round,
* ``prevote`` / ``precommit`` — Tendermint votes,
* ``catchup_request`` / ``catchup_response`` — peer block-sync for nodes that
  fell behind (lossy links can swallow a proposal or commit-completing vote;
  real CometBFT recovers through continuous gossip and the blocksync
  reactor, both collapsed here into an explicit request/serve pair).

Mempool gossip (``BroadcastTxAsync`` flood, one hop) travels the same network
— same recipients, latency draws, fault rules and counters — but is no event:
all an arrival does is enter one mempool, so the sender files it with the
recipient, who admits it before next looking at its mempool
(:meth:`CometBFTNode._admit_gossip`).

A block commits at a node when it holds the proposal and ``2f + 1`` precommits
for its block id; every correct node then delivers the block to its
application via ``FinalizeBlock`` in height order, giving the Setchain layer
Ledger Properties 9-11.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from ...config import LedgerConfig
from ...errors import ConsensusError, MempoolFullError
from ...net.message import Message
from ...net.network import Network
from ...net.node import NetworkNode
from ...sim.process import Timer
from ...sim.scheduler import Simulator
from ..abci import Application, LedgerInterface
from ..mempool import Mempool
from ..types import Block, Transaction
from .consensus import (
    NIL_BLOCK,
    ConsensusState,
    Proposal,
    Vote,
    VoteType,
    block_id_for,
)
from .validator import ValidatorSet

#: Approximate wire size of a vote message (bytes).
_VOTE_SIZE = 100
#: If the proposer's mempool is empty, it re-checks after this fraction of the
#: block interval instead of emitting an empty block (create_empty_blocks=false).
_EMPTY_RETRY_FRACTION = 0.2
#: Round timeout as a multiple of the block interval before prevoting nil.
_ROUND_TIMEOUT_FACTOR = 4.0
#: Height gap at which a node assumes it missed commits and requests
#: block-sync from its peers.  A gap of one is normal pipelining (votes for
#: the next height arrive while this node's commit is still in flight); two
#: or more cannot happen without message loss or a crash, so the trigger is
#: unreachable in fault-free runs and their artifacts stay byte-identical.
_CATCHUP_HEIGHT_GAP = 2


class CometBFTNode(NetworkNode, LedgerInterface):
    """One validator: mempool + consensus + ABCI hookup."""

    def __init__(self, name: str, sim: Simulator, validators: ValidatorSet,
                 config: LedgerConfig) -> None:
        super().__init__(name, sim)
        if name not in validators:
            raise ConsensusError(f"{name!r} is not in the validator set")
        self.validators = validators
        self.config = config
        self.mempool = Mempool(config.mempool_max_txs, config.mempool_max_bytes)
        self.app: Application | None = None
        self.height = 1
        self.committed_blocks: list[Block] = []
        #: Buffered consensus messages for heights we have not reached yet.
        self._future: dict[int, list[Message]] = {}
        #: Proposals received for (height, round), kept across round changes.
        self._round_proposals: dict[tuple[int, int], Proposal] = {}
        self._round_timer = Timer(sim, self._on_round_timeout)
        self._propose_timer = Timer(sim, self._maybe_propose)
        self._last_commit_time = 0.0
        #: Fan-out set for consensus traffic (validators only), cached per
        #: validator-set version so membership changes refresh it lazily.
        self._peers_cache = tuple(peer for peer in validators.names
                                  if peer != name)
        self._peers_version = validators.version
        #: First height at which this validator is *no longer* in the set
        #: (``None`` = member for as long as it runs).  Set by
        #: :meth:`CometBFTNetwork.remove_validator`; past it the node follows
        #: the chain passively but neither proposes nor votes.
        self.inactive_from_height: int | None = None
        self.state = self._fresh_state(1)
        #: tx_id -> height at which this node committed the transaction.
        self.inclusion_height: dict[int, int] = {}
        #: Last time this node asked a peer for block-sync (rate limit), and
        #: the rotation cursor over peers (one request goes to one peer; a
        #: peer that cannot help is skipped on the next attempt).
        self._last_catchup_request = float("-inf")
        self._catchup_peer_index = 0
        #: Gossiped transactions on their way here: a heap of ``(arrival
        #: time, seq, tx)``, the place each had as a delivery event.
        self._inbox: list[tuple[float, int, Transaction]] = []
        sim.on_pause.append(self._admit_gossip)
        self.on("proposal", self._on_proposal)
        self.on("prevote", self._on_vote)
        self.on("precommit", self._on_vote)
        self.on("catchup_request", self._on_catchup_request)
        self.on("catchup_response", self._on_catchup_response)

    # -- helpers ----------------------------------------------------------------

    @property
    def _peer_validators(self) -> tuple[str, ...]:
        if self._peers_version != self.validators.version:
            self._peers_version = self.validators.version
            self._peers_cache = tuple(peer for peer in self.validators.names
                                      if peer != self.name)
        return self._peers_cache

    def _fresh_state(self, height: int) -> ConsensusState:
        """Round state for ``height``, with a member filter once the set is dynamic.

        A static validator set keeps ``members=None`` (no filtering, exactly
        the original behaviour); after the first membership change every
        height's votes are counted against the epoch deciding that height.
        """
        members = None
        if self.validators.version:
            members = frozenset(self.validators.names_at(height))
        return ConsensusState(height=height, members=members)

    def _is_member(self) -> bool:
        """Whether this node is entitled to propose/vote at its current height."""
        members = self.state.members
        if members is not None:
            return self.name in members
        return (self.inactive_from_height is None
                or self.height < self.inactive_from_height)

    def _broadcast_validators(self, msg_type: str, payload: object,
                              size_bytes: int = 0) -> None:
        """Send to every other validator (not to non-validator nodes on the network)."""
        sent = self.network.multicast(self.name, msg_type, payload, size_bytes,
                                      recipients=self._peer_validators)
        self.messages_sent += sent
        self.bytes_sent += size_bytes * sent

    # -- LedgerInterface -------------------------------------------------------

    def append_many(self, txs: Sequence[Transaction]) -> None:
        """``BroadcastTxAsync`` per transaction: validate, admit to the local
        mempool, gossip.  Nothing in a burst reaches this node's own inbox,
        so the gossip that arrived before it is admitted once, up front."""
        if self.crashed:
            return
        self._admit_gossip()
        app, now = self.app, self.sim.now
        network, take_seq = self.network, self.sim.take_seq
        peers = self._peer_validators
        for tx in txs:
            if app is not None and not app.check_tx(tx):
                continue
            try:
                if not self.mempool.add(tx, now):
                    continue
            except MempoolFullError:
                continue
            # The fan-out of ``_broadcast_validators``, each copy filed with
            # its recipient instead of scheduled.
            for peer in peers:
                for delay in network.fate(self.name, peer, "tx", tx, tx.size_bytes):
                    heappush(network.node(peer)._inbox, (now + delay, take_seq(), tx))
            self.messages_sent += len(peers)
            self.bytes_sent += tx.size_bytes * len(peers)

    def _admit_gossip(self) -> None:
        """Take in every gossiped transaction that has arrived by now.

        Called before anything reads or writes the mempool or
        ``inclusion_height`` and before this node goes down, comes back or
        retires: each arrival meets the mempool, and the ``crashed`` flag, a
        delivery event at its own ``(time, seq)`` would have met.
        """
        inbox, position = self._inbox, self.sim.position()
        if not inbox or position < inbox[0]:
            return
        network = self.network
        # Crash-faulted or retired at that instant: the message is lost.
        lost = self.crashed or self.name not in network
        count = size = 0
        while inbox and inbox[0] < position:
            arrived_at, _seq, tx = heappop(inbox)
            count += 1
            size += tx.size_bytes
            if not lost and tx.tx_id not in self.inclusion_height:
                try:
                    self.mempool.add(tx, arrived_at)
                except MempoolFullError:
                    pass
        if lost:
            network.messages_dropped += count
            return
        network.messages_delivered += count
        network.bytes_delivered += size
        self.messages_received += count
        self.bytes_received += size

    def subscribe(self, app: Application) -> None:
        if self.app is not None:
            raise ConsensusError(f"node {self.name!r} already has an application")
        self.app = app

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Arm the proposal schedule for the first height."""
        self._schedule_proposal()
        self._round_timer.start(self.config.block_interval * _ROUND_TIMEOUT_FACTOR)

    def crash(self) -> None:
        self._admit_gossip()  # what arrived while up was delivered
        super().crash()

    def recover(self) -> None:
        self._admit_gossip()  # what arrived while down is lost
        super().recover()

    def _on_crash(self) -> None:
        """Crash-fault: stop participating entirely (no messages in or out).

        The base :class:`~repro.net.node.NetworkNode` crash state already
        silences traffic; the consensus timers are cancelled here.  The
        committed chain, the mempool contents, and the app subscription are
        durable and survive for :meth:`catch_up`.
        """
        self._round_timer.cancel()
        self._propose_timer.cancel()

    def _on_recover(self) -> None:
        """Rejoin consensus at the current height with a fresh round state.

        A bare :meth:`~repro.net.node.NetworkNode.recover` resumes at the
        pre-crash height; :meth:`CometBFTNetwork.recover_node` additionally
        block-syncs the missed chain from a live peer before resuming.
        """
        self._resume()

    def catch_up(self, blocks: "list[Block]") -> None:
        """Block-sync: adopt already-committed blocks from a peer's chain.

        Each block is committed locally exactly as :meth:`_try_commit` would
        have (chain append, inclusion heights, mempool eviction, FinalizeBlock
        to the application) and the node resumes consensus past them.
        """
        self._admit_gossip()
        for block in blocks:
            if block.height < self.height:
                continue
            self.committed_blocks.append(block)
            for tx in block.transactions:
                self.inclusion_height[tx.tx_id] = block.height
            self.mempool.remove_committed(list(block.transactions))
            if self.app is not None:
                self.app.finalize_block(block)
            self.height = block.height + 1
        if blocks:
            self._resume()

    def _resume(self) -> None:
        """Restart consensus at ``self.height`` (fresh round, re-armed timers)."""
        self._last_commit_time = self.sim.now
        self.state = self._fresh_state(self.height)
        self._future = {height: messages
                        for height, messages in self._future.items()
                        if height >= self.height}
        self._enter_height()

    def _enter_height(self) -> None:
        """Arm the timers for ``self.height`` and replay the consensus
        traffic that arrived early for it."""
        self._round_timer.start(self.config.block_interval * _ROUND_TIMEOUT_FACTOR)
        self._schedule_proposal()
        for message in self._future.pop(self.height, []):
            self.deliver(message)

    # -- proposing ----------------------------------------------------------------

    def _is_proposer(self, height: int, round_: int) -> bool:
        return self.validators.proposer(height, round_) == self.name

    def _schedule_proposal(self) -> None:
        """Arm the propose timer if this node proposes the current height/round."""
        if self.crashed or not self._is_proposer(self.height, self.state.round):
            return
        elapsed = self.sim.now - self._last_commit_time
        delay = max(0.0, self.config.block_interval - elapsed)
        self._propose_timer.start(delay)

    def _maybe_propose(self) -> None:
        if self.crashed or self.state.committed:
            return
        if not self._is_proposer(self.height, self.state.round):
            return
        if self.state.proposal is not None:
            return
        self._admit_gossip()
        txs = self.mempool.reap(self.config.block_size_bytes)
        if not txs:
            # No transactions: retry shortly rather than emitting empty blocks.
            self._propose_timer.start(self.config.block_interval * _EMPTY_RETRY_FRACTION)
            return
        transactions = tuple(txs)
        proposal = Proposal(
            height=self.height,
            round=self.state.round,
            proposer=self.name,
            transactions=transactions,
            block_id=block_id_for(self.height, transactions, self.name),
        )
        self._broadcast_validators("proposal", proposal, size_bytes=proposal.size_bytes)
        self._handle_proposal(proposal)

    # -- consensus steps -----------------------------------------------------------

    def _on_proposal(self, message: Message) -> None:
        proposal: Proposal = message.payload
        if proposal.height > self.height:
            self._future.setdefault(proposal.height, []).append(message)
            if proposal.height - self.height >= _CATCHUP_HEIGHT_GAP:
                self._request_catch_up()
            return
        if proposal.height < self.height:
            return
        self._handle_proposal(proposal)

    def _handle_proposal(self, proposal: Proposal) -> None:
        if proposal.proposer != self.validators.proposer(proposal.height, proposal.round):
            return  # not the legitimate proposer for this round
        # Buffer by round: a proposal may arrive while we are still in an
        # earlier round (e.g. during a nil-round changeover) and must not be
        # lost when we advance.
        self._round_proposals[(proposal.height, proposal.round)] = proposal
        self._maybe_progress()

    def _cast_vote(self, vote_type: VoteType, block_id: str) -> None:
        if not self._is_member():
            # Not (yet / any more) in this height's validator epoch: follow
            # the chain passively — peers would discard the vote anyway.
            return
        vote = Vote(height=self.height, round=self.state.round, voter=self.name,
                    vote_type=vote_type, block_id=block_id)
        self._broadcast_validators(vote_type.value, vote, size_bytes=_VOTE_SIZE)
        self.state.record_vote(vote)

    def _on_vote(self, message: Message) -> None:
        vote: Vote = message.payload
        if vote.height > self.height:
            self._future.setdefault(vote.height, []).append(message)
            if vote.height - self.height >= _CATCHUP_HEIGHT_GAP:
                self._request_catch_up()
            return
        if vote.height < self.height:
            return
        self.state.record_vote(vote)
        self._maybe_progress()

    def _maybe_progress(self) -> None:
        """Drive the prevote → precommit → commit pipeline from current knowledge.

        Called whenever new information arrives (proposal, vote, round change).
        This state-driven formulation tolerates any message ordering: late
        proposals, votes recorded for a round we have not entered yet, and
        nil-round changeovers all converge.
        """
        if self.crashed or self.state.committed:
            return
        state = self.state
        quorum = self.validators.quorum_at(self.height)
        proposal = self._round_proposals.get((self.height, state.round))
        if proposal is not None and state.proposal is None:
            state.proposal = proposal
        if state.proposal is not None:
            block_id = state.proposal.block_id
            if not state.prevoted:
                state.prevoted = True
                self._cast_vote(VoteType.PREVOTE, block_id)
            if (not state.precommitted
                    and state.count(state.round, VoteType.PREVOTE, block_id) >= quorum):
                state.precommitted = True
                self._cast_vote(VoteType.PRECOMMIT, block_id)
            if (not state.committed
                    and state.count(state.round, VoteType.PRECOMMIT, block_id) >= quorum):
                self._try_commit(block_id)
                return
        # Nil-round handling: a quorum of nil prevotes means no block can reach
        # a prevote quorum in this round (each validator votes once), so we can
        # precommit nil even if a late proposal has arrived; a quorum of nil
        # precommits then moves everyone to the next round.
        if (not state.precommitted
                and state.count(state.round, VoteType.PREVOTE, NIL_BLOCK) >= quorum):
            state.precommitted = True
            self._cast_vote(VoteType.PRECOMMIT, NIL_BLOCK)
        if (not state.committed
                and state.count(state.round, VoteType.PRECOMMIT, NIL_BLOCK) >= quorum):
            self._advance_round()

    def _try_commit(self, block_id: str) -> None:
        proposal = self.state.proposal
        if proposal is None or proposal.block_id != block_id:
            # Quorum formed before the proposal arrived here; wait for it.
            return
        self.state.committed = True
        self._admit_gossip()
        block = Block(height=self.height, transactions=proposal.transactions,
                      proposer=proposal.proposer, timestamp=self.sim.now)
        self.committed_blocks.append(block)
        for tx in block.transactions:
            self.inclusion_height[tx.tx_id] = block.height
        self.mempool.remove_committed(list(block.transactions))
        if self.app is not None:
            self.app.finalize_block(block)
        self._advance_height()

    def _advance_height(self) -> None:
        self._last_commit_time = self.sim.now
        self.height += 1
        self.state = self._fresh_state(self.height)
        self._round_proposals = {key: value for key, value in self._round_proposals.items()
                                 if key[0] >= self.height}
        self._enter_height()

    def _advance_round(self) -> None:
        """Move to the next round after a failed one (nil precommit quorum)."""
        self.state.round += 1
        self.state.proposal = None
        self.state.prevoted = False
        self.state.precommitted = False
        self._round_timer.start(self.config.block_interval * _ROUND_TIMEOUT_FACTOR)
        self._schedule_proposal()
        # A proposal or votes for the new round may already have been recorded.
        self._maybe_progress()

    def _on_round_timeout(self) -> None:
        """Round liveness: the timeout escalates one consensus step each time.

        Mirrors Tendermint's ``timeout_propose`` → ``timeout_prevote`` →
        ``timeout_precommit`` ladder.  The prevote/precommit steps matter on
        wide-area topologies: regional jitter can race the proposal against
        the round timers so the prevotes split between the block and nil with
        neither reaching a 2f+1 quorum — without the escalation every
        validator has already voted and the round would deadlock forever.
        """
        if self.crashed or self.state.committed:
            return
        state = self.state
        if state.proposal is None and not state.prevoted:
            # timeout_propose: no proposal seen — prevote nil.
            state.prevoted = True
            self._cast_vote(VoteType.PREVOTE, NIL_BLOCK)
        elif state.prevoted and not state.precommitted:
            # timeout_prevote: we prevoted long ago and no prevote quorum
            # formed for any single value — precommit nil so the round can
            # end (always safe: this validator precommits at most once).
            state.precommitted = True
            self._cast_vote(VoteType.PRECOMMIT, NIL_BLOCK)
        elif state.precommitted:
            if self._round_is_dead():
                # timeout_precommit: no block can reach a precommit quorum in
                # this round any more — move on (_advance_round re-arms).
                self._advance_round()
                return
            # Stuck: we have precommitted and waited a full timeout, yet the
            # round neither committed nor provably died — a lossy link
            # swallowed votes or the proposal, or a straggler's votes are
            # missing for good.  Re-gossip our round state (idempotent at
            # every receiver) and ask peers for block-sync, so a lost
            # message can delay a height but never wedge it forever.
            # Unreachable in fault-free runs: with every message delivered,
            # a round always commits or goes provably dead before a second
            # timeout, so artifacts stay byte-identical.
            self._regossip_round()
            self._request_catch_up()
        self._maybe_progress()
        self._round_timer.start(self.config.block_interval * _ROUND_TIMEOUT_FACTOR)

    # -- peer block-sync (lossy-link liveness) -------------------------------------

    def _request_catch_up(self) -> None:
        """Ask one peer for block-sync (rate-limited to one per timeout).

        Fired when consensus traffic arrives ≥ :data:`_CATCHUP_HEIGHT_GAP`
        heights ahead (we demonstrably missed commits) or when a round is
        stuck past its timeout.  The peer answers with the committed blocks
        we lack; a peer at our own height re-sends its round state instead.
        Requests rotate over the validator set — one peer per attempt, like
        :meth:`CometBFTNetwork.recover_node`'s single-peer sync — so a
        straggler costs one chain transfer, not ``n - 1`` redundant ones; a
        crashed or equally-behind peer is simply skipped next attempt.
        """
        if not self._peer_validators:
            return
        now = self.sim.now
        window = self.config.block_interval * _ROUND_TIMEOUT_FACTOR
        if now - self._last_catchup_request < window:
            return
        self._last_catchup_request = now
        peer = self._peer_validators[
            self._catchup_peer_index % len(self._peer_validators)]
        self._catchup_peer_index += 1
        self.send(peer, "catchup_request", self.height, size_bytes=_VOTE_SIZE)

    def _on_catchup_request(self, message: Message) -> None:
        peer_height: int = message.payload
        blocks = tuple(self.committed_blocks[peer_height - 1:])
        if blocks:
            size = sum(tx.size_bytes for block in blocks
                       for tx in block.transactions)
            self.send(message.sender, "catchup_response", blocks,
                      size_bytes=size)
            return
        if peer_height == self.height:
            # Same height: the peer is missing round traffic, not blocks —
            # re-send our proposal and votes for the current round to it.
            self._regossip_round(to=message.sender)

    def _on_catchup_response(self, message: Message) -> None:
        blocks = [block for block in message.payload
                  if block.height >= self.height]
        if blocks:
            self.catch_up(blocks)

    def _regossip_round(self, to: str | None = None) -> None:
        """Re-send this node's proposal/votes for the current round.

        Receivers record votes into sets and proposals into a keyed map, so
        re-delivery is idempotent; ``to`` narrows the fan-out to one peer
        (catch-up replies), the default re-broadcasts to every validator.
        """
        state = self.state
        proposal = state.proposal
        if proposal is not None:
            if to is None:
                self._broadcast_validators("proposal", proposal,
                                           size_bytes=proposal.size_bytes)
            else:
                self.send(to, "proposal", proposal,
                          size_bytes=proposal.size_bytes)
        for (vote_round, vote_type, block_id), voters in state.votes.items():
            if vote_round != state.round or self.name not in voters:
                continue
            vote = Vote(height=self.height, round=vote_round, voter=self.name,
                        vote_type=vote_type, block_id=block_id)
            if to is None:
                self._broadcast_validators(vote_type.value, vote,
                                           size_bytes=_VOTE_SIZE)
            else:
                self.send(to, vote_type.value, vote, size_bytes=_VOTE_SIZE)

    def _round_is_dead(self) -> bool:
        """True when the current round provably cannot commit any block.

        Every validator precommits at most once per round, so once the
        precommits we have heard plus every still-unheard validator cannot
        push any block over the quorum, the round is decided-dead and
        advancing is safe — unlike advancing on a merely *mixed* quorum,
        which could race a block quorum still in flight and let a second
        block commit at the same height elsewhere (a fork).
        """
        state = self.state
        quorum = self.validators.quorum_at(self.height)
        heard = state.round_voters(state.round, VoteType.PRECOMMIT)
        if heard < quorum:
            return False
        unheard = len(self.validators.names_at(self.height)) - heard
        for (vote_round, kind, block_id), voters in state.votes.items():
            if (vote_round == state.round and kind == VoteType.PRECOMMIT
                    and block_id != NIL_BLOCK
                    and len(voters) + unheard >= quorum):
                return False
        return True


class CometBFTNetwork:
    """Builds and manages the full validator deployment."""

    def __init__(self, sim: Simulator, network: Network, n_validators: int,
                 config: LedgerConfig | None = None,
                 name_prefix: str = "cometbft") -> None:
        if n_validators < 1:
            raise ConsensusError("need at least one validator")
        self.sim = sim
        self.network = network
        self.config = config if config is not None else LedgerConfig()
        self.name_prefix = name_prefix
        names = [f"{name_prefix}-{i}" for i in range(n_validators)]
        self.validators = ValidatorSet(names)
        self.nodes: dict[str, CometBFTNode] = {}
        self._next_index = n_validators
        for name in names:
            node = CometBFTNode(name, sim, self.validators, self.config)
            network.register(node)
            self.nodes[name] = node

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def node_list(self) -> list[CometBFTNode]:
        return [self.nodes[name] for name in self.validators.names
                if name in self.nodes]

    # -- dynamic membership -----------------------------------------------------

    def add_validator(self, name: str | None = None) -> CometBFTNode:
        """Admit a new validator at the next block boundary (+2 delay).

        The node is built, registered on the network, block-synced from the
        best live peer (CometBFT's blocksync as an instantaneous transfer),
        and starts following consensus immediately — but its votes only count
        from its activation height on.
        """
        if name is None:
            name = f"{self.name_prefix}-{self._next_index}"
        self._next_index += 1
        effective = max(1, self.min_committed_height() + 2)
        self.validators.add_validator(name, effective)
        node = CometBFTNode(name, self.sim, self.validators, self.config)
        self.network.register(node)
        self.nodes[name] = node
        best: CometBFTNode | None = None
        for peer in self.node_list():
            if peer is node or peer.crashed:
                continue
            if best is None or peer.height > best.height:
                best = peer
        if best is not None and best.committed_blocks:
            node.catch_up(list(best.committed_blocks))
        else:
            node.start()
        return node

    def remove_validator(self, name: str) -> int:
        """Schedule ``name``'s departure from the set (two-block delay).

        The node keeps validating until the change activates, then follows
        the chain passively; :meth:`retire_node` tears it down for good.
        Returns the activation height.
        """
        if name not in self.nodes:
            raise ConsensusError(f"unknown validator {name!r}")
        effective = max(1, self.min_committed_height() + 2)
        self.validators.remove_validator(name, effective)
        self.nodes[name].inactive_from_height = effective
        return effective

    def retire_node(self, name: str) -> None:
        """Tear a removed (or never-active) validator down for good."""
        try:
            node = self.nodes.pop(name)
        except KeyError:
            raise ConsensusError(f"unknown validator {name!r}") from None
        node._round_timer.cancel()
        node._propose_timer.cancel()
        node._admit_gossip()  # what arrives from here on is lost
        self.network.unregister(name)

    def crash_node(self, name: str) -> None:
        """Crash-fault one validator (used by the fault injector)."""
        try:
            self.nodes[name].crash()
        except KeyError:
            raise ConsensusError(f"unknown validator {name!r}") from None

    def recover_node(self, name: str) -> None:
        """Recover a crashed validator, block-syncing from the best live peer.

        The recovering node adopts the longest chain held by any live
        validator (CometBFT's blocksync, collapsed to an instantaneous state
        transfer) before rejoining consensus; with no live peer it resumes
        from its own last committed height.
        """
        try:
            node = self.nodes[name]
        except KeyError:
            raise ConsensusError(f"unknown validator {name!r}") from None
        if not node.crashed:
            return
        best: CometBFTNode | None = None
        for peer in self.node_list():
            if peer is node or peer.crashed:
                continue
            if best is None or peer.height > best.height:
                best = peer
        node.recover()
        if best is not None:
            node.catch_up([block for block in best.committed_blocks
                           if block.height >= node.height])

    def min_committed_height(self) -> int:
        """Highest block height committed by every live current-set member.

        Removed-but-not-retired validators follow the chain passively (their
        peers no longer gossip to them), so they are excluded — a stalled
        leaver must not freeze the cluster's height.
        """
        live = [node for name, node in self.nodes.items()
                if not node.crashed and name in self.validators]
        if not live:
            return 0
        return min(len(n.committed_blocks) for n in live)
