"""Shared machinery of the three Setchain server algorithms.

A :class:`BaseSetchainServer` is simultaneously:

* a :class:`~repro.net.node.NetworkNode` (so Hashchain servers can exchange
  ``Request_batch`` traffic directly), and
* an ABCI :class:`~repro.ledger.abci.Application` receiving ``FinalizeBlock``
  callbacks from its co-located ledger node — the paper's ``new_block(B)``.

Block processing runs through a *serial pipeline* with modelled service
times (per-transaction overhead plus per-element validation cost for foreign
batches).  This is what turns the paper's observed processing bottlenecks —
Compresschain's decompression/validation and Hashchain's hash-reversal — into
measurable backlog in the simulation instead of instantaneous handlers.

The pipeline is a queue of *blocks* and a cursor into the head block; one
step handles one transaction or, where the algorithm can, a whole run of
them (:meth:`BaseSetchainServer._handle_txs`), then one continuation.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from math import inf, nextafter
from typing import TYPE_CHECKING, Sequence

from ..config import SetchainConfig
from ..crypto.hashing import hash_epoch
from ..crypto.keys import KeyPair
from ..crypto.signatures import SignatureScheme
from ..errors import SetchainError
from ..ledger.abci import Application, LedgerInterface
from ..ledger.types import Block, Transaction, new_transaction
from ..net.node import NetworkNode
from ..sim.scheduler import Simulator
from ..workload.elements import Element
from .proofs import create_epoch_proof
from .types import EpochProof, SetchainView, epoch_proof_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.metrics import MetricsCollector
    from .byzantine import ByzantineBehaviour


class BaseSetchainServer(NetworkNode, Application):
    """State and behaviour common to Vanilla, Compresschain, and Hashchain."""

    #: Human-readable algorithm name, overridden by subclasses.
    algorithm = "base"

    def __init__(self, name: str, sim: Simulator, config: SetchainConfig,
                 scheme: SignatureScheme, keypair: KeyPair,
                 metrics: "MetricsCollector | None" = None) -> None:
        NetworkNode.__init__(self, name, sim)
        if keypair.owner != name:
            raise SetchainError("server keypair must be issued to the server itself")
        self.config = config
        self.scheme = scheme
        self.keypair = keypair
        self.metrics = metrics
        # Setchain state (paper §2): the_set, history, epoch, proofs.
        self._the_set: dict[int, Element] = {}
        self._history: dict[int, frozenset[Element]] = {}
        self._epoch = 0
        self._proofs: set[EpochProof] = set()
        #: ``element id -> epoch number`` of the epoched ids: the group's
        #: shared index (``scheme.epoch_lineages``) while every epoch this
        #: server created is the group's record at its number, a private
        #: copy from the first one that is not (``_own_index``).  The shared
        #: index may run ahead of this server: an id is epoched here iff its
        #: number is at most ``_epoch``.  Every epoched id is in ``_the_set``.
        self._epoch_of: dict[int, int] = {}
        self._own_index = False
        #: Cache of this server's own epoch hashes, so incoming proofs can be
        #: checked against the epoch content without re-hashing the epoch for
        #: every proof (the dominant cost at high rates).
        self._epoch_hashes: dict[int, str] = {}
        # Per-epoch distinct proof signers, for the f+1 commit rule.
        self._proof_signers: dict[int, set[str]] = {}
        self._committed_epochs: set[int] = set()
        #: Proofs for epochs this server has not created yet.  Under faults,
        #: content recovery can lag the ledger, so a peer's proof may arrive
        #: before the local epoch exists; buffered proofs are re-absorbed
        #: after each epoch creation.  Never populated in fault-free runs.
        self._future_proofs: set[EpochProof] = set()
        # Ledger hookup.
        self._ledger: LedgerInterface | None = None
        # Serial block-processing pipeline: finalized blocks not yet fully
        # handled, each with the transactions that are this server's to
        # handle (``None``: a quorum boundary riding ahead of the block), and
        # the index in the head block of the next transaction to start.
        self._blocks: deque[tuple[Block, Sequence[Transaction] | None]] = deque()
        self._cursor = self._backlog = 0
        self._busy = False
        # Pipeline generation: scheduled continuations carry the generation
        # they belong to and die if a crash has bumped it since — a crash
        # cannot cancel the already-queued sim.call_in continuation, and a
        # stale one resuming after recovery would run a second concurrent
        # chain through the strictly-serial pipeline.
        self._pipeline_run = 0
        # A stopped clock shows every instant up to and including ``now``.
        sim.on_pause.append(lambda: self._settle(nextafter(sim.now, inf)))
        # Crash-recovery: blocks the co-located ledger node finalised while
        # this server was down, replayed in order on recovery (the consensus
        # engine persists the chain; the application replays it — ABCI's
        # replay-from-last-commit, collapsed to the crash window).
        self._missed_blocks: list[Block] = []
        # Observability counters.
        self.rejected_elements = 0
        self.duplicate_adds = 0
        self.invalid_proofs = 0
        self.blocks_processed = 0
        #: Client adds refused because the server was crash-faulted.
        self.crashed_rejects = 0
        #: Active Byzantine behaviour strategy; ``None`` means correct.  The
        #: hot paths only pay an attribute check, so fault-free runs are
        #: untouched (goldens stay byte-identical).
        self._byz: "ByzantineBehaviour | None" = None
        #: Whether this server *ever* ran a Byzantine behaviour.  A reverted
        #: server is still a faulty process in the paper's model (it may hold
        #: silently dropped elements in its the_set forever), so property
        #: checks exclude it for the rest of the run.
        self.ever_byzantine = False
        #: Per-behaviour attribution counters (withheld requests, bogus
        #: hashes, ...), mirrored into the metrics collector for the
        #: resilience report.
        self.byzantine_counters: dict[str, int] = {}
        #: Request_batch messages a withholding behaviour buffered and could
        #: not serve at detach time because the server was crash-faulted;
        #: replayed by :meth:`_on_recover`.
        self._deferred_request_replays: list = []
        # Dynamic membership (None in static deployments — every check below
        # is a flag test, so membership-free runs stay byte-identical).
        self._membership = None  # type: ignore[assignment]
        # Shard tenancy (both None in unsharded deployments: the group suffix
        # and the finalize_block origin filter are single flag tests, so
        # unsharded runs stay byte-identical).  ``shard_peers`` is the name
        # set of this server's own shard (itself included) — same-algorithm
        # tenants over one shared ledger produce indistinguishable payloads,
        # so isolation needs the *origin* of a transaction, not its type.
        self.shard_index: int | None = None
        self.shard_peers: frozenset[str] | None = None
        #: Height of the last block this server finalized; keys the current
        #: quorum when membership changes mid-run.
        self._last_seen_height = 0
        #: True while a joined server replays the chain and catches up; it
        #: does not publish proofs or hash-batches until caught up.
        self.bootstrapping = False
        #: True while a leaving server flushes its pipeline before retiring.
        self.draining = False
        #: True once the server has retired from the cluster for good.
        self.departed = False
        #: Client adds refused because the server was draining or departed.
        self.drained_rejects = 0
        #: Simulated time the server retired (``None`` while a member).
        self.retired_at: float | None = None
        #: Simulated time this server first observed an f+1 epoch commit
        #: (drives the join-to-first-commit metric for joined servers).
        self.first_commit_at: float | None = None

    # -- wiring ----------------------------------------------------------------

    def connect_ledger(self, ledger: LedgerInterface) -> None:
        """Attach the co-located ledger node and subscribe for block callbacks."""
        if self._ledger is not None:
            raise SetchainError(f"server {self.name!r} is already connected to a ledger")
        self._ledger = ledger
        ledger.subscribe(self)

    @property
    def ledger(self) -> LedgerInterface:
        if self._ledger is None:
            raise SetchainError(f"server {self.name!r} has no ledger attached")
        return self._ledger

    def start(self) -> None:
        """Hook for subclasses that need startup work (default: none)."""

    # -- dynamic membership --------------------------------------------------------

    def attach_membership(self, log) -> None:
        """Track quorum changes through a :class:`~repro.core.membership.Membership`."""
        self._membership = log

    @property
    def current_quorum(self) -> int:
        """The f+1 quorum governing the last block this server processed."""
        if self._membership is None:
            return self.config.quorum
        return self._membership.quorum_at_height(self._last_seen_height)

    def _quorum_at(self, height: int) -> int:
        """The quorum in force at ledger ``height``."""
        if self._membership is None:
            return self.config.quorum
        return self._membership.quorum_at_height(height)

    def begin_bootstrap(self) -> None:
        """Enter catch-up mode: process blocks but publish nothing."""
        self.bootstrapping = True

    def end_bootstrap(self) -> None:
        """Caught up: start publishing proofs and counting toward quorums."""
        self.bootstrapping = False

    def begin_drain(self) -> None:
        """Stop accepting elements; keep processing blocks until retired."""
        self.draining = True

    def retire(self) -> None:
        """Leave the cluster cleanly (distinct from a crash: no replay later)."""
        self.departed = True
        self.draining = False
        self.retired_at = self.sim.now
        self._halt_pipeline()
        self._missed_blocks.clear()

    @property
    def accepts_adds(self) -> bool:
        """Can this server take a brand-new element right now?  The one
        predicate the shard router, service ingress and ``/healthz`` ask."""
        return not (self.crashed or self.draining or self.departed
                    or self.bootstrapping)

    # -- Byzantine behaviour strategies -------------------------------------------

    @property
    def is_byzantine(self) -> bool:
        """Whether a Byzantine behaviour strategy is currently attached."""
        return self._byz is not None

    @property
    def byzantine_behaviour(self) -> str | None:
        """Name of the active behaviour (``None`` when correct)."""
        return self._byz.name if self._byz is not None else None

    def become_byzantine(self, behaviour: "ByzantineBehaviour | str") -> None:
        """Adopt a Byzantine behaviour strategy, mid-run or at construction.

        ``behaviour`` is an instance or a key of ``BEHAVIOURS`` (a fresh
        instance is created — behaviour state is private to one server).
        Switching behaviours detaches the previous one first, running its
        detach side effects (e.g. ``withhold`` serving its buffered
        requests).
        """
        from .byzantine import resolve_behaviour
        resolved = resolve_behaviour(behaviour)
        if self._byz is not None:
            self.become_correct()
        self._byz = resolved
        self.ever_byzantine = True
        resolved.on_attach(self)

    def become_correct(self) -> None:
        """Shed the active Byzantine behaviour (idempotent).

        The behaviour's ``on_detach`` runs first — this is where ``withhold``
        answers its buffered ``Request_batch`` messages so consolidation of
        the withheld hashes resumes.
        """
        behaviour, self._byz = self._byz, None
        if behaviour is not None:
            behaviour.on_detach(self)

    def _count_byzantine(self, counter: str) -> None:
        """Attribute one Byzantine action to this server (and the metrics)."""
        self.byzantine_counters[counter] = (
            self.byzantine_counters.get(counter, 0) + 1)
        if self.metrics is not None:
            self.metrics.record_byzantine(self.name, counter, self.sim.now)

    def _byz_outgoing_proof(self, proof: EpochProof) -> EpochProof | None:
        """Filter an epoch-proof this server is about to publish."""
        if self._byz is None:
            return proof
        return self._byz.outgoing_proof(self, proof)

    def algorithm_group(self) -> str:
        """Interoperability group key for heterogeneous deployments.

        Servers in the same group speak the same ledger wire format and are
        expected to agree on epochs (Properties 3 and 6 are checked within a
        group).  By default every algorithm is its own group — even the light
        variants, whose out-of-band stores do not serve the full variants'
        batches.  In a sharded deployment each shard is its own tenant, so
        the shard index joins the key (``hashchain#shard2``) and all the
        group-scoped machinery — property checks, peer selection, state
        transfer — becomes shard-scoped for free.
        """
        if self.shard_index is not None:
            from ..shard.router import shard_group
            return shard_group(self.algorithm, self.shard_index)
        return self.algorithm

    # -- Setchain API (paper §2) -------------------------------------------------

    def add(self, element: Element) -> bool:
        """``S.add_v(e)``: accept a valid, new element into ``the_set``.

        Returns ``True`` if the element was accepted.  Invalid elements are
        rejected (the pseudocode's ``assert valid_element(e)``); duplicates are
        ignored.  A crash-faulted server refuses adds entirely (the client's
        request fails against a downed host).
        """
        return self.add_many([element]) == 1

    def add_many(self, elements: list[Element]) -> int:
        """Batched ``S.add_v``: one pass over a same-tick injection burst.

        Returns the number of accepted elements.  Outcome per element — the
        accept/reject verdict, ``the_set`` content, collector flush
        boundaries, ledger appends, metrics — is exactly that of calling
        :meth:`add` element by element; only the per-call dispatch is
        amortised.  Byzantine servers take their elements one at a time so
        behaviour hooks observe every element individually.
        """
        if self.crashed:
            self.crashed_rejects += len(elements)
            return 0
        if self.draining or self.departed:
            self.drained_rejects += len(elements)
            return 0
        byz = self._byz
        if byz is not None and len(elements) > 1:
            add = self.add
            return sum(1 for element in elements if add(element))
        the_set = self._the_set
        accepted: list[Element] = []
        keep = accepted.append
        rejected = 0
        duplicates = 0
        for element in elements:
            if not (isinstance(element, Element) and element.valid):
                rejected += 1
                continue
            element_id = element.element_id
            if element_id in the_set:
                duplicates += 1
                continue
            the_set[element_id] = element
            keep(element)
        self.rejected_elements += rejected
        self.duplicate_adds += duplicates
        if accepted:
            if self.metrics is not None:
                self.metrics.record_added_many(accepted, self.name, self.sim.now)
            if byz is None or not byz.on_after_add(self, accepted[0]):
                self._after_add_many(accepted)
        return len(accepted)

    def get(self) -> SetchainView:
        """``S.get_v()``: snapshot of ``(the_set, history, epoch, proofs)``."""
        return SetchainView.snapshot(self._the_set, self._history, self._epoch,
                                     self._proofs)

    # -- state helpers shared by the algorithms -----------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def epoch_elements(self, epoch_number: int) -> frozenset[Element] | None:
        return self._history.get(epoch_number)

    def committed_epoch_numbers(self) -> set[int]:
        """Epochs this server has seen reach f+1 distinct proofs."""
        return set(self._committed_epochs)

    def _record_new_epoch(self, ids: tuple[int, ...], elements: tuple[Element, ...],
                          block: Block) -> EpochProof:
        """Create epoch ``self._epoch + 1`` from ``elements`` and their
        ``ids``, both in arrival order, and sign its proof.

        The first server to create an epoch freezes and hashes it; every
        server that hands in the same ids at the same number and equal
        elements shares that record (``scheme.epoch_records``), then signs.
        Unequal elements under those ids get a record of their own, unkept.
        """
        self._epoch = number = self._epoch + 1
        records = self.scheme.epoch_records
        shared = records.get((number, ids))
        if shared is None or not (shared[0] is elements or shared[0] == elements):
            # Arrival order hashes as the set does (``hash_epoch`` sorts the
            # encodings), and timsort is cheap on nearly sorted input.
            shared = (elements, frozenset(elements), hash_epoch(number, elements), ids)
            records.setdefault((number, ids), shared)  # a first record stays
        _, content, epoch_hash, ids = shared
        self._history[number] = content
        self._index_epoch(number, shared, ids)
        if self.metrics is not None:
            self.metrics.record_epoch_assigned_many(ids, number, self.sim.now,
                                                    self.name)
        proof = create_epoch_proof(self.scheme, self.keypair, number, content,
                                   epoch_hash)
        self._epoch_hashes[number] = epoch_hash
        if self._future_proofs:
            ready = [p for p in self._future_proofs if p.epoch_number <= self._epoch]
            if ready:
                self._future_proofs.difference_update(ready)
                self._absorb_proofs(ready)
        return proof

    def _index_epoch(self, number: int, record: tuple, ids: tuple[int, ...]) -> None:
        """Give ``ids`` epoch ``number`` in this server's index.

        The group's first server to reach a number appends its record to the
        group's lineage and indexes its ids there; a server whose epoch is
        that very record has nothing to add.  Any other record makes the
        server copy the shared entries below ``number`` into an index of its
        own, once, and extend only that from then on.
        """
        epoch_of = self._epoch_of
        if not self._own_index:
            records, epoch_of = self.scheme.epoch_lineages.setdefault(
                self.algorithm_group(), ([], {}))
            self._epoch_of = epoch_of
            if len(records) < number:
                records.append(record)
            elif records[number - 1] is record:
                return
            else:
                self._own_index = True
                self._epoch_of = epoch_of = {
                    element_id: epoch for element_id, epoch in epoch_of.items()
                    if epoch < number}
        epoch_of.update(zip(ids, repeat(number)))

    def _absorb_proofs(self, candidates: list[EpochProof]) -> None:
        """Validate and store epoch-proofs, tracking the f+1 commit rule.

        Proofs for epochs beyond the locally created ones are buffered (the
        epoch may still be filling in — see ``_future_proofs``); proofs that
        mismatch an existing epoch are counted invalid and dropped.

        Signature checks for the whole batch go through
        ``scheme.verify_many`` — one cache pass, one backend batch — and every
        per-proof outcome (invalid counters, buffering, signer sets, commit
        points) is identical to checking the proofs one at a time: nothing a
        proof writes in this method changes how a later proof in the same
        batch routes through pass 1, and the quorum cannot move mid-call.
        """
        history = self._history
        epoch_hashes = self._epoch_hashes
        checkable: list[tuple[EpochProof, frozenset[Element]]] = []
        triples: list[tuple[str, str, bytes]] = []
        # A proof that reaches the signature check has epoch_hash equal to the
        # locally cached hash, so the signed payload is a function of the
        # epoch number alone — build it once per epoch, not once per signer.
        payloads: dict[int, str] = {}
        known = self._proofs
        for proof in candidates:
            if proof in known:
                # Already accepted: its epoch exists, its hash matches the
                # cached one, its signature verifies (deterministically), and
                # pass 3 would dedup it — skipping here changes no counter,
                # no buffer, and no commit.  Every server re-absorbs every
                # ledger batch, so accepted proofs dominate the candidates.
                continue
            number = proof.epoch_number
            elements = history.get(number)
            if elements is None:
                if number > self._epoch:
                    self._future_proofs.add(proof)
                else:
                    self.invalid_proofs += 1
                continue
            expected = epoch_hashes.get(number)
            if expected is None or expected != proof.epoch_hash:
                self.invalid_proofs += 1
                continue
            payload = payloads.get(number)
            if payload is None:
                payloads[number] = payload = epoch_proof_payload(number, expected)
            checkable.append((proof, elements))
            triples.append((proof.signer, payload, proof.signature))
        if not checkable:
            return
        verdicts = self.scheme.verify_many(triples)
        # Apply in input order: commit observation order feeds the metrics.
        quorum = self.current_quorum
        proofs = self._proofs
        signer_sets = self._proof_signers
        committed = self._committed_epochs
        for (proof, elements), ok in zip(checkable, verdicts):
            if not ok:
                self.invalid_proofs += 1
                continue
            if proof in proofs:
                continue
            proofs.add(proof)
            signers = signer_sets.setdefault(proof.epoch_number, set())
            signers.add(proof.signer)
            if (len(signers) >= quorum
                    and proof.epoch_number not in committed):
                self._commit_epoch(proof.epoch_number, elements)

    def _commit_epoch(self, epoch_number: int, elements: frozenset[Element]) -> None:
        """This server has seen f+1 distinct proofs of the epoch."""
        self._committed_epochs.add(epoch_number)
        if self.first_commit_at is None:
            self.first_commit_at = self.sim.now
        if self.metrics is not None:
            self.metrics.record_epoch_committed(epoch_number, elements,
                                                self.sim.now, observer=self.name)

    def _on_quorum_change(self, quorum: int, block: Block) -> None:
        """React to a membership epoch boundary changing the f+1 quorum.

        A *decreased* quorum can make previously sub-threshold epochs commit
        retroactively: re-evaluate the signer counts already on hand.
        Subclasses extend this (Hashchain re-checks its consolidation
        trigger).  Never called in membership-free runs.
        """
        for epoch_number, signers in self._proof_signers.items():
            if (len(signers) >= quorum
                    and epoch_number not in self._committed_epochs
                    and epoch_number in self._history):
                self._commit_epoch(epoch_number, self._history[epoch_number])

    def _append_to_ledger(self, payload: object, size_bytes: int) -> Transaction:
        """``L.append`` with bookkeeping of the originating server."""
        tx = new_transaction(payload, size_bytes, origin=self.name,
                             created_at=self.sim.now)
        self.ledger.append(tx)
        return tx

    # -- ABCI / block-processing pipeline ------------------------------------------

    def check_tx(self, tx: Transaction) -> bool:
        """Mempool admission: accept anything shaped like Setchain traffic."""
        return True

    def finalize_block(self, block: Block) -> None:
        """Enqueue the block's transactions for serial processing.

        While crash-faulted, blocks are buffered instead: the co-located
        ledger node keeps the (durable) chain, and :meth:`recover` replays the
        missed blocks through this same path, driving the algorithms' normal
        re-synchronisation (Hashchain's ``Request_batch`` hash reversal,
        Compresschain's decompression) end to end.
        """
        if self.departed:
            return
        if self.crashed:
            self._missed_blocks.append(block)
            return
        if self._membership is not None:
            previous = self._membership.quorum_at_height(self._last_seen_height)
            self._last_seen_height = max(self._last_seen_height, block.height)
            quorum = self._membership.quorum_at_height(self._last_seen_height)
            if quorum != previous:
                # Queued, not applied here: the retro scans in
                # _on_quorum_change must observe the same processed-
                # transaction prefix on every server, so the boundary rides
                # the serial pipeline ahead of this block's transactions
                # instead of firing while the pipeline may still lag.
                self._blocks.append((block, None))
        self.blocks_processed += 1
        peers = self.shard_peers
        # Shard isolation: tenants sharing the ledger run the *same*
        # algorithm, so payload types cannot discriminate — only transactions
        # originated by this server's own shard are ours.  Crash recovery
        # replays blocks through this same path, so the filter survives
        # replay unchanged.
        txs = block.transactions if peers is None else [
            tx for tx in block.transactions if tx.origin in peers]
        self._blocks.append((block, txs))
        self._backlog += len(txs)
        if not self._busy:
            self._busy = True
            self._finish_at(self.sim.now)

    @property
    def backlog(self) -> int:
        """Finalized transactions whose pipeline step has not begun (a stressed
        server accumulates them).  The step in flight, one transaction or a
        whole run, has left the count: only its service time remains."""
        return self._backlog

    @property
    def pipeline_idle(self) -> bool:
        """No block queued and no step in flight, awaited reply included."""
        return not self._busy

    def _pipeline_step(self, generation: int) -> None:
        """One step: a quorum boundary, a run of transactions, or a block end."""
        if generation != self._pipeline_run:
            return  # continuation of a pipeline that died in a crash
        self._settle(inf)
        if not self._blocks:
            self._busy = False
            return
        block, txs = self._blocks[0]
        if txs is not None and self._cursor < len(txs):
            handled = self._handle_txs(block, txs, self._cursor)
            self._cursor += handled
            self._backlog -= handled
            return
        self._blocks.popleft()
        self._cursor = 0
        if txs is None:
            self._on_quorum_change(self._quorum_at(block.height), block)
        else:
            byz = self._byz
            if byz is None or not byz.on_block_end(self, block):
                self._handle_block_end(block)
        self._finish_at(self.sim.now)

    def _finish_after(self, duration: float) -> None:
        """Mark the step in flight done after ``duration`` seconds of service time."""
        self._finish_at(self.sim.now + duration)

    def _finish_at(self, time: float) -> None:
        """Mark the step in flight done at the absolute instant ``time``."""
        generation = self._pipeline_run
        self.sim.call_at(time, lambda: self._pipeline_step(generation))

    def _settle(self, before: float) -> None:
        """Publish what the run in flight owes for instants ``< before``: a
        run knows its whole schedule when it begins, but only instants that
        have passed may show outside the server — ``inf`` at its
        continuation, ``now`` when a crash or retirement cuts it, just past
        ``now`` when the clock stops (``Simulator.on_pause``)."""

    def _halt_pipeline(self) -> list[Block]:
        """Drop the pipeline (crash, retirement); returns the blocks it held."""
        self._settle(self.sim.now)
        interrupted = [block for block, txs in self._blocks if txs is not None]
        self._blocks.clear()
        self._cursor = self._backlog = 0
        self._busy = False
        self._pipeline_run += 1  # orphan any queued continuation
        return interrupted

    # -- crash faults ---------------------------------------------------------------

    def _on_crash(self) -> None:
        """Volatile state dies with the process: the in-flight block pipeline.

        Blocks with work still queued were delivered but not fully processed;
        a real process replays them from the durable chain after restarting,
        so they join the missed-block replay (per-transaction handler state
        is idempotent, making re-processing of already-handled transactions
        safe).  Subclasses extend this for their own in-memory state
        (collectors, pending hash-reversal requests).  Durable state —
        ``the_set``, history, the batch store (disk in the paper's
        deployment) — survives.
        """
        interrupted = self._halt_pipeline()
        self._missed_blocks.extend(interrupted)
        # Interrupted blocks were counted when first enqueued and will be
        # counted again when the recovery replay re-finalizes them.
        self.blocks_processed -= len(interrupted)

    def _on_recover(self) -> None:
        """Replay every block missed while down, in commit order."""
        missed, self._missed_blocks = self._missed_blocks, []
        for block in missed:
            self.finalize_block(block)
        if self._deferred_request_replays:
            # Request_batch replies a withholding behaviour owed at detach
            # time while this server was down: serve them now.  Dispatching
            # through the handler keeps the semantics exact — if a *new*
            # behaviour intercepts Request_batch, it sees these too.
            deferred, self._deferred_request_replays = (
                self._deferred_request_replays, [])
            handler = self._handlers.get("request_batch")
            if handler is not None:
                for message in deferred:
                    handler(message)

    # -- hooks implemented by the concrete algorithms --------------------------------

    def _after_add(self, element: Element) -> None:
        """The run of one of :meth:`_after_add_many`."""
        self._after_add_many([element])

    def _after_add_many(self, elements: list[Element]) -> None:
        """What to do with freshly added elements (append vs collect)."""
        raise NotImplementedError

    def _handle_txs(self, block: Block, txs: Sequence[Transaction],
                    start: int) -> int:
        """Handle ``txs[start]`` plus as many successors as form a run with
        it; returns how many (at least one).

        A run holds only transactions that touch nothing outside the server,
        ends in one :meth:`_finish_at` at the instant the per-transaction
        schedule would have finished its last member (``t = t + step`` per
        member, the very additions ``now + delay`` made), and leaves what it
        owes the outside to :meth:`_settle`.  Default: the run of one.
        """
        self._handle_tx(block, txs[start])
        return 1

    def _handle_tx(self, block: Block, tx: Transaction) -> None:
        """Process one ledger transaction; must call :meth:`_finish_after` exactly once."""
        raise NotImplementedError

    def _handle_block_end(self, block: Block) -> None:
        """Called after the last transaction of a block (synchronous, zero cost)."""
