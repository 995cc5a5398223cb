"""Algorithm Hashchain (paper §3) — the paper's primary contribution.

A ready collector batch is hashed; only the fixed-size, signed *hash-batch*
``⟨h, s, v⟩`` is appended to the ledger, so ledger bandwidth per epoch shrinks
from hundreds of kilobytes to ``n × 139`` bytes.  The price is hash reversal:
a server that sees a hash it cannot resolve must fetch the batch contents from
the hash-batch's signer (``Request_batch``), and an epoch only *consolidates*
once hash-batches for the same hash from ``f + 1`` distinct signers appear in
the ledger — guaranteeing at least one correct server can serve the contents.

The "light" variant reproduces the paper's Fig. 2 ablation: the hash-reversal
service and hash-batch validation are removed and all servers are assumed
correct, so batch contents are shared out-of-band at zero cost.  This exposes
hash reversal as the ~20k el/s bottleneck of the full algorithm.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from itertools import repeat
from typing import Sequence

from ..config import HASH_BATCH_SIZE, SetchainConfig
from ..crypto.hashing import hash_batch
from ..crypto.keys import KeyPair
from ..crypto.signatures import SignatureScheme
from ..errors import SetchainError
from ..ledger.types import Block, Transaction
from ..net.message import Message
from ..sim.process import Timer
from ..sim.scheduler import Simulator
from ..workload.elements import Element
from .base import BaseSetchainServer
from .batch_store import BatchRecord, BatchStore, batch_record
from .collector import Collector
from .types import EpochProof, HashBatch, hash_batch_payload
from .validation import batch_matches_hash, valid_hash_batch

#: What the fill reads off an epoch index for an id no epoch holds: a number
#: past every epoch.
_NEVER = sys.maxsize

#: Wire size of a Request_batch query (a hash plus framing).
_REQUEST_SIZE = 80

#: Cap on background Request_batch retries for hashes that have *not* reached
#: their consolidation trigger (e.g. a Byzantine signer's withheld batch) —
#: nothing depends on them, so the retries eventually stop.  Triggered hashes
#: retry indefinitely instead: the f+1 signer rule guarantees a correct signer
#: exists, and the fill queue blocks on the contents (see _try_fill_epochs).
_MAX_REQUEST_RETRIES = 10

#: Retry backoff caps at ``2 ** _MAX_BACKOFF_EXP × batch_request_timeout``
#: (64× by default), so indefinite retries stay a trickle of events.
_MAX_BACKOFF_EXP = 6


class HashchainServer(BaseSetchainServer):
    """One Hashchain Setchain server."""

    algorithm = "hashchain"

    def __init__(self, name: str, sim: Simulator, config: SetchainConfig,
                 scheme: SignatureScheme, keypair: KeyPair, metrics=None,
                 light: bool = False, shared_store: BatchStore | None = None) -> None:
        super().__init__(name, sim, config, scheme, keypair, metrics)
        #: Light mode: no hash-reversal service, no validation cost, contents
        #: shared through ``shared_store`` (all servers assumed correct).
        self.light = light
        self.shared_store = shared_store
        if light and shared_store is None:
            raise SetchainError("light mode requires a shared batch store")
        self.collector = Collector(sim, config.collector_limit,
                                   config.collector_timeout, self._flush_batch)
        self.store = BatchStore()
        #: hash → set of signers whose (signature-valid) hash-batches this
        #: server has seen in the ledger (``hash_to_signers``).  Purely
        #: ledger-derived, so it is identical at every correct server over the
        #: same ledger prefix — the f+1-th distinct signer *triggers*
        #: consolidation, whether or not the contents are locally available.
        self.hash_to_signers: dict[str, set[str]] = {}
        #: Hashes whose batch this server has signed and appended already.
        self._signed_hashes: set[str] = set()
        #: Hashes whose consolidation has been triggered (queued or filled).
        self._consolidated: set[str] = set()
        #: digest → epoch-proofs of the batch still awaiting acceptance.  A
        #: co-signed hash appears in the ledger once per signer, so every
        #: server re-absorbs every batch ~``f+1`` times; the element pass of
        #: a repeat absorb is a provable no-op (``the_set`` only grows and
        #: holds every epoched id, and ``setdefault`` is idempotent), so
        #: repeats replay only the proofs, whose routing depends on the
        #: current epoch — and accepted proofs are dropped from the replay
        #: list as soon as they land in ``_proofs`` (re-processing an
        #: accepted proof touches no counter, buffer, or commit).  Survives
        #: crashes alongside the batch store.
        self._scanned_batches: dict[str, list[EpochProof]] = {}
        #: digest → the shared record of the batch's first scan, consumed by
        #: the epoch fill to build the G-set without re-walking the raw batch.
        self._scanned_elements: dict[str, BatchRecord] = {}
        #: Triggered hashes awaiting their epoch, in ledger trigger order.
        #: Epochs fill strictly head-first: a hash whose contents are still
        #: being recovered blocks later ones, so epoch numbering and contents
        #: converge at every correct server regardless of message faults.
        self._fill_queue: deque[str] = deque()
        #: Trigger block per queued hash (handed to ``_record_new_epoch``).
        self._fill_meta: dict[str, Block] = {}
        # In-flight Request_batch state: only one at a time because block
        # processing is serial (the paper's implementation blocks inside
        # FinalizeBlock the same way).
        self._pending: tuple[Block, Transaction, HashBatch] | None = None
        self._request_timer = Timer(sim, self._on_request_timeout)
        #: Hashes whose Request_batch failed, kept for background retry with
        #: exponential backoff over the hash's known signers — a timeout under
        #: partial synchrony may be a transient partition or a crashed (but
        #: recoverable) peer rather than a Byzantine one, and a triggered hash
        #: carries f+1 signers, at least one of them correct.  The value is a
        #: chain token: scheduled retry callbacks die when it no longer
        #: matches, so a digest can never accumulate parallel retry chains
        #: across resolve → re-fail → re-note (or crash → recover) cycles.
        self._unresolved: dict[str, int] = {}
        self._retry_token = 0
        #: Counters for the hash-reversal analysis.
        self.batch_requests_sent = 0
        self.batch_requests_failed = 0
        self.batch_request_retries = 0
        self.hash_batches_appended = 0
        #: Repeat absorptions answered from the scanned-batch cache (each one
        #: saved a full item re-scan); surfaced by the telemetry report.
        self.scan_cache_hits = 0
        #: What the run in flight owes: the instant of each co-sign repeat
        #: and the signer it adds to which ``hash_to_signers`` set.
        self._run: tuple[list[float], list[tuple[set[str], str]]] = ([], [])
        self.on("request_batch", self._on_request_batch)
        self.on("batch_response", self._on_batch_response)

    # -- add path -------------------------------------------------------------------

    def _after_add_many(self, elements: list[Element]) -> None:
        # §3 Hashchain line 5: add_to_batch(e) — the same flush boundaries
        # as per-element adds, one slice-extend per flush.
        self.collector.add_many(elements)

    def add_to_batch(self, item: object) -> None:
        """``add_to_batch``: used for both elements and this server's epoch-proofs."""
        self.collector.add(item)

    # -- collector flush (lines 12-21) --------------------------------------------------

    def _flush_batch(self, batch: Sequence[object]) -> None:
        byz = self._byz
        if byz is not None and byz.on_flush_batch(self, tuple(batch)):
            return
        items = tuple(batch)
        digest = hash_batch(items)
        # Lines 15-16: remember and register the batch so peers can request it
        # (the store serves this very tuple, whose record every server shares:
        # requesters need not re-hash it, nor absorbers re-scan it).
        self.scheme.batch_records[id(items)] = record = BatchRecord(items, digest)
        self.store.register_local(digest, items)
        if self.shared_store is not None:
            self.shared_store.register_remote(digest, items)
        # Lines 17-19: sign the hash and append the hash-batch to the ledger.
        signature = self.scheme.sign(self.keypair, hash_batch_payload(digest))
        hb = HashBatch(batch_hash=digest, signature=signature, signer=self.name)
        self._signed_hashes.add(digest)
        tx = self._append_to_ledger(hb, HASH_BATCH_SIZE)
        self.hash_batches_appended += 1
        if self.metrics is not None:
            # Every element id, valid or not (the record's, if all are valid).
            element_ids = record.ids
            if len(element_ids) + len(record.proofs) != len(items):
                element_ids = tuple([item.element_id for item in items
                                     if isinstance(item, Element)])
            self.metrics.record_tx_elements([(tx.tx_id, element_ids)])
            self.metrics.record_batch_hash_elements(digest, element_ids)
            self.metrics.record_batch_flush(self.name, len(items), HASH_BATCH_SIZE,
                                            self.sim.now, element_ids, signed=True)

    # -- hash-reversal service (Register_batch / Request_batch) --------------------------

    def _on_request_batch(self, message: Message) -> None:
        """Serve a peer's Request_batch from the local store."""
        byz = self._byz
        if byz is not None and byz.on_request_batch(self, message):
            return
        requested_hash: str = message.payload
        items = self.store.serve(requested_hash)
        size = (batch_record(items, self.scheme.batch_records).size if items
                else _REQUEST_SIZE)
        self.send(message.sender, "batch_response", (requested_hash, items),
                  size_bytes=size)

    def _on_batch_response(self, message: Message) -> None:
        """Handle a Request_batch reply: in-flight wait or background retry."""
        responded_hash, items = message.payload
        valid = items is not None and batch_matches_hash(
            items, responded_hash, self.scheme.batch_records)
        if valid:
            # Opportunistically keep any batch we learn about.
            self.store.register_remote(responded_hash, tuple(items))
        pending = self._pending
        if pending is not None and pending[2].batch_hash == responded_hash:
            # The in-flight wait supersedes any background retry for the hash.
            self._unresolved.pop(responded_hash, None)
            block, _tx, hb = pending
            self._request_timer.cancel()
            self._pending = None
            if not valid:
                # Lines 28-29: unrecoverable (or forged) reply — skip this
                # hash-batch for now; background retries ask other signers.
                self.batch_requests_failed += 1
                if self.metrics is not None:
                    self.metrics.record_hash_reversal(self.name, hb.batch_hash, False,
                                                      self.sim.now)
                self._note_unresolved(hb.batch_hash)
                self._finish_after(self.config.tx_processing_overhead)
                return
            if self.metrics is not None:
                self.metrics.record_hash_reversal(self.name, hb.batch_hash, True,
                                                  self.sim.now)
            # Lines 30-34: register the recovered batch, sign the hash ourselves,
            # and append our own hash-batch to the ledger.
            items = tuple(items)
            self._append_own_hash_batch(hb.batch_hash)
            cost = (self.config.tx_processing_overhead
                    + len(items) * self.config.element_validation_time)
            self._consume_batch(block, hb.batch_hash, items, cost)
            return
        if valid and responded_hash in self._unresolved:
            # A background retry came through (the peer healed/recovered):
            # run the same lines 30-34 recovery, off the block pipeline.
            self._unresolved.pop(responded_hash, None)
            if self.metrics is not None:
                self.metrics.record_hash_reversal(self.name, responded_hash, True,
                                                  self.sim.now)
            self._recover_contents(responded_hash)

    def _on_request_timeout(self) -> None:
        """No answer in time: skip for now, keep retrying in the background.

        The serial block pipeline moves on immediately (the paper's
        implementation blocks inside FinalizeBlock and must not wedge), but
        under partial synchrony a timeout may be a transient partition or a
        crashed-but-recoverable peer rather than a Byzantine one — so the
        hash is remembered and re-requested with exponential backoff, rotating
        over every signer seen in the ledger.  A hash whose signers are all
        genuinely unreachable caps out at :data:`_MAX_REQUEST_RETRIES`.
        """
        pending = self._pending
        if pending is None:
            return
        _block, _tx, hb = pending
        self._pending = None
        self.batch_requests_failed += 1
        if self.metrics is not None:
            self.metrics.record_hash_reversal(self.name, hb.batch_hash, False, self.sim.now)
        self._note_unresolved(hb.batch_hash)
        self._finish_after(self.config.tx_processing_overhead)

    def _note_unresolved(self, digest: str) -> None:
        """Start a background retry chain for ``digest`` (one chain at most)."""
        if digest in self._unresolved:
            return
        self._retry_token += 1
        self._unresolved[digest] = self._retry_token
        self._schedule_retry(digest, 1, self._retry_token)

    def _schedule_retry(self, digest: str, attempt: int, token: int) -> None:
        # Hashes still awaiting their epoch fill (digest in _fill_meta) must
        # never stop retrying — the fill queue head-of-line blocks on them;
        # untriggered hashes cap out (nothing downstream needs their contents).
        if attempt > _MAX_REQUEST_RETRIES and digest not in self._fill_meta:
            if self._unresolved.get(digest) == token:
                del self._unresolved[digest]
            return
        delay = self.config.batch_request_timeout * (2 ** min(attempt, _MAX_BACKOFF_EXP))
        self.sim.call_in(delay, lambda: self._retry_request(digest, attempt, token))

    def _retry_request(self, digest: str, attempt: int, token: int) -> None:
        if self._unresolved.get(digest) != token:
            return  # resolved meanwhile, crash-wiped, or superseded by a new chain
        if self.store.get(digest) is not None:
            # Contents arrived through another path (a co-signer's response
            # registered opportunistically): absorb without re-requesting.
            del self._unresolved[digest]
            self._recover_contents(digest)
            return
        # Rotate over every signer observed in the ledger: a triggered hash
        # has f+1 of them, so at least one is correct and eventually timely.
        signers = [signer
                   for signer in sorted(self.hash_to_signers.get(digest, ()))
                   if signer != self.name]
        if not signers:
            del self._unresolved[digest]
            return
        target = signers[(attempt - 1) % len(signers)]
        self.batch_request_retries += 1
        self.send(target, "request_batch", digest, size_bytes=_REQUEST_SIZE)
        self._schedule_retry(digest, attempt + 1, token)

    def _recover_contents(self, digest: str) -> None:
        """Late content arrival: co-sign, absorb, and fill any unblocked epochs."""
        items = self.store.get(digest)
        if items is None:  # pragma: no cover - callers check first
            return
        self._append_own_hash_batch(digest)
        self._absorb_batch(digest, items)
        self._try_fill_epochs()

    def _append_own_hash_batch(self, digest: str) -> None:
        if digest in self._signed_hashes:
            return
        if self.bootstrapping:
            # A catching-up server replays hashes the cluster consolidated
            # long ago; re-signing them would spam the ledger with stale
            # hash-batches.  Remember them as handled instead (exactly the
            # sqlite restart-resume treatment of already-persisted batches).
            self._signed_hashes.add(digest)
            return
        signature = self.scheme.sign(self.keypair, hash_batch_payload(digest))
        hb = HashBatch(batch_hash=digest, signature=signature, signer=self.name)
        self._signed_hashes.add(digest)
        self._append_to_ledger(hb, HASH_BATCH_SIZE)
        self.hash_batches_appended += 1

    # -- block processing (lines 22-45) ----------------------------------------------------

    def _handle_txs(self, block: Block, txs: Sequence[Transaction],
                    start: int) -> int:
        # A co-signed hash is in the ledger once per signer, so most of a
        # block is hash-batches this server has scanned (hence holds and has
        # co-signed: ``_absorb_batch`` always follows
        # ``_append_own_hash_batch``) with no proof left to replay: all
        # ``_handle_tx`` does for one is note the signer and count a cache
        # hit.  Those are one run, with anything it would skip outright (no
        # hash-batch, forged signature).  First sight, a pending proof and the
        # signer that triggers consolidation end it; and none starts while
        # the fill-queue head could fill under a member — only a head the
        # retry loop is still fetching is safe: ``_recover_contents`` fills.
        queue = self._fill_queue
        safe = not queue or (queue[0] in self._unresolved
                             and self.store.get(queue[0]) is None)
        overhead = self.config.tx_processing_overhead
        quorum = self._quorum_at(block.height)
        times, owed = self._run
        ahead: dict[str, set[str]] = {}
        at, handled = self.sim.now, 0
        for tx in txs[start:] if safe else ():
            payload = tx.payload
            if isinstance(payload, HashBatch):
                digest = payload.batch_hash
                if self._pending_replay(digest) != []:
                    break
                signers = self.hash_to_signers[digest]
                if digest not in self._consolidated:
                    # Untriggered: the set as it will stand after this member.
                    due = ahead.setdefault(digest, set(signers))
                    due.add(payload.signer)
                    if len(due) >= quorum:
                        break
                if self.light or valid_hash_batch(payload, self.scheme):
                    times.append(at)
                    owed.append((signers, payload.signer))
            at += overhead
            handled += 1
        if handled:
            self._finish_at(at)
            return handled
        self._handle_tx(block, txs[start])
        return 1

    def _settle(self, before: float) -> None:
        times, owed = self._run
        done = bisect_left(times, before)
        self.scan_cache_hits += done
        for signers, signer in owed[:done]:
            signers.add(signer)
        del times[:done], owed[:done]

    def _handle_tx(self, block: Block, tx: Transaction) -> None:
        payload = tx.payload
        overhead = self.config.tx_processing_overhead
        if not isinstance(payload, HashBatch):
            self._finish_after(overhead)
            return
        # Line 24: validate the hash-batch signature (skipped in light mode,
        # mirroring the paper's "without validation of hash-batches" ablation).
        if not self.light and not valid_hash_batch(payload, self.scheme):
            self._finish_after(overhead)
            return
        digest = payload.batch_hash
        # Ledger-order signer tracking and the consolidation *trigger*: the
        # f+1-th distinct (signature-valid) signer of a hash in the ledger
        # queues its epoch — the paper's rule.  The trigger depends only on
        # ledger content, so every correct server queues the same hashes in
        # the same order even when content recovery lags behind (partitions,
        # crashed peers); the epoch itself fills in _try_fill_epochs.
        signers = self.hash_to_signers.setdefault(digest, set())
        signers.add(payload.signer)
        if (len(signers) >= self._quorum_at(block.height)
                and digest not in self._consolidated):
            self._consolidated.add(digest)
            self._fill_queue.append(digest)
            self._fill_meta[digest] = block
        if self.metrics is not None:
            self.metrics.record_in_ledger_by_hash(digest, self.sim.now)
        items = self.store.get(digest)
        if items is None and self.shared_store is not None:
            items = self.shared_store.get(digest)
            if items is not None:
                self.store.register_remote(digest, items)
        if items is not None:
            # We already hold the contents (our own batch, a batch recovered
            # earlier, or — in light mode — a batch shared out-of-band): no
            # hash reversal and no re-validation cost, but we still co-sign the
            # hash so it can gather its f+1 hash-batches in the ledger.
            self._append_own_hash_batch(digest)
            self._consume_batch(block, digest, items, overhead)
            return
        if self.light:
            # Light mode assumes contents are always available; a missing batch
            # can only mean the origin crashed, so skip.
            self._finish_after(overhead)
            return
        # Lines 26-27: h is new — request the batch from the hash-batch's signer.
        if payload.signer == self.name:
            # We signed it but no longer have it (should not happen for correct
            # servers); treat as unrecoverable.
            self._finish_after(overhead)
            return
        self._pending = (block, tx, payload)
        self.batch_requests_sent += 1
        self.send(payload.signer, "request_batch", digest,
                  size_bytes=_REQUEST_SIZE)
        self._request_timer.start(self.config.batch_request_timeout)
        # _finish_after will be called by the response / timeout handler.

    def _consume_batch(self, block: Block, digest: str,
                       items: tuple[object, ...], duration: float) -> None:
        """Absorb a batch from the block pipeline, then release it after ``duration``."""
        self._absorb_batch(digest, items)
        self._try_fill_epochs()
        self._finish_after(duration)

    def _absorb_batch(self, digest: str, items: tuple[object, ...]) -> None:
        """Lines 35-40: absorb the batch's epoch-proofs and feed the_set.

        The first scan of a digest takes the split of the batch's shared
        record (valid elements for the_set and the epoch fill, proofs for
        replay).  Repeats (one per co-signer's ledger hash-batch) replay only
        the proofs not yet accepted, whose routing depends on the current
        epoch; invalid proofs are re-counted on every repeat exactly as a
        full re-scan would.
        """
        pending = self._pending_replay(digest)
        if pending is not None:
            self.scan_cache_hits += 1
            if pending:
                self._absorb_proofs(pending)
            return
        record = batch_record(items, self.scheme.batch_records)
        self._feed_the_set(record)
        self._scanned_batches[digest] = proofs = list(record.proofs)
        self._scanned_elements[digest] = record
        if proofs:
            self._absorb_proofs(proofs)

    def _feed_the_set(self, record: BatchRecord) -> None:
        """Add the record's valid elements to the_set, first id wins: one
        update at a peer's first sight (unique ids, none held), a test per id
        otherwise (the origin holds its own).  No epoched test: an epoch's
        ids are in the_set before it is created."""
        ids, elements = record.ids, record.elements
        the_set = self._the_set
        if record.unique and the_set.keys().isdisjoint(ids):
            the_set.update(zip(ids, elements))
            return
        for element_id, element in zip(ids, elements):
            if element_id not in the_set:
                the_set[element_id] = element

    def _pending_replay(self, digest: str) -> list[EpochProof] | None:
        """The scanned proofs of ``digest`` not accepted yet, the accepted
        ones dropped from the replay list; ``None`` if it was never scanned."""
        cached = self._scanned_batches.get(digest)
        if cached:
            accepted = self._proofs
            cached = self._scanned_batches[digest] = [
                proof for proof in cached if proof not in accepted]
        return cached

    def _try_fill_epochs(self) -> None:
        """Lines 41-45: turn triggered hashes into epochs, strictly in order.

        The head of the fill queue waits until its contents are in the store
        (the background retry loop is fetching them); later triggered hashes
        must not overtake it — epoch numbering and the G-sets (line 42,
        "valid elements not yet in any epoch") are computed in the same
        trigger order at every correct server, so views converge even when
        different servers recover different batches at different times.  In a
        fault-free run contents are always present at trigger time and this
        collapses to the immediate consolidate-on-consume behaviour.
        """
        while self._fill_queue:
            digest = self._fill_queue[0]
            items = self.store.get(digest)
            if items is None and self.shared_store is not None:
                items = self.shared_store.get(digest)
                if items is not None:
                    self.store.register_remote(digest, items)
            if items is None:
                return
            self._fill_queue.popleft()
            block = self._fill_meta.pop(digest)
            # G (line 42): the valid elements no epoch holds *now*, the last
            # of a duplicate id winning — with unique ids, none epoched, the
            # record's own id and element tuples.  An unscanned batch
            # (shared-store fill) feeds the_set first.
            record = self._scanned_elements.pop(digest, None)
            if record is None:
                record = batch_record(items, self.scheme.batch_records)
                self._feed_the_set(record)
            # The index and the epoch move with each epoch this loop fills.
            epoch_of, epoch = self._epoch_of, self._epoch
            ids, elements = record.ids, record.elements
            if not (record.unique and min(map(epoch_of.get, ids, repeat(_NEVER)),
                                          default=_NEVER) > epoch):
                fresh = {element_id: element
                         for element_id, element in zip(ids, elements)
                         if element_id not in epoch_of
                         or epoch_of[element_id] > epoch}
                ids, elements = tuple(fresh), tuple(fresh.values())
            if ids:
                proof = self._byz_outgoing_proof(
                    self._record_new_epoch(ids, elements, block))
                if proof is not None and not self.bootstrapping:
                    self.add_to_batch(proof)

    # -- membership lifecycle ------------------------------------------------------

    def begin_drain(self) -> None:
        """Flush the collector so no accepted element is stranded in memory."""
        super().begin_drain()
        self.collector.flush_now()

    def _on_quorum_change(self, quorum: int, block: Block) -> None:
        """A shrunk quorum can retro-trigger consolidation of known hashes.

        Hashes that had gathered signers under the old (higher) quorum are
        re-examined in ledger observation order — insertion order of
        ``hash_to_signers`` — so every correct server queues the same hashes
        in the same order at the same epoch boundary.
        """
        super()._on_quorum_change(quorum, block)
        triggered = False
        for digest, signers in self.hash_to_signers.items():
            if len(signers) >= quorum and digest not in self._consolidated:
                self._consolidated.add(digest)
                self._fill_queue.append(digest)
                self._fill_meta[digest] = block
                triggered = True
        if triggered:
            self._try_fill_epochs()

    # -- crash faults ------------------------------------------------------------

    def _halt_pipeline(self) -> list[Block]:
        """The in-flight request and the retry loops die with the pipeline,
        on a crash and on retirement alike; what a cut run owed for instants
        it never reached is void."""
        self._request_timer.cancel()
        self._pending = None
        self._unresolved.clear()
        interrupted = super()._halt_pipeline()
        self._run = ([], [])
        return interrupted

    def _on_crash(self) -> None:
        """Volatile hashchain state: the collector dies with the process (as
        does the pipeline); the batch store (disk in the paper's deployment),
        the ledger-derived consolidation queue, and the Setchain state
        survive for recovery."""
        super()._on_crash()
        self.collector.clear()

    def _on_recover(self) -> None:
        """Replay missed blocks, then re-arm retries for still-missing contents."""
        super()._on_recover()
        for digest in self._fill_queue:
            if self.store.get(digest) is None:
                self._note_unresolved(digest)
        self._try_fill_epochs()
