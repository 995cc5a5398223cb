"""A burst of appends is one ledger call; what the ideal sequencer files and
cuts must be what one call per transaction filed and cut.

The oracle is the replaced code, kept here: the per-element Vanilla add
(``_append_to_ledger`` per element, then its ``tx_elements`` entry), the
per-element block-end merge into ``the_set``, and the sequencer's
per-transaction ``submit`` and ``_produce_block`` loops.  Each case plays one
script in both worlds — Vanilla add bursts (with twins: an earlier id, other
content), bare append bursts, re-submitted and already-included
transactions, block cuts around a budget a transaction can exhaust exactly
or exceed alone, block processing — and compares the transaction ids, the
pending queue, the blocks, ``inclusion_height``, ``metrics.tx_elements``,
every ``the_set`` and every epoch after each step.
"""

from __future__ import annotations

from collections import deque

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import MetricsCollector
from repro.api.parallel import reset_run_counters
from repro.config import EPOCH_PROOF_SIZE, LedgerConfig, SetchainConfig
from repro.core.vanilla import VanillaServer
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SimulatedScheme
from repro.ledger.ideal import IdealLedger
from repro.ledger.types import Block, Transaction, new_transaction
from repro.sim.scheduler import Simulator
from repro.workload.elements import Element


class ReferenceLedger(IdealLedger):
    """The sequencer as it was: one ``submit`` per transaction, one pop per
    included transaction."""

    def submit(self, txs) -> None:
        for tx in txs:
            if tx.tx_id in self._pending_ids or tx.tx_id in self.inclusion_height:
                continue
            self._pending.append(tx)
            self._pending_ids.add(tx.tx_id)

    def _produce_block(self) -> None:
        if not self._pending:
            return
        budget = self.config.block_size_bytes
        included: list[Transaction] = []
        while self._pending:
            tx = self._pending[0]
            if tx.size_bytes > budget and included:
                break
            if tx.size_bytes > self.config.block_size_bytes:
                if included:
                    break
            included.append(self._pending.popleft())
            self._pending_ids.discard(tx.tx_id)
            budget -= tx.size_bytes
            if budget <= 0:
                break
        self._height += 1
        block = Block(height=self._height, transactions=tuple(included),
                      proposer="sequencer", timestamp=self.sim.now)
        self.blocks.append(block)
        for tx in included:
            self.inclusion_height[tx.tx_id] = block.height
        self._persist_block(block)
        for app in list(self._apps):
            app.finalize_block(block)


class ReferenceVanilla(VanillaServer):
    """The per-element add, one ledger call and one metrics entry apiece, and
    the block end's per-element merge into the_set."""

    def _after_add_many(self, elements) -> None:
        for element in elements:
            tx = self._append_to_ledger(element, element.size_bytes)
            if self.metrics is not None:
                self.metrics.tx_elements[tx.tx_id] = [element.element_id]

    def _handle_block_end(self, block) -> None:
        candidates = self._block_elements
        if not candidates:
            return
        self._block_elements = {}
        for element in frozenset(candidates.values()):
            self._the_set.setdefault(element.element_id, element)
        proof = self._record_new_epoch(tuple(candidates),
                                       tuple(candidates.values()), block)
        self._append_to_ledger(proof, EPOCH_PROOF_SIZE)


_SERVERS = 3


class World:
    def __init__(self, reference: bool, block_size: int) -> None:
        reset_run_counters()
        self.sim = Simulator(seed=1)
        ledger_type = ReferenceLedger if reference else IdealLedger
        self.ledger = ledger_type(self.sim, LedgerConfig(block_size_bytes=block_size))
        self.metrics = MetricsCollector()
        scheme = SimulatedScheme(PublicKeyInfrastructure())
        config = SetchainConfig(n_servers=_SERVERS)
        server_type = ReferenceVanilla if reference else VanillaServer
        self.servers = []
        for index in range(_SERVERS):
            name = f"server-{index}"
            server = server_type(name, self.sim, config, scheme,
                                 scheme.generate_keypair(name), metrics=self.metrics)
            server.connect_ledger(self.ledger.handle_for(name))
            self.servers.append(server)
        self.reference = reference
        self.txs: list[Transaction] = []

    def play(self, op) -> None:
        kind, *args = op
        if kind == "add":
            index, elements = args
            self.servers[index].add_many(list(elements))
        elif kind == "append":
            index, sizes, repeats = args
            txs = [new_transaction(f"payload-{size}", size, f"server-{index}")
                   for size in sizes]
            self.txs.extend(txs)
            # A fresh transaction twice in one burst counts once.
            txs += [txs[repeat % len(txs)] for repeat in repeats if txs]
            handle = self.ledger.handle_for(f"server-{index}")
            if self.reference:
                for tx in txs:
                    handle.append(tx)
            else:
                handle.append_many(txs)
        elif kind == "resubmit":
            (picks,) = args
            if self.txs:
                self.ledger.submit([self.txs[pick % len(self.txs)]
                                    for pick in picks])
        elif kind == "process":
            # The servers handle the blocks cut so far: epochs, the_set
            # merges and epoch-proof appends.
            self.sim.run_until_idle()
        else:
            self.ledger._produce_block()

    def shows(self) -> dict:
        def seen(tx: Transaction) -> tuple:
            return (tx.tx_id, tx.size_bytes, tx.origin, tx.payload)

        ledger = self.ledger
        return {
            "pending": [seen(tx) for tx in ledger._pending],
            "pending_ids": set(ledger._pending_ids),
            "blocks": [(block.height, [seen(tx) for tx in block.transactions])
                       for block in ledger.blocks],
            "inclusion_height": dict(ledger.inclusion_height),
            "tx_elements": {tx_id: list(ids)
                            for tx_id, ids in self.metrics.tx_elements.items()},
            # Which element each id maps to; the merge order is free.
            "the_sets": [dict(server._the_set) for server in self.servers],
            "epochs": [[sorted(element.element_id
                               for element in server.epoch_elements(number))
                        for number in range(1, server.epoch + 1)]
                       for server in self.servers],
        }


@st.composite
def _scripts(draw):
    block_size = draw(st.integers(1, 3000))
    # Sizes around the budget: exactly a block, one byte over (alone in a
    # block), halves and thirds that exhaust it to 0, empty transactions.
    size = st.one_of(st.integers(0, 2 * block_size),
                     st.sampled_from([0, 1, block_size, block_size + 1,
                                      block_size - 1, block_size // 2,
                                      block_size // 3]).map(lambda s: max(s, 0)))
    next_id = 0
    ops = []
    for kind in draw(st.lists(st.sampled_from(
            ["add", "add", "append", "resubmit", "cut", "cut", "process"]),
            min_size=1, max_size=10)):
        if kind == "add":
            # Up to 500 elements, their sizes a drawn pattern repeated.
            pattern = draw(st.lists(size, min_size=1, max_size=8))
            elements = []
            for index in range(draw(st.sampled_from([0, 1, 2, 7, 40, 500]))):
                elements.append(Element(next_id, "client",
                                        max(pattern[index % len(pattern)], 1),
                                        f"digest-{next_id}"))
                next_id += 1
            # Twins: an earlier id with other content, which a server that
            # holds one keeps in the_set over the epoch's copy.
            for pick in draw(st.lists(st.integers(0, 10**6), max_size=3)) if next_id else ():
                elements.append(Element(pick % next_id, "client", 7, f"twin-{pick}"))
            ops.append(("add", draw(st.integers(0, _SERVERS - 1)), tuple(elements)))
        elif kind == "append":
            ops.append(("append", draw(st.integers(0, _SERVERS - 1)),
                        draw(st.lists(size, max_size=20)),
                        draw(st.lists(st.integers(0, 10**6), max_size=2))))
        elif kind == "resubmit":
            ops.append(("resubmit", draw(st.lists(st.integers(0, 10**6),
                                                  min_size=1, max_size=8))))
        else:
            ops.append((kind,))
    return block_size, ops


_ORIGINAL = Element(0, "client", 100, "digest-0")
_TWIN = Element(0, "client", 7, "twin-0")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_scripts())
# server-1 holds a twin when the original's epoch reaches it: the twin stays.
@example((1000, [("add", 0, (_ORIGINAL,)), ("add", 1, (_TWIN,)), ("cut",),
                 ("process",)]))
def test_bursts_file_and_cut_what_one_call_per_transaction_did(script):
    block_size, ops = script
    shown = {}
    for reference in (True, False):
        world = World(reference, block_size)
        shown[reference] = []
        for op in ops:
            world.play(op)
            shown[reference].append(world.shows())
        for _ in range(len(world.ledger._pending)):  # drain: a cut takes >= 1
            world.play(("cut",))
        shown[reference].append(world.shows())
    assert shown[True] == shown[False]


class CountingQueue(deque):
    """The pending queue, counting the transactions a cut reads."""

    read = 0

    def __iter__(self):
        for tx in super().__iter__():
            self.read += 1
            yield tx


def test_a_cut_reads_the_block_not_the_backlog():
    sim = Simulator(seed=1)
    ledger = IdealLedger(sim, LedgerConfig(block_size_bytes=1000))
    head = [new_transaction("head", 250, "server-0") for _ in range(4)]
    ledger.submit(head + [new_transaction("tail", 250, "server-0")
                          for _ in range(10_000)])
    ledger._pending = queue = CountingQueue(ledger._pending)
    ledger._produce_block()
    assert ledger.blocks[0].transactions == tuple(head)
    assert queue.read == 4 and len(queue) == 10_000
