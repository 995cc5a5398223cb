"""Tests for the ideal ledger (Properties 9-11 behaviour without consensus)."""

import pytest

from repro.config import LedgerConfig
from repro.errors import LedgerError
from repro.ledger.abci import Application
from repro.ledger.ideal import IdealLedger
from repro.ledger.types import Block, new_transaction
from repro.sim.scheduler import Simulator


class RecordingApp(Application):
    def __init__(self):
        self.blocks: list[Block] = []

    def finalize_block(self, block: Block) -> None:
        self.blocks.append(block)


@pytest.fixture
def sim():
    return Simulator(seed=0)


@pytest.fixture
def ledger(sim):
    ledger = IdealLedger(sim, LedgerConfig(block_size_bytes=1000, block_rate=1.0))
    ledger.start()
    return ledger


def test_appended_tx_eventually_in_block(sim, ledger):
    app = RecordingApp()
    handle = ledger.handle_for("server-0")
    handle.subscribe(app)
    tx = new_transaction("hello", 100, "server-0")
    handle.append(tx)
    sim.run_until(2.0)
    assert ledger.height >= 1
    assert any(tx.tx_id == t.tx_id for block in app.blocks for t in block.transactions)
    assert ledger.inclusion_height[tx.tx_id] == app.blocks[0].height


def test_all_subscribers_see_same_blocks_in_order(sim, ledger):
    apps = [RecordingApp() for _ in range(3)]
    handles = [ledger.handle_for(f"s{i}") for i in range(3)]
    for handle, app in zip(handles, apps):
        handle.subscribe(app)
    for i in range(10):
        handles[i % 3].append(new_transaction(f"tx{i}", 50, f"s{i % 3}"))
    sim.run_until(5.0)
    reference = [[t.tx_id for t in block.transactions] for block in apps[0].blocks]
    assert reference  # something was committed
    for app in apps[1:]:
        assert [[t.tx_id for t in block.transactions] for block in app.blocks] == reference


def test_duplicate_submit_is_ignored(sim, ledger):
    app = RecordingApp()
    handle = ledger.handle_for("server-0")
    handle.subscribe(app)
    tx = new_transaction("x", 10, "server-0")
    handle.append(tx)
    handle.append(tx)
    sim.run_until(3.0)
    appearances = sum(1 for block in app.blocks for t in block.transactions if t.tx_id == tx.tx_id)
    assert appearances == 1


def test_block_size_cap_splits_transactions(sim, ledger):
    app = RecordingApp()
    handle = ledger.handle_for("server-0")
    handle.subscribe(app)
    for _ in range(4):
        handle.append(new_transaction("big", 400, "server-0"))
    sim.run_until(1.01)
    # Only two 400-byte txs fit into the 1000-byte first block.
    assert len(app.blocks) == 1
    assert len(app.blocks[0].transactions) == 2
    sim.run_until(2.01)
    assert len(app.blocks) == 2
    assert sum(len(b.transactions) for b in app.blocks) == 4


def test_oversized_transaction_goes_alone(sim, ledger):
    app = RecordingApp()
    handle = ledger.handle_for("server-0")
    handle.subscribe(app)
    handle.append(new_transaction("huge", 5000, "server-0"))
    handle.append(new_transaction("small", 10, "server-0"))
    sim.run_until(1.01)
    assert len(app.blocks[0].transactions) == 1
    assert app.blocks[0].transactions[0].size_bytes == 5000


def test_no_empty_blocks(sim, ledger):
    app = RecordingApp()
    handle = ledger.handle_for("server-0")
    handle.subscribe(app)
    sim.run_until(5.0)
    assert app.blocks == []
    assert ledger.height == 0


def test_double_subscribe_rejected(ledger):
    app = RecordingApp()
    handle = ledger.handle_for("server-0")
    handle.subscribe(app)
    with pytest.raises(LedgerError):
        handle.subscribe(app)


def test_heights_are_consecutive(sim, ledger):
    app = RecordingApp()
    handle = ledger.handle_for("server-0")
    handle.subscribe(app)
    for i in range(6):
        sim.call_at(float(i) + 0.1, lambda i=i: handle.append(
            new_transaction(f"t{i}", 100, "server-0")))
    sim.run_until(10.0)
    heights = [b.height for b in app.blocks]
    assert heights == list(range(1, len(heights) + 1))
