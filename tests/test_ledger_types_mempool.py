"""Tests for ledger transactions, blocks, and the mempool."""

import pytest

from repro.errors import LedgerError, MempoolFullError
from repro.ledger.mempool import Mempool
from repro.ledger.types import Block, new_transaction


def tx(size=100, origin="server-0", payload="x"):
    return new_transaction(payload, size, origin)


# -- transactions / blocks ---------------------------------------------------------

def test_transaction_ids_are_unique():
    ids = {tx().tx_id for _ in range(50)}
    assert len(ids) == 50


def test_transaction_negative_size_rejected():
    with pytest.raises(LedgerError):
        new_transaction("p", -1, "o")


def test_block_height_must_start_at_one():
    with pytest.raises(LedgerError):
        Block(height=0, transactions=(), proposer="p", timestamp=0.0)


# -- mempool -------------------------------------------------------------------------

def test_mempool_add_and_contains():
    pool = Mempool(max_txs=10, max_bytes=10_000)
    t = tx()
    assert pool.add(t, now=1.0)
    assert pool.pending() == [t]
    assert len(pool.pending()) == 1
    assert pool.size_bytes == 100
    assert pool.arrival_times[t.tx_id] == 1.0


def test_mempool_duplicate_add_is_noop():
    pool = Mempool(max_txs=10, max_bytes=10_000)
    t = tx()
    assert pool.add(t, now=1.0)
    assert not pool.add(t, now=2.0)
    assert len(pool.pending()) == 1
    assert pool.arrival_times[t.tx_id] == 1.0  # first arrival is kept


def test_mempool_count_cap():
    pool = Mempool(max_txs=2, max_bytes=10_000)
    pool.add(tx(), 0.0)
    pool.add(tx(), 0.0)
    with pytest.raises(MempoolFullError):
        pool.add(tx(), 0.0)
    assert pool.rejected == 1


def test_mempool_byte_cap():
    pool = Mempool(max_txs=100, max_bytes=250)
    pool.add(tx(size=200), 0.0)
    with pytest.raises(MempoolFullError):
        pool.add(tx(size=100), 0.0)


def test_reap_respects_fifo_and_byte_budget():
    pool = Mempool(max_txs=100, max_bytes=100_000)
    txs = [tx(size=100) for _ in range(5)]
    for i, t in enumerate(txs):
        pool.add(t, float(i))
    reaped = pool.reap(max_bytes=250)
    assert reaped == txs[:2]
    # Reaping does not remove.
    assert len(pool.pending()) == 5


def test_reap_oversized_head_goes_alone():
    pool = Mempool(max_txs=100, max_bytes=100_000)
    big, small = tx(size=1000), tx(size=10)
    pool.add(big, 0.0)
    pool.add(small, 0.0)
    # An oversized FIFO head is reaped alone (never wedges the mempool), but a
    # tx that merely exceeds the remaining budget stops the reap.
    assert pool.reap(max_bytes=100) == [big]
    pool.remove_committed([big])
    medium = tx(size=80)
    pool.add(medium, 0.0)
    assert pool.reap(max_bytes=85) == [small]


def test_remove_committed_frees_space():
    pool = Mempool(max_txs=100, max_bytes=100_000)
    txs = [tx(size=100) for _ in range(3)]
    for t in txs:
        pool.add(t, 0.0)
    pool.remove_committed(txs[:2])
    assert len(pool.pending()) == 1
    assert pool.size_bytes == 100
    assert pool.pending() == [txs[2]]
    # Removing a tx that is not present is harmless.
    pool.remove_committed([tx()])
    assert len(pool.pending()) == 1


def test_arrival_times_survive_removal():
    pool = Mempool(max_txs=100, max_bytes=100_000)
    t = tx()
    pool.add(t, 3.5)
    pool.remove_committed([t])
    assert pool.arrival_times[t.tx_id] == 3.5
