"""Durable sqlite ledger: codec, byte-identity, crash recovery, restart resume.

The service-mode guarantees under test:

* the payload codec round-trips every ledger payload the three algorithms
  append;
* a fault-free run on the ``sqlite`` backend produces a byte-identical
  ``RunResult`` artifact to the in-memory ``ideal`` backend (the durability
  layer is invisible to the simulation);
* a process crash mid block-write loses at most the block being written — on
  re-open the database holds the *exact* committed prefix of an uninterrupted
  reference run (property checked across all three algorithms and several
  crash points);
* a killed service re-opened on the same database replays the persisted
  chain, resumes block numbering, and keeps committing new elements without
  id collisions.
"""

import json
import sqlite3

import pytest

from repro.api import run
from repro.api.builder import Scenario
from repro.api.parallel import reset_run_counters
from repro.compressor.base import CompressedBatch
from repro.core.deployment import build_deployment
from repro.core.types import EpochProof, HashBatch
from repro.errors import ConfigurationError, InvalidElementError, LedgerError
from repro.service.persistence import (
    SqliteLedger,
    audit_chain,
    decode_payload,
    encode_payload,
)
from repro.service.runtime import ServiceRuntime
from repro.workload.elements import Element, make_element

ALGORITHMS = ("vanilla", "compresschain", "hashchain")


def small_scenario(algorithm: str, backend: str = "ideal"):
    return (Scenario(algorithm).servers(4).rate(200).collector(10)
            .inject_for(5).drain(30).backend(backend))


# -- payload codec --------------------------------------------------------------


def test_codec_round_trips_every_payload_kind():
    element = Element(element_id=7, client="c", size_bytes=438,
                      body_digest="d", signature=b"\x01\x02", created_at=1.5)
    proof = EpochProof(epoch_number=3, epoch_hash="abc",
                       signature=b"\x03", signer="server-1")
    batch = HashBatch(batch_hash="deadbeef", signature=b"\x04",
                      signer="server-2")
    compressed = CompressedBatch(items=(element, proof), compressed_size=100,
                                 original_size=577, codec="model-brotli")
    for payload in (element, proof, batch, compressed):
        kind, data = encode_payload(payload)
        json.dumps(data)  # must be JSON-safe as stored
        assert decode_payload(kind, data) == payload


def test_codec_opaque_payloads_audit_but_do_not_replay():
    kind, data = encode_payload(object())
    assert kind == "opaque"
    assert decode_payload(kind, data) is None


def test_a_stored_zero_size_element_is_refused_by_the_constructor(tmp_path):
    """``Element``'s constructor is the one guard against a non-positive size
    (the servers test ``element.valid`` only), and the decoder goes through
    it: a damaged row fails the re-open instead of entering ``the_set``."""
    kind, data = encode_payload(make_element("c", 100))
    with pytest.raises(InvalidElementError):
        decode_payload(kind, {**data, "size_bytes": 0})

    db = tmp_path / "damaged.sqlite"
    first = ServiceRuntime(small_scenario("vanilla"), db=db, seed=3)
    first.submit_many(20)
    first.run_for(4.0)
    first.stop()
    conn = sqlite3.connect(str(db))
    position, payload = conn.execute(
        "SELECT rowid, payload FROM txs WHERE kind = 'element' LIMIT 1").fetchone()
    conn.execute("UPDATE txs SET payload = ? WHERE rowid = ?",
                 (json.dumps({**json.loads(payload), "size_bytes": 0}), position))
    conn.commit()
    conn.close()
    with pytest.raises(InvalidElementError):
        ServiceRuntime(small_scenario("vanilla"), db=db, seed=3)


# -- byte-identity vs the in-memory backend -------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_sqlite_backend_result_byte_identical_to_ideal(algorithm):
    reset_run_counters()
    ideal = run(small_scenario(algorithm, "ideal"), seed=7).to_dict()
    reset_run_counters()
    durable = run(small_scenario(algorithm, "sqlite"), seed=7).to_dict()
    assert ideal["config"]["ledger_backend"] == "ideal"
    assert durable["config"]["ledger_backend"] == "sqlite"
    ideal["config"]["ledger_backend"] = durable["config"]["ledger_backend"] = "-"
    assert json.dumps(ideal, sort_keys=True) == json.dumps(durable, sort_keys=True)


# -- crash mid-write recovers the exact committed prefix ------------------------


def _chain_rows(path, below_height=None):
    conn = sqlite3.connect(str(path))
    try:
        query = ("SELECT height, position, tx_id, origin, size_bytes, "
                 "created_at, kind, payload FROM txs")
        if below_height is not None:
            query += f" WHERE height < {int(below_height)}"
        return conn.execute(query + " ORDER BY height, position").fetchall()
    finally:
        conn.close()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("fail_height", (2, 4))
def test_crash_mid_write_recovers_exact_committed_prefix(
        tmp_path, monkeypatch, algorithm, fail_height):
    config = small_scenario(algorithm, "sqlite").build()

    # Reference: the same run, uninterrupted.
    reset_run_counters()
    reference = build_deployment(config, seed=7,
                                 db_path=tmp_path / "reference.sqlite")
    reference.start()
    reference.run()
    reference.ledger_backend.close()

    # Crash run: die mid-transaction while persisting block `fail_height`,
    # after part of the block has already been written.
    original = SqliteLedger._persist_block

    def crashing(self, block):
        if block.height == fail_height:
            self._conn.execute(
                "INSERT INTO blocks (height, proposer, timestamp) "
                "VALUES (?, ?, ?)",
                (block.height, block.proposer, block.timestamp))
            raise RuntimeError("simulated crash mid block-write")
        original(self, block)

    monkeypatch.setattr(SqliteLedger, "_persist_block", crashing)
    reset_run_counters()
    crashed_db = tmp_path / "crashed.sqlite"
    deployment = build_deployment(config, seed=7, db_path=crashed_db)
    deployment.start()
    with pytest.raises(RuntimeError, match="simulated crash"):
        deployment.run()
    deployment.ledger_backend.abort()  # process death: no commit

    audit = audit_chain(crashed_db)
    assert audit["contiguous"]
    assert audit["height"] == fail_height - 1
    assert _chain_rows(crashed_db) == _chain_rows(
        tmp_path / "reference.sqlite", below_height=fail_height)


# -- kill + re-open resumes the same ledger -------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_killed_service_reopens_and_resumes_committing(tmp_path, algorithm):
    db = tmp_path / "service.sqlite"
    scenario = small_scenario(algorithm)

    first = ServiceRuntime(scenario, db=db, seed=3)
    first.submit_many(200)
    first.run_for(8.0)
    committed_before = first.metrics_snapshot()["committed"]
    height_before = first.deployment.ledger_backend.height
    assert committed_before == 200
    first.kill()

    second = ServiceRuntime(scenario, db=db, seed=3)
    assert second.recovered_blocks == height_before
    second.run_for(1.0)  # let replayed blocks flow through the servers
    replayed = second.metrics_snapshot()
    assert replayed["recovered_commits"] == committed_before

    second.submit_many(100)
    second.run_for(8.0)
    resumed = second.metrics_snapshot()
    assert resumed["committed_this_run"] == 100
    assert resumed["committed"] == committed_before + 100
    assert second.deployment.ledger_backend.height > height_before
    second.stop()

    audit = audit_chain(db)
    assert audit["contiguous"]
    assert audit["opens"] == 2


def test_reopen_advances_element_and_tx_id_counters(tmp_path):
    db = tmp_path / "ids.sqlite"
    first = ServiceRuntime(small_scenario("hashchain"), db=db, seed=3)
    first.submit_many(100)
    first.run_for(4.0)
    max_id_before = max(e.element_id
                        for e in first.deployment.injected_elements)
    first.stop()

    # A fresh process starts its counters at zero; simulate that, then check
    # re-opening the database advances past every persisted id.
    reset_run_counters()
    second = ServiceRuntime(small_scenario("hashchain"), db=db, seed=3)
    second.submit_many(10)
    second.run_for(6.0)
    new_ids = {e.element_id for e in second.deployment.injected_elements}
    assert min(new_ids) > max_id_before
    assert second.metrics_snapshot()["committed_this_run"] == 10
    second.stop()


# -- the write-once batch journal -------------------------------------------------


def _journal_rows(db):
    conn = sqlite3.connect(str(db))
    try:
        return dict(conn.execute("SELECT batch_hash, items FROM batches"))
    finally:
        conn.close()


def _stored_batches(runtime):
    return {batch_hash: items for server in runtime.deployment.servers
            for batch_hash, items in server.store.items()}


def test_batch_journal_is_write_once_across_checkpoints_and_reopen(
        tmp_path, monkeypatch):
    from repro.service import persistence

    encoded: dict[int, int] = {}
    original = persistence.encode_payload

    def counting(payload):
        if isinstance(payload, Element):
            encoded[payload.element_id] = encoded.get(payload.element_id, 0) + 1
        return original(payload)

    monkeypatch.setattr(persistence, "encode_payload", counting)
    db = tmp_path / "journal.sqlite"
    scenario = small_scenario("hashchain")
    # Only the explicit checkpoints below journal anything.
    runtime = ServiceRuntime(scenario, db=db, seed=3, checkpoint_every=10**6)
    backend = runtime.deployment.ledger_backend
    journaled = []
    for _ in range(3):  # three checkpoints over a growing store
        runtime.submit_many(80)
        runtime.run_for(2.0)
        journaled.append(runtime.checkpoint())
    stored = _stored_batches(runtime)
    assert all(count > 0 for count in journaled)
    assert sum(journaled) == len(stored) == len(_journal_rows(db))
    # (a) every element was encoded exactly once, however often its batch
    # was offered for journaling.
    assert set(encoded) == {e.element_id
                            for e in runtime.deployment.injected_elements}
    assert set(encoded.values()) == {1}
    # (b) an unchanged store journals nothing and writes no row.
    changes = backend._conn.total_changes
    assert runtime.checkpoint() == 0
    assert backend._conn.total_changes == changes
    assert not backend._conn.in_transaction
    # (c) a kill right after a checkpoint loses no journaled batch.
    runtime.kill()
    reopened = ServiceRuntime(scenario, db=db, seed=3, checkpoint_every=10**6)
    backend = reopened.deployment.ledger_backend
    assert backend.journaled_batches() == stored
    # (d) the reopened ledger knows what the file holds: the preloaded
    # stores are offered again, nothing is re-encoded or rewritten.
    rows = _journal_rows(db)
    changes = backend._conn.total_changes
    assert reopened.checkpoint() == 0
    assert backend._conn.total_changes == changes
    assert set(encoded.values()) == {1}
    reopened.stop()
    assert _journal_rows(db) == rows


def test_failed_journal_transaction_is_retried_by_the_next_checkpoint(tmp_path):
    db = tmp_path / "retry.sqlite"
    runtime = ServiceRuntime(small_scenario("hashchain"), db=db, seed=3,
                             checkpoint_every=10**6)
    backend = runtime.deployment.ledger_backend
    runtime.submit_many(80)
    runtime.run_for(2.0)
    assert runtime.checkpoint() > 0
    durable = set(_journal_rows(db))
    runtime.submit_many(80)
    runtime.run_for(2.0)
    fresh = set(_stored_batches(runtime)) - durable
    assert fresh

    def failing(key, value):  # raises after the rows were inserted
        raise sqlite3.OperationalError("disk I/O error")

    backend._raise_meta = failing
    with pytest.raises(sqlite3.OperationalError):
        runtime.checkpoint()
    del backend._raise_meta
    # (e) the transaction rolled back and its digests stayed un-marked ...
    assert set(_journal_rows(db)) == durable
    assert backend._journaled == durable
    # ... so the next checkpoint journals exactly those.
    assert runtime.checkpoint() == len(fresh)
    assert set(_journal_rows(db)) == durable | fresh
    runtime.stop()


# -- audit ----------------------------------------------------------------------


def test_audit_missing_file_raises(tmp_path):
    with pytest.raises(ConfigurationError, match="no ledger database"):
        audit_chain(tmp_path / "absent.sqlite")


def test_audit_non_ledger_file_raises(tmp_path):
    bogus = tmp_path / "bogus.sqlite"
    bogus.write_text("not a database")
    with pytest.raises(ConfigurationError, match="not a repro ledger"):
        audit_chain(bogus)


def test_audit_detects_non_contiguous_chain(tmp_path):
    db = tmp_path / "gap.sqlite"
    runtime = ServiceRuntime(small_scenario("vanilla"), db=db, seed=1)
    runtime.submit_many(100)
    runtime.run_for(5.0)
    runtime.stop()
    conn = sqlite3.connect(str(db))
    with conn:
        top = conn.execute("SELECT MAX(height) FROM blocks").fetchone()[0]
        conn.execute("INSERT INTO blocks (height, proposer, timestamp) "
                     "VALUES (?, 'sequencer', 99.0)", (top + 5,))
    conn.close()
    with pytest.raises(LedgerError, match="non-contiguous"):
        audit_chain(db)


def test_audit_reports_elements_for_chain_carried_payloads(tmp_path):
    db = tmp_path / "elements.sqlite"
    runtime = ServiceRuntime(small_scenario("vanilla"), db=db, seed=1)
    runtime.submit_many(150)
    runtime.run_for(6.0)
    runtime.stop()
    audit = audit_chain(db)
    assert audit["elements"]["unique"] == 150
    assert audit["elements"]["total_bytes"] > 0
    assert "element" in audit["tx_kinds"]
    assert audit["max_element_id"] is not None


def test_make_element_counter_untouched_by_fresh_database(tmp_path):
    reset_run_counters()
    before = make_element("probe", 10).element_id
    runtime = ServiceRuntime(small_scenario("vanilla"),
                             db=tmp_path / "fresh.sqlite", seed=1)
    runtime.stop()
    # A fresh database has no persisted ids: opening it must not consume or
    # advance the global counters (artifact byte-identity depends on this).
    assert make_element("probe", 10).element_id == before + 1
