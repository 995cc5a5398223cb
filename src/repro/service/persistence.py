"""Durable sqlite persistence for service-mode ledgers.

Batch experiments keep the ledger in memory and throw it away with the
process; a long-running service needs the committed chain to survive restarts.
:class:`SqliteLedger` extends the ideal sequencer with a write-ahead of every
cut block into a sqlite database — one transaction per block, flushed before
any application observes it — so a process killed mid-run loses at most the
block being written, never a block an application acted on.

The module also carries the payload codec (Setchain objects ↔ JSON rows) and
:func:`audit_chain`, which re-opens a persisted database offline and checks
the chain (``repro service inspect``).

The database path is deliberately *not* an :class:`~repro.config.ExperimentConfig`
field: configs are echoed byte-for-byte into ``RunResult`` artifacts, and the
golden artifacts must stay identical.  It is an argument instead,
``build_deployment(config, db_path=...)``, which ``ServiceRuntime(db=...)``
calls: the runtime opens the database, closes it on ``stop()`` and rolls it
back on ``kill()``.  Without one the ``sqlite`` backend runs on ``:memory:``
and behaves exactly like the ideal ledger.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
from pathlib import Path
from typing import Any

from ..compressor.base import CompressedBatch
from ..core.types import EpochProof, HashBatch
from ..errors import ConfigurationError, LedgerError
from ..ledger import types as ledger_types
from ..ledger.ideal import IdealLedger
from ..ledger.types import Block, Transaction
from ..net import message as net_message
from ..sim.scheduler import Simulator
from ..workload import elements as elements_mod
from ..workload.elements import Element

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocks (
    height    INTEGER PRIMARY KEY,
    proposer  TEXT NOT NULL,
    timestamp REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS txs (
    height     INTEGER NOT NULL REFERENCES blocks(height),
    position   INTEGER NOT NULL,
    tx_id      INTEGER NOT NULL,
    origin     TEXT NOT NULL,
    size_bytes INTEGER NOT NULL,
    created_at REAL,
    kind       TEXT NOT NULL,
    payload    TEXT NOT NULL,
    PRIMARY KEY (height, position)
);
CREATE TABLE IF NOT EXISTS batches (
    batch_hash TEXT PRIMARY KEY,
    items      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS membership (
    epoch            INTEGER PRIMARY KEY,
    at               REAL NOT NULL,
    effective_height INTEGER NOT NULL,
    members          TEXT NOT NULL,
    f                INTEGER NOT NULL,
    quorum           INTEGER NOT NULL,
    reason           TEXT NOT NULL,
    node             TEXT
);
"""


# -- payload codec --------------------------------------------------------------


def encode_payload(payload: object) -> tuple[str, dict[str, Any]]:
    """Encode a ledger payload as a ``(kind, json-safe dict)`` pair.

    Covers every payload the three algorithms append: raw elements and
    epoch-proofs (vanilla), compressed batches (compresschain), and
    hash-batches (hashchain).  Unknown payloads become opaque rows that audit
    cleanly but are skipped on replay.
    """
    if isinstance(payload, Element):
        return "element", {
            "element_id": payload.element_id, "client": payload.client,
            "size_bytes": payload.size_bytes, "body_digest": payload.body_digest,
            "signature": payload.signature.hex(), "created_at": payload.created_at,
            "valid": payload.valid}
    if isinstance(payload, EpochProof):
        return "epoch-proof", {
            "epoch_number": payload.epoch_number, "epoch_hash": payload.epoch_hash,
            "signature": payload.signature.hex(), "signer": payload.signer,
            "size_bytes": payload.size_bytes}
    if isinstance(payload, HashBatch):
        return "hash-batch", {
            "batch_hash": payload.batch_hash, "signature": payload.signature.hex(),
            "signer": payload.signer, "size_bytes": payload.size_bytes}
    if isinstance(payload, CompressedBatch):
        items = [list(encode_payload(item)) for item in payload.items]
        return "compressed-batch", {
            "items": items, "compressed_size": payload.compressed_size,
            "original_size": payload.original_size, "codec": payload.codec}
    return "opaque", {"repr": repr(payload)}


def decode_payload(kind: str, data: dict[str, Any]) -> object | None:
    """Rebuild a ledger payload from its persisted form (``None`` for opaque)."""
    if kind == "element":
        return Element(element_id=int(data["element_id"]), client=data["client"],
                       size_bytes=int(data["size_bytes"]),
                       body_digest=data["body_digest"],
                       signature=bytes.fromhex(data["signature"]),
                       created_at=float(data["created_at"]),
                       valid=bool(data["valid"]))
    if kind == "epoch-proof":
        return EpochProof(epoch_number=int(data["epoch_number"]),
                          epoch_hash=data["epoch_hash"],
                          signature=bytes.fromhex(data["signature"]),
                          signer=data["signer"],
                          size_bytes=int(data["size_bytes"]))
    if kind == "hash-batch":
        return HashBatch(batch_hash=data["batch_hash"],
                         signature=bytes.fromhex(data["signature"]),
                         signer=data["signer"], size_bytes=int(data["size_bytes"]))
    if kind == "compressed-batch":
        items = tuple(item for item in
                      (decode_payload(k, d) for k, d in data["items"])
                      if item is not None)
        return CompressedBatch(items=items,
                               compressed_size=int(data["compressed_size"]),
                               original_size=int(data["original_size"]),
                               codec=data["codec"])
    return None


def _max_element_id(payload: object) -> int:
    """Largest element id carried by ``payload`` (-1 when it carries none)."""
    if isinstance(payload, Element):
        return payload.element_id
    if isinstance(payload, CompressedBatch):
        return max((_max_element_id(item) for item in payload.items), default=-1)
    return -1


# -- the durable ledger ---------------------------------------------------------


class SqliteLedger(IdealLedger):
    """The ideal sequencer with a durable sqlite chain behind it.

    On a fresh database this is behaviourally identical to
    :class:`IdealLedger` — same block cuts, same notification order, same
    simulated timings — so fault-free runs produce byte-identical
    ``RunResult`` artifacts.  On an existing database it resumes block
    numbering after the persisted height and can replay the persisted chain
    into freshly subscribed applications.
    """

    def __init__(self, sim: Simulator, config=None,
                 path: str | Path = ":memory:") -> None:
        super().__init__(sim, config)
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._closed = False
        #: Height already in the database when this process opened it.
        self.resumed_from = self._persisted_height()
        self._height = self.resumed_from
        #: Digests durable in ``batches``.  A batch is named by the hash of
        #: its contents, so none is written twice; grown only after a commit.
        self._journaled: set[str] = {row[0] for row in self._conn.execute(
            "SELECT batch_hash FROM batches")}
        self._bump_meta("opens", 1)

    # -- durability -------------------------------------------------------------

    def _persist_block(self, block: Block) -> None:
        rows = []
        max_element = -1
        for position, tx in enumerate(block.transactions):
            kind, data = encode_payload(tx.payload)
            max_element = max(max_element, _max_element_id(tx.payload))
            rows.append((block.height, position, tx.tx_id, tx.origin,
                         tx.size_bytes, tx.created_at, kind, json.dumps(data)))
        max_tx = max((tx.tx_id for tx in block.transactions), default=-1)
        with self._conn:  # one transaction per block: all-or-nothing
            self._conn.execute(
                "INSERT INTO blocks (height, proposer, timestamp) VALUES (?, ?, ?)",
                (block.height, block.proposer, block.timestamp))
            self._conn.executemany(
                "INSERT INTO txs VALUES (?, ?, ?, ?, ?, ?, ?, ?)", rows)
            self._raise_meta("max_tx_id", max_tx)
            self._raise_meta("max_element_id", max_element)

    def _raise_meta(self, key: str, value: int) -> None:
        """Monotonically raise an integer meta entry (within a transaction)."""
        if value < 0:
            return
        current = self._meta_int(key)
        if current is None or value > current:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, str(value)))

    def _bump_meta(self, key: str, delta: int) -> None:
        current = self._meta_int(key) or 0
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, str(current + delta)))

    def _meta_int(self, key: str) -> int | None:
        row = self._conn.execute("SELECT value FROM meta WHERE key = ?",
                                 (key,)).fetchone()
        return int(row[0]) if row is not None else None

    def _persisted_height(self) -> int:
        row = self._conn.execute("SELECT MAX(height) FROM blocks").fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    # -- restart support ---------------------------------------------------------

    def persisted_blocks(self) -> list[Block]:
        """The durable chain, decoded back into :class:`Block` objects."""
        blocks: list[Block] = []
        for height, proposer, timestamp in self._conn.execute(
                "SELECT height, proposer, timestamp FROM blocks ORDER BY height"):
            txs = []
            for tx_id, origin, size_bytes, created_at, kind, payload in \
                    self._conn.execute(
                        "SELECT tx_id, origin, size_bytes, created_at, kind, "
                        "payload FROM txs WHERE height = ? ORDER BY position",
                        (height,)):
                decoded = decode_payload(kind, json.loads(payload))
                if decoded is None:
                    continue  # opaque payloads audit but do not replay
                txs.append(Transaction(payload=decoded, size_bytes=size_bytes,
                                       origin=origin, tx_id=tx_id,
                                       created_at=created_at))
            blocks.append(Block(height=height, transactions=tuple(txs),
                                proposer=proposer, timestamp=timestamp))
        return blocks

    def replay_persisted(self, blocks: list[Block] | None = None) -> int:
        """Feed the persisted chain to every subscribed application.

        Called once at service restart, after the deployment is built (so all
        servers are subscribed) and before the simulator advances.  Replayed
        blocks are already durable and are not re-persisted.
        """
        if blocks is None:
            blocks = self.persisted_blocks()
        for block in blocks:
            for tx in block.transactions:
                self.inclusion_height[tx.tx_id] = block.height
            for app in list(self._apps):
                app.finalize_block(block)
        return len(blocks)

    def advance_id_counters(self) -> None:
        """Move the global element/tx/message counters past every persisted id.

        A restarted process starts its counters at zero; without this, new
        elements and transactions would collide with persisted ids and be
        dropped as duplicates.  No-op on a fresh database (so fresh-run
        artifacts stay byte-identical with the in-memory backend).
        """
        max_tx = self._meta_int("max_tx_id")
        max_element = self._meta_int("max_element_id")
        if max_tx is None and max_element is None:
            return
        if max_element is not None:
            current = next(elements_mod._element_counter)
            elements_mod._element_counter = itertools.count(
                max(current, max_element + 1))
        if max_tx is not None:
            current = next(ledger_types._tx_counter)
            ledger_types._tx_counter = itertools.count(max(current, max_tx + 1))
            current = next(net_message._msg_counter)
            net_message._msg_counter = itertools.count(max(current, max_tx + 1))

    # -- out-of-band batch journal ----------------------------------------------

    def journal_batches(self, batches: dict[str, tuple[object, ...]]) -> int:
        """Persist hashchain batch contents (hash → items), write-once.

        Hashchain keeps batch contents out-of-band (only 139-byte hash-batches
        reach the ledger), so the chain alone cannot rebuild the set.  The
        service checkpoints every server's :class:`BatchStore` here; restart
        preloads the stores from this journal before replaying the chain.

        Only digests not yet in the file are encoded and written: the cost
        is proportional to the new batches, and nothing new opens no
        transaction.  Returns the number of batches newly journaled.
        """
        rows = []
        max_element = -1
        for batch_hash, items in batches.items():
            if batch_hash in self._journaled:
                continue
            encoded = [list(encode_payload(item)) for item in items]
            for item in items:
                max_element = max(max_element, _max_element_id(item))
            rows.append((batch_hash, json.dumps(encoded)))
        if not rows:
            return 0
        with self._conn:
            self._conn.executemany(
                "INSERT OR IGNORE INTO batches (batch_hash, items) VALUES (?, ?)",
                rows)
            # Hashchain elements reach the database only through this journal
            # (the chain carries 139-byte hashes), so the id high-water mark a
            # restart advances past must be raised here too.
            self._raise_meta("max_element_id", max_element)
        self._journaled.update(row[0] for row in rows)
        return len(rows)

    def journaled_batches(self) -> dict[str, tuple[object, ...]]:
        """The persisted batch journal, decoded."""
        batches: dict[str, tuple[object, ...]] = {}
        for batch_hash, items in self._conn.execute(
                "SELECT batch_hash, items FROM batches"):
            decoded = tuple(item for item in
                            (decode_payload(k, d) for k, d in json.loads(items))
                            if item is not None)
            batches[batch_hash] = decoded
        return batches

    # -- membership-epoch journal -------------------------------------------------

    def journal_membership(self, epochs: "list[dict[str, Any]]") -> int:
        """Persist the membership timeline (full rewrite, idempotent).

        The timeline is tiny (one row per join/leave) and append-only in
        memory, so each checkpoint rewrites it whole — a restart, or an
        offline ``repro service inspect``, then sees every epoch the run
        went through, and :func:`audit_chain` can verify their contiguity.
        """
        rows = [(epoch["index"], epoch["at"], epoch["effective_height"],
                 json.dumps(list(epoch["members"])), epoch["f"],
                 epoch["quorum"], epoch["reason"], epoch.get("node"))
                for epoch in epochs]
        with self._conn:
            self._conn.execute("DELETE FROM membership")
            self._conn.executemany(
                "INSERT INTO membership VALUES (?, ?, ?, ?, ?, ?, ?, ?)", rows)
        return len(rows)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Commit and release the database (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._conn.commit()
        self._conn.close()

    def abort(self) -> None:
        """Release the database *without* committing (idempotent).

        Models a process crash: any write not yet transaction-committed is
        rolled back, leaving exactly the durable block prefix.
        """
        if self._closed:
            return
        self._closed = True
        self._conn.rollback()
        self._conn.close()


# -- offline audit ---------------------------------------------------------------


def audit_chain(path: str | Path) -> dict[str, Any]:
    """Re-open a persisted ledger and audit the chain without a simulator.

    Checks height contiguity (heights ``1..H`` with no gaps) and summarises
    what the chain carries: transaction kinds, appending servers, distinct
    element ids and bytes, the out-of-band batch journal, and id/open
    counters.  When the ledger journaled a membership timeline, the epochs
    are audited too: indices contiguous from 1, activation heights
    non-decreasing, and each join/leave changing the member set by exactly
    its recorded node.  Raises :class:`LedgerError` on a broken chain or
    membership journal and :class:`ConfigurationError` when the file is
    missing or not a ledger.
    """
    db = Path(path)
    if not db.exists():
        raise ConfigurationError(f"no ledger database at {db}")
    conn = sqlite3.connect(str(db))
    try:
        try:
            heights = [row[0] for row in conn.execute(
                "SELECT height FROM blocks ORDER BY height")]
        except sqlite3.DatabaseError as error:
            raise ConfigurationError(
                f"{db} is not a repro ledger database: {error}") from error
        contiguous = heights == list(range(1, len(heights) + 1))
        if not contiguous:
            raise LedgerError(
                f"persisted chain in {db} has non-contiguous heights "
                f"(got {len(heights)} blocks, max height "
                f"{heights[-1] if heights else 0})")
        kinds: dict[str, int] = {}
        origins: dict[str, int] = {}
        element_ids: set[int] = set()
        element_bytes = 0
        tx_count = 0
        for origin, kind, payload in conn.execute(
                "SELECT origin, kind, payload FROM txs"):
            tx_count += 1
            kinds[kind] = kinds.get(kind, 0) + 1
            origins[origin] = origins.get(origin, 0) + 1
            decoded = decode_payload(kind, json.loads(payload))
            if isinstance(decoded, Element):
                element_ids.add(decoded.element_id)
                element_bytes += decoded.size_bytes
            elif isinstance(decoded, CompressedBatch):
                for item in decoded.items:
                    if isinstance(item, Element):
                        element_ids.add(item.element_id)
                        element_bytes += item.size_bytes
        timestamps = conn.execute(
            "SELECT MIN(timestamp), MAX(timestamp) FROM blocks").fetchone()
        batch_rows = conn.execute("SELECT COUNT(*) FROM batches").fetchone()[0]
        meta = {key: value for key, value in conn.execute(
            "SELECT key, value FROM meta")}
        membership = _audit_membership(conn, db)
        report = {
            "path": str(db),
            "height": len(heights),
            "blocks": len(heights),
            "transactions": tx_count,
            "contiguous": contiguous,
            "tx_kinds": dict(sorted(kinds.items())),
            "origins": dict(sorted(origins.items())),
            "elements": {"unique": len(element_ids),
                         "total_bytes": element_bytes},
            "batches_journaled": batch_rows,
            "first_timestamp": timestamps[0],
            "last_timestamp": timestamps[1],
            "opens": int(meta.get("opens", 0)),
            "max_tx_id": int(meta["max_tx_id"]) if "max_tx_id" in meta else None,
            "max_element_id": (int(meta["max_element_id"])
                               if "max_element_id" in meta else None),
        }
        if membership is not None:
            # Only ledgers that journaled a membership timeline grow this
            # block; static-run audits keep the earlier report shape.
            report["membership"] = membership
        return report
    finally:
        conn.close()


def _audit_membership(conn: sqlite3.Connection,
                      db: Path) -> dict[str, Any] | None:
    """Audit the journaled membership timeline (None when none was journaled).

    The invariants mirror :class:`repro.core.membership.Membership`:
    epoch indices count 1, 2, 3, ... with no gaps; activation heights never
    decrease; and every non-initial epoch's member set differs from its
    predecessor by exactly the one node it records joining or leaving.
    """
    try:
        rows = list(conn.execute(
            "SELECT epoch, at, effective_height, members, reason, node "
            "FROM membership ORDER BY epoch"))
    except sqlite3.OperationalError:
        return None  # database predates the membership journal
    if not rows:
        return None
    indices = [row[0] for row in rows]
    if indices != list(range(1, len(rows) + 1)):
        raise LedgerError(
            f"membership journal in {db} has non-contiguous epochs "
            f"(got indices {indices})")
    previous_height = None
    previous_members: set[str] | None = None
    joins = leaves = 0
    for index, _at, effective, members_json, reason, node in rows:
        if previous_height is not None and effective < previous_height:
            raise LedgerError(
                f"membership journal in {db} has a decreasing activation "
                f"height at epoch {index} ({effective} < {previous_height})")
        previous_height = effective
        members = set(json.loads(members_json))
        if previous_members is not None:
            if reason == "join":
                joins += 1
                expected = previous_members | {node}
            elif reason == "leave":
                leaves += 1
                expected = previous_members - {node}
            else:
                raise LedgerError(
                    f"membership journal in {db} has epoch {index} with "
                    f"unknown reason {reason!r}")
            if node is None or members != expected:
                raise LedgerError(
                    f"membership journal in {db} is inconsistent at epoch "
                    f"{index}: a {reason} of {node!r} does not connect "
                    f"{sorted(previous_members)} to {sorted(members)}")
        previous_members = members
    return {"epochs": len(rows), "joins": joins, "leaves": leaves,
            "current_members": sorted(previous_members or ()),
            "contiguous": True}
