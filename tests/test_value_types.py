"""The contract of the four hot value types (``repro.values.SlotValue``).

``Element``, ``Transaction``, ``EpochProof`` and ``HashBatch`` were frozen
slot dataclasses; they are plain ``__slots__`` classes now.  What other code
and every artifact byte rely on must not have moved: equality, the *value* of
``hash()`` (set iteration orders follow from it), ``repr``, keyword and
positional construction, pickling, each validation error, the transaction id
counter — and immutability, which is a contract now and is guarded by an AST
scan of ``src/`` instead of a raising ``__setattr__``.
"""

from __future__ import annotations

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.types import EpochProof, HashBatch
from repro.errors import InvalidElementError, LedgerError, SetchainError
from repro.ledger import types as ledger_types
from repro.ledger.types import Transaction, new_transaction
from repro.values import SlotValue
from repro.workload.elements import Element, make_elements
from repro.crypto.hashing import canonical_bytes_of

SRC = Path(__file__).resolve().parents[1] / "src"

#: type -> (keyword arguments, compare fields in declaration order, the repr
#: and the ``PYTHONHASHSEED=0`` hash the frozen dataclass gave on the parent
#: commit, CPython 3.11).
SAMPLES = {
    Element: (
        dict(element_id=7, client="client-3", size_bytes=438,
             body_digest="digest-7", signature=b"sig", created_at=1.5, valid=True),
        ("element_id", "client", "size_bytes", "body_digest", "signature",
         "created_at", "valid"),
        "Element(element_id=7, client='client-3', size_bytes=438, "
        "body_digest='digest-7', signature=b'sig', created_at=1.5, valid=True)",
        3715547913937241681),
    Transaction: (
        dict(payload="payload", size_bytes=139, origin="server-0", tx_id=42,
             created_at=2.5),
        ("payload", "size_bytes", "origin", "tx_id", "created_at"),
        "Transaction(payload='payload', size_bytes=139, origin='server-0', "
        "tx_id=42, created_at=2.5)",
        -7529237916930977798),
    EpochProof: (
        dict(epoch_number=3, epoch_hash="abc123", signature=b"\x01\x02",
             signer="server-1", size_bytes=139),
        ("epoch_number", "epoch_hash", "signature", "signer", "size_bytes"),
        "EpochProof(epoch_number=3, epoch_hash='abc123', "
        "signature=b'\\x01\\x02', signer='server-1', size_bytes=139)",
        -6103545519974303973),
    HashBatch: (
        dict(batch_hash="deadbeef", signature=b"\x03", signer="server-2",
             size_bytes=139),
        ("batch_hash", "signature", "signer", "size_bytes"),
        "HashBatch(batch_hash='deadbeef', signature=b'\\x03', "
        "signer='server-2', size_bytes=139)",
        6954603470959668791),
}
TYPES = list(SAMPLES)


def test_the_four_types_are_the_slot_values():
    assert set(SlotValue.__subclasses__()) == set(TYPES)


@pytest.mark.parametrize("cls", TYPES)
def test_equality_hash_and_repr_are_the_frozen_dataclass_ones(cls):
    kwargs, fields, shown, _ = SAMPLES[cls]
    assert cls._fields == fields == tuple(kwargs)
    value = cls(**kwargs)
    assert hash(value) == hash(tuple(kwargs.values()))
    assert repr(value) == shown
    assert value == cls(**kwargs) and not value != cls(**kwargs)
    assert value == cls(*kwargs.values())  # positional, declaration order
    for name in fields:  # every compare field takes part in equality
        other = cls(**{**kwargs, name: _another(kwargs[name])})
        assert other != value and getattr(other, name) != getattr(value, name)

    class Twin(SlotValue):  # same fields, another type: never equal
        _fields = __slots__ = fields

        def __init__(self):
            for name in fields:
                setattr(self, name, kwargs[name])

    assert value != Twin() and Twin() != value
    assert value != tuple(kwargs.values())


def _another(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + value[:1]


def test_hash_values_are_the_parents_under_a_pinned_hash_seed():
    """The literals were printed by the parent commit's frozen dataclasses;
    the subprocess pins ``PYTHONHASHSEED`` (string hashes are salted)."""
    if sys.hash_info.algorithm != "siphash13":
        pytest.skip("the pinned literals are CPython 3.11+ siphash13 values")
    program = (
        "import tests.test_value_types as t\n"
        "for cls, (kwargs, _, _, expected) in t.SAMPLES.items():\n"
        "    assert hash(cls(**kwargs)) == expected, (cls, hash(cls(**kwargs)))\n")
    root = SRC.parent
    environment = dict(os.environ, PYTHONHASHSEED="0",
                       PYTHONPATH=os.pathsep.join([str(SRC), str(root)]))
    done = subprocess.run([sys.executable, "-c", program], env=environment,
                          cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("cls", TYPES)
def test_pickle_and_copy_round_trip_equal_and_hash_equal(cls):
    value = cls(**SAMPLES[cls][0])
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value)
        assert clone is not value and type(clone) is cls
    if hasattr(value, "_canonical"):
        assert canonical_bytes_of(pickle.loads(pickle.dumps(value))) \
            == canonical_bytes_of(value)


@pytest.mark.parametrize("cls", TYPES)
def test_no_stray_attributes(cls):
    value = cls(**SAMPLES[cls][0])
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.stray = 1


def test_validation_errors_are_raised_by_the_constructors():
    element, transaction, proof, batch = (dict(SAMPLES[cls][0]) for cls in TYPES)
    for size in (0, -1):
        with pytest.raises(InvalidElementError):
            Element(**{**element, "size_bytes": size})
    with pytest.raises(LedgerError):
        Transaction(**{**transaction, "size_bytes": -1})
    assert Transaction(**{**transaction, "size_bytes": 0}).size_bytes == 0
    with pytest.raises(SetchainError, match="start at 1"):
        EpochProof(**{**proof, "epoch_number": 0})
    with pytest.raises(SetchainError, match="signer"):
        EpochProof(**{**proof, "signer": ""})
    with pytest.raises(SetchainError, match="batch hash"):
        HashBatch(**{**batch, "batch_hash": ""})
    with pytest.raises(SetchainError, match="signer"):
        HashBatch(**{**batch, "signer": ""})


def test_defaults_and_cached_encodings():
    element = Element(1, "c", 10, "d")
    assert (element.signature, element.created_at, element.valid) == (b"", 0.0, True)
    assert canonical_bytes_of(element) == b"element|1|c|10|d"
    proof = EpochProof(2, "h", b"\xab", "server-0")
    assert proof.size_bytes == 139
    assert canonical_bytes_of(proof) == b"proof|2|h|server-0|ab"
    batch = HashBatch("h", b"\xcd", "server-0")
    assert batch.size_bytes == 139
    assert canonical_bytes_of(batch) == b"hash-batch|h|server-0|cd"
    first, second = make_elements("c", [5, 6], created_at=2.0)
    assert second.element_id == first.element_id + 1
    assert second == Element(second.element_id, "c", 6,
                             f"digest-{second.element_id}", created_at=2.0)


def test_transaction_without_tx_id_draws_the_next_global_id():
    here = next(ledger_types._tx_counter)
    assert Transaction("p", 1, "o").tx_id == here + 1
    assert new_transaction("p", 1, "o", created_at=3.0).tx_id == here + 2
    assert Transaction("p", 1, "o", tx_id=5).tx_id == 5  # given: none drawn
    assert Transaction(payload="p", size_bytes=1, origin="o").tx_id == here + 3


# -- immutability: a contract, guarded from outside ----------------------------------

#: Stores that hit a field *name* of the four types on another, mutable type:
#: ``(file under src/repro, receiver)`` — ``ElementRecord`` is the lifecycle
#: record the metrics collector stamps.
OTHER_TYPES = {("analysis/metrics.py", "record")}


def _field_stores(tree: ast.AST):
    """``(receiver expression, field name, node)`` of every attribute store
    — assignment targets, ``setattr`` and ``object.__setattr__`` calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.value, node.attr, node
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and getattr(node.func, "id", getattr(node.func, "attr", ""))
              in ("setattr", "__setattr__", "delattr", "__delattr__")
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[0], node.args[1].value, node


def assignments_to_value_fields(source: str, where: str) -> list[str]:
    protected = {name for cls in TYPES for name in cls.__slots__}
    guarded = {cls.__name__ for cls in TYPES}
    tree = ast.parse(source)
    allowed: set[ast.AST] = set()  # stores inside a class body, on ``self``
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for function in cls.body:
            if (isinstance(function, ast.FunctionDef)
                    and (cls.name not in guarded or function.name == "__init__")):
                allowed.update(
                    node for receiver, _, node in _field_stores(function)
                    if isinstance(receiver, ast.Name) and receiver.id == "self")
    found = []
    for receiver, name, node in _field_stores(tree):
        if name not in protected or node in allowed:
            continue
        if (where, getattr(receiver, "id", None)) in OTHER_TYPES:
            continue
        found.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_source_file_assigns_a_value_type_field_after_construction():
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        found += assignments_to_value_fields(
            path.read_text(), path.relative_to(SRC / "repro").as_posix())
    assert found == []


@pytest.mark.parametrize("snippet", [
    "element.size_bytes = 0",
    "tx.payload, other = None, 1",
    "proof.epoch_number += 1",
    "setattr(batch, 'signer', 'x')",
    "object.__setattr__(element, '_hash', 0)",
    "del element.valid",
    "class Element:\n    def touch(self):\n        self.valid = False",
    "def helper(self):\n    self.created_at = 0.0",
])
def test_the_scan_catches(snippet):
    assert assignments_to_value_fields(snippet, "x.py")


@pytest.mark.parametrize("snippet", [
    "class Element:\n    def __init__(self):\n        self.valid = True",
    "class Block:\n    def seal(self):\n        self.size_bytes = 1",
    "element.other = 1",
    "size_bytes = element.size_bytes",
])
def test_the_scan_allows(snippet):
    assert assignments_to_value_fields(snippet, "x.py") == []


def test_the_protocol_core_knows_one_recorder():
    """Servers report to ``MetricsCollector.record_*`` only; ``deployment.py``
    keeps the tracer for its fault, membership and shard annotations."""
    mentions = sorted(path.name for path in (SRC / "repro/core").glob("*.py")
                      if "tracer" in path.read_text().lower())
    assert mentions == ["deployment.py"]


def test_every_module_imports_without_site_packages():
    """``-S`` keeps site-packages off ``sys.path`` — what a CI job that installs
    nothing sees — so a third-party import anywhere in ``src/`` fails here."""
    probe = ("import importlib, pkgutil, repro\n"
             "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
             "    importlib.import_module(module.name)\n")
    done = subprocess.run([sys.executable, "-S", "-c", probe], timeout=60,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
