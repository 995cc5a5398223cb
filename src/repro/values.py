"""The base of the hot value types: ``Element``, ``Transaction``, ``EpochProof``
and ``HashBatch``, the objects built per element, transaction and proof.

They are plain ``__slots__`` classes with a straight-line constructor — a
frozen dataclass pays one ``object.__setattr__`` call per field — and are
immutable *by contract*: no field is assigned after construction (a tier-1
test scans ``src/`` for it).  Equality, ``hash()`` and ``repr`` are those of
the frozen dataclass each one replaced: over ``_fields``, in that order.
"""

from __future__ import annotations

from typing import Any


class SlotValue:
    """Equality, hash and repr over the subclass's ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
