"""Exception hierarchy shared across the Setchain reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors.
"""

from __future__ import annotations

import difflib
from typing import Mapping, TypeVar

T = TypeVar("T")


def did_you_mean(unknown: str, candidates: list[str]) -> str:
    """Error-message suffix naming the closest valid spellings.

    Shared by every name-lookup surface (builder methods, :func:`check_name`
    over the scenario catalog and the component tables) so lookup failures read the
    same everywhere.
    """
    close = difflib.get_close_matches(unknown, candidates, n=3, cutoff=0.5)
    if close:
        return f"; did you mean {' or '.join(repr(c) for c in close)}?"
    shown = sorted(candidates)
    if len(shown) > 10:
        return (f"; valid names include {', '.join(shown[:10])}, "
                f"… ({len(shown)} total)")
    return f"; valid names: {', '.join(shown)}"


def check_name(kind: str, name: str, table: Mapping[str, T]) -> T:
    """``table[name]``, or a :class:`ConfigurationError` with a did-you-mean hint.

    The one refusal of an unknown name (scenario, algorithm, ledger backend,
    latency profile, fault kind, Byzantine behaviour).
    """
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}" + did_you_mean(name, list(table))) from None


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is out of range or inconsistent with another."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly (e.g. time going backwards)."""


class NetworkError(ReproError):
    """A network-level failure: unknown destination, closed channel, oversized message."""


class CryptoError(ReproError):
    """Signature/verification failure or malformed key material."""


class LedgerError(ReproError):
    """Block-based ledger misuse: invalid transaction, unknown subscriber, etc."""


class MempoolFullError(LedgerError):
    """The mempool rejected a transaction because a count or byte cap was reached."""


class ConsensusError(LedgerError):
    """The BFT consensus engine reached an inconsistent state."""


class SetchainError(ReproError):
    """Setchain-level protocol violation (invalid element, duplicate add, bad proof)."""


class InvalidElementError(SetchainError):
    """A malformed element (the pseudocode's ``valid_element`` fails)."""


class PropertyViolation(ReproError):
    """One of the Setchain correctness properties (1-8) was observed to fail."""

    def __init__(self, property_name: str, detail: str) -> None:
        super().__init__(f"{property_name}: {detail}")
        self.property_name = property_name
        self.detail = detail
