"""Checkers for the Setchain correctness properties (paper §2, Properties 1-8).

Safety properties (1, 5, 6, 7) are checked against any snapshot.  Liveness
properties (2, 3, 4, 8) are phrased in the paper as "eventually ..."; their
checkers are meant to be applied to *final* views taken after the simulation
has drained, where "eventually" has already had a chance to happen.

Each checker returns a list of :class:`~repro.errors.PropertyViolation`; an
empty list means the property holds for the supplied views.  ``check_all``
aggregates Properties 1 and 3-8; Property 2 (Add-Get-Local) needs the
elements each server accepted, which no run records, so only its checker's
own tests call :func:`check_add_get_local`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..errors import PropertyViolation
from ..workload.elements import Element
from .types import SetchainView


def check_consistent_sets(view: SetchainView, server: str = "?") -> list[PropertyViolation]:
    """Property 1 (Consistent-Sets): every epoch is a subset of the_set."""
    violations: list[PropertyViolation] = []
    for epoch_number, elements in view.history.items():
        missing = elements - view.the_set
        if missing:
            violations.append(PropertyViolation(
                "Consistent-Sets",
                f"server {server}: epoch {epoch_number} has {len(missing)} element(s) "
                f"not in the_set"))
    return violations


def check_add_get_local(view: SetchainView, added_elements: Iterable[Element],
                        server: str = "?") -> list[PropertyViolation]:
    """Property 2 (Add-Get-Local): valid elements added at this server appear in its the_set."""
    violations: list[PropertyViolation] = []
    for element in added_elements:
        if element.valid and element not in view.the_set:
            violations.append(PropertyViolation(
                "Add-Get-Local",
                f"server {server}: added element {element.element_id} missing from the_set"))
    return violations


def check_get_global(views: Mapping[str, SetchainView]) -> list[PropertyViolation]:
    """Property 3 (Get-Global): an element in one correct server's the_set is in all."""
    violations: list[PropertyViolation] = []
    names = sorted(views)
    for holder in names:
        for element in views[holder].the_set:
            for other in names:
                if other == holder:
                    continue
                if element not in views[other].the_set:
                    violations.append(PropertyViolation(
                        "Get-Global",
                        f"element {element.element_id} in {holder}'s the_set but "
                        f"missing from {other}'s"))
    return violations


def check_eventual_get(view: SetchainView, server: str = "?") -> list[PropertyViolation]:
    """Property 4 (Eventual-Get): every element of the_set eventually reaches history."""
    in_epochs = view.elements_in_epochs()
    violations: list[PropertyViolation] = []
    for element in view.the_set:
        if element not in in_epochs:
            violations.append(PropertyViolation(
                "Eventual-Get",
                f"server {server}: element {element.element_id} in the_set but in no epoch"))
    return violations


def check_unique_epoch(view: SetchainView, server: str = "?") -> list[PropertyViolation]:
    """Property 5 (Unique-Epoch): epochs are pairwise disjoint."""
    violations: list[PropertyViolation] = []
    seen: dict[Element, int] = {}
    for epoch_number in sorted(view.history):
        for element in view.history[epoch_number]:
            previous = seen.get(element)
            if previous is not None:
                violations.append(PropertyViolation(
                    "Unique-Epoch",
                    f"server {server}: element {element.element_id} in epochs "
                    f"{previous} and {epoch_number}"))
            else:
                seen[element] = epoch_number
    return violations


def check_consistent_gets(views: Mapping[str, SetchainView]) -> list[PropertyViolation]:
    """Property 6 (Consistent-Gets): common-prefix epochs are identical across servers."""
    violations: list[PropertyViolation] = []
    names = sorted(views)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            view_a, view_b = views[first], views[second]
            common = min(view_a.epoch, view_b.epoch)
            for epoch_number in range(1, common + 1):
                if view_a.history.get(epoch_number) != view_b.history.get(epoch_number):
                    violations.append(PropertyViolation(
                        "Consistent-Gets",
                        f"epoch {epoch_number} differs between {first} and {second}"))
    return violations


def check_add_before_get(view: SetchainView, all_added: Iterable[Element],
                         server: str = "?") -> list[PropertyViolation]:
    """Property 7 (Add-before-Get): the_set only contains elements some client added."""
    added_ids = {element.element_id for element in all_added}
    violations: list[PropertyViolation] = []
    for element in view.the_set:
        if element.element_id not in added_ids:
            violations.append(PropertyViolation(
                "Add-before-Get",
                f"server {server}: element {element.element_id} was never added by a client"))
    return violations


def check_valid_epoch_proofs(view: SetchainView, quorum: int,
                             server: str = "?") -> list[PropertyViolation]:
    """Property 8 (Valid-Epoch): every epoch eventually has >= f+1 proofs in the view."""
    violations: list[PropertyViolation] = []
    for epoch_number in range(1, view.epoch + 1):
        signers = {p.signer for p in view.proofs_for(epoch_number)}
        if len(signers) < quorum:
            violations.append(PropertyViolation(
                "Valid-Epoch",
                f"server {server}: epoch {epoch_number} has only {len(signers)} "
                f"proof signer(s), quorum is {quorum}"))
    return violations


def check_all(views: Mapping[str, SetchainView], quorum: int,
              all_added: Sequence[Element] | None = None,
              include_liveness: bool = True,
              groups: Mapping[str, str] | None = None) -> list[PropertyViolation]:
    """Run the checkers of Properties 1 and 3-8 over the given correct-server
    views (5, Add-before-Get, only when ``all_added`` is given).

    ``groups`` (server name -> group key) scopes the cross-server properties
    (3, Get-Global; 6, Consistent-Gets) to servers in the same group.  A
    heterogeneous deployment passes its algorithm groups here: servers running
    different algorithms are separate Setchain instances sharing one ledger
    substrate, so cross-group epoch agreement is neither expected nor claimed.
    The per-view properties (1, 4, 5, 7, 8) and the quorum are always over
    the full server set.  ``groups=None`` (or a single group) checks every
    pair, exactly as before.
    """
    violations: list[PropertyViolation] = []
    for server, view in views.items():
        violations.extend(check_consistent_sets(view, server))
        violations.extend(check_unique_epoch(view, server))
        if all_added is not None:
            violations.extend(check_add_before_get(view, all_added, server))
        if include_liveness:
            violations.extend(check_eventual_get(view, server))
            violations.extend(check_valid_epoch_proofs(view, quorum, server))
    if groups is None:
        grouped_views: list[Mapping[str, SetchainView]] = [views]
    else:
        by_group: dict[str, dict[str, SetchainView]] = {}
        for server, view in views.items():
            by_group.setdefault(groups.get(server, "?"), {})[server] = view
        grouped_views = [by_group[key] for key in sorted(by_group)]
    for group in grouped_views:
        violations.extend(check_consistent_gets(group))
        if include_liveness:
            violations.extend(check_get_global(group))
    return violations
