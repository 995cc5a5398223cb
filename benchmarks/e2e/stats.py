"""Small statistics shared by the harness and its tests (stdlib only)."""

from __future__ import annotations

import math
import re
from typing import Sequence

#: What the benchmark contract accepts as a metric or workload name.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    return NAME_PATTERN.fullmatch(name) is not None


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``0 < q <= 1``)."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def censored_latencies(injected_at: Sequence[float],
                       committed_at: Sequence[float | None],
                       end_of_run: float, offered: int) -> list[float]:
    """Ascending add->commit latencies over *every offered* element.

    A committed element contributes ``committed - injected``.  An admitted
    but uncommitted one is censored at the horizon and contributes
    ``end_of_run - injected``: it has waited at least that long.  An offered
    element the system never admitted (refused at ingress) has no injection
    stamp and contributes the whole run, ``end_of_run``.
    """
    if len(injected_at) != len(committed_at) or offered < len(injected_at):
        raise ValueError("inconsistent latency sample")
    sample = [(end_of_run if done is None else done) - start
              for start, done in zip(injected_at, committed_at)]
    sample.extend([end_of_run] * (offered - len(injected_at)))
    sample.sort()
    return sample
