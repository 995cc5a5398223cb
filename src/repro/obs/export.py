"""Trace exporters and validators: Chrome ``trace_event`` JSON and JSONL.

Both formats serialise the same :class:`~repro.obs.trace.Tracer` content and
are **byte-deterministic**: timestamps are integer microseconds of simulated
time, keys are sorted, tracks get their thread ids by sorted name, and no
wall-clock, pid, or hash-order data is ever emitted — the same
``(scenario, seed, trace_sample)`` writes the same bytes from any worker
process.

* **chrome** — the ``trace_event`` JSON object format (a ``traceEvents``
  array plus ``displayTimeUnit``), loadable in Perfetto / ``chrome://tracing``
  with one named track per server plus the ``collector`` and ``ledger``
  tracks (``thread_name`` metadata events).  Phase observations are instant
  events carrying the batch size in ``args.count``.
* **jsonl** — one JSON object per line: a header, every timeline event, then
  one span line per sampled element with its per-phase timestamps.  This is
  the machine-diffable format the determinism tests byte-compare.

The validators parse a file back and check structural invariants; they are
what ``repro.obs validate-trace`` and ``make trace-smoke`` run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from .trace import Tracer, _us

#: Bumped whenever either trace layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def export_chrome(tracer: Tracer, label: str = "") -> str:
    """The tracer's timeline as Chrome ``trace_event`` JSON text."""
    tracks = tracer.tracks()
    tid_of = {track: tid for tid, track in enumerate(tracks)}
    events: list[dict[str, Any]] = [
        {"args": {"name": label or "repro"}, "name": "process_name",
         "ph": "M", "pid": 0},
    ]
    for track in tracks:
        events.append({"args": {"name": track}, "name": "thread_name",
                       "ph": "M", "pid": 0, "tid": tid_of[track]})
    for t, track, name, count in tracer.timeline():
        event: dict[str, Any] = {"name": name, "ph": "i", "pid": 0,
                                 "s": "t", "tid": tid_of[track], "ts": _us(t)}
        if count:
            event["args"] = {"count": count}
        events.append(event)
    document = {"displayTimeUnit": "ms", "traceEvents": events}
    return json.dumps(document, **_JSON_COMPACT) + "\n"


def export_jsonl(tracer: Tracer, label: str = "") -> str:
    """The tracer's timeline and element spans as JSONL text."""
    lines = [json.dumps({"format": "repro-trace",
                         "label": label,
                         "sample": tracer.sample,
                         "schema_version": TRACE_SCHEMA_VERSION,
                         "tracks": tracer.tracks(),
                         "type": "header"}, **_JSON_COMPACT)]
    for t, track, name, count in tracer.timeline():
        lines.append(json.dumps({"count": count, "name": name,
                                 "track": track, "ts_us": _us(t),
                                 "type": "event"}, **_JSON_COMPACT))
    spans = tracer.spans()
    for element_id in sorted(spans):
        phases = {phase: _us(t) for phase, t in spans[element_id].items()}
        lines.append(json.dumps({"element_id": element_id, "phases": phases,
                                 "type": "span"}, **_JSON_COMPACT))
    return "\n".join(lines) + "\n"


def write_trace(tracer: Tracer, path: "str | Path", fmt: str = "chrome",
                label: str = "") -> Path:
    """Write one trace file (creating parent directories) and return its path."""
    if fmt == "chrome":
        text = export_chrome(tracer, label=label)
    elif fmt == "jsonl":
        text = export_jsonl(tracer, label=label)
    else:
        raise ConfigurationError(
            f"unknown trace format {fmt!r} (expected 'chrome' or 'jsonl')")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


# -- validation ---------------------------------------------------------------

def validate_chrome_trace(text: str) -> dict[str, Any]:
    """Validate Chrome ``trace_event`` text; returns summary statistics.

    Checks the structural contract Perfetto relies on: a ``traceEvents``
    array, every event carrying a phase, ``thread_name`` metadata naming
    every (pid, tid) that instant events reference, and integer microsecond
    timestamps.  Raises :class:`ConfigurationError` on the first violation.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"trace is not valid JSON: {error}") from error
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ConfigurationError("chrome trace must be an object with a "
                                 "'traceEvents' array")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ConfigurationError("'traceEvents' must be an array")
    named_tracks: dict[tuple[int, int], str] = {}
    instants = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ConfigurationError(
                f"traceEvents[{index}] is not an event object with 'ph'")
        phase = event["ph"]
        if phase == "M":
            if event.get("name") == "thread_name":
                name = event.get("args", {}).get("name")
                if not isinstance(name, str) or not name:
                    raise ConfigurationError(
                        f"traceEvents[{index}]: thread_name metadata "
                        "without args.name")
                named_tracks[(event.get("pid", 0), event.get("tid", 0))] = name
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            raise ConfigurationError(
                f"traceEvents[{index}]: ts must be a non-negative integer "
                f"microsecond count, got {ts!r}")
        if not isinstance(event.get("name"), str):
            raise ConfigurationError(f"traceEvents[{index}]: missing name")
        key = (event.get("pid", 0), event.get("tid", 0))
        if key not in named_tracks:
            raise ConfigurationError(
                f"traceEvents[{index}]: event on unnamed track pid/tid {key}")
        instants += 1
    return {"events": instants, "tracks": sorted(named_tracks.values())}


def validate_jsonl_trace(text: str) -> dict[str, Any]:
    """Validate repro JSONL trace text; returns summary statistics."""
    lines = text.splitlines()
    if not lines:
        raise ConfigurationError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"trace header is not valid JSON: {error}") from error
    if (not isinstance(header, dict) or header.get("type") != "header"
            or header.get("format") != "repro-trace"):
        raise ConfigurationError(
            "first line must be a {'type': 'header', 'format': 'repro-trace'} "
            "object")
    version = header.get("schema_version", 0)
    if version > TRACE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"trace schema version {version} is newer than this library "
            f"understands ({TRACE_SCHEMA_VERSION})")
    tracks = header.get("tracks")
    if not isinstance(tracks, list):
        raise ConfigurationError("header.tracks must be a list")
    events = spans = 0
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"line {number} is not valid JSON: {error}") from error
        kind = record.get("type") if isinstance(record, dict) else None
        if kind == "event":
            if (not isinstance(record.get("ts_us"), int)
                    or record.get("track") not in tracks
                    or not isinstance(record.get("name"), str)):
                raise ConfigurationError(
                    f"line {number}: malformed event record")
            events += 1
        elif kind == "span":
            phases = record.get("phases")
            if (not isinstance(record.get("element_id"), int)
                    or not isinstance(phases, dict)
                    or "injected" not in phases
                    or not all(isinstance(v, int) for v in phases.values())):
                raise ConfigurationError(
                    f"line {number}: malformed span record")
            spans += 1
        else:
            raise ConfigurationError(
                f"line {number}: unknown record type {kind!r}")
    return {"events": events, "spans": spans, "tracks": sorted(tracks)}


def validate_trace_file(path: "str | Path", fmt: str = "auto") -> dict[str, Any]:
    """Validate a trace file on disk, sniffing the format when ``auto``."""
    text = Path(path).read_text()
    if fmt == "auto":
        fmt = "jsonl" if text.startswith('{"') and '"type":"header"' in \
            text.split("\n", 1)[0] else "chrome"
    if fmt == "chrome":
        return {"format": "chrome", **validate_chrome_trace(text)}
    if fmt == "jsonl":
        return {"format": "jsonl", **validate_jsonl_trace(text)}
    raise ConfigurationError(
        f"unknown trace format {fmt!r} (expected 'auto', 'chrome', 'jsonl')")
