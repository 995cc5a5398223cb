"""The README is executable: its ``python`` blocks run verbatim, in order, in
one namespace, in a scratch directory (a paper-sized run names its scale); each
``python -m repro`` line of a ``console`` block parses with the real command
line and names known scenarios; each ``make`` target it names exists.
``make reach`` runs this file among its sources."""

import re
import shlex
from pathlib import Path

import pytest

from repro.api.catalog import SCENARIOS, select
from repro.api.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def blocks(language: str) -> list[str]:
    return [body for lang, body in re.findall(r"^```(\w*)\n(.*?)^```", README,
                                              re.S | re.M) if lang == language]


def commands() -> list[list[str]]:
    """Each ``$ ...`` line of the console blocks, continuations joined."""
    return [shlex.split(line[2:], comments=True) for body in blocks("console")
            for line in body.replace("\\\n", " ").splitlines()
            if line.startswith("$ ")]


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    sources = blocks("python")
    assert len(sources) >= 12
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": "readme"}
    for index, source in enumerate(sources, 1):
        exec(compile(source, f"README.md python block {index}", "exec"), namespace)
    assert (tmp_path / "ledger.sqlite").exists()


def test_repro_command_lines_parse():
    parser = _build_parser()
    lines = [argv[3:] for argv in commands() if argv[:3] == ["python", "-m", "repro"]]
    assert len(lines) >= 20
    for argv in lines:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        for name in (getattr(args, "name", None), getattr(args, "scenario", None)):
            assert name is None or name in SCENARIOS, shlex.join(argv)
        if args.command in ("list-scenarios", "sweep"):
            assert select(args.tag, args.contains, args.family), shlex.join(argv)


def test_make_targets_exist():
    targets = set(re.findall(r"^([\w-]+):", (ROOT / "Makefile").read_text(), re.M))
    named = set(re.findall(r"(?:`|\$ )make\s+([\w-]+)", README))
    assert named and named <= targets, sorted(named - targets)
