"""The docs name only flags and modules that exist.

Scans every tracked Markdown file under a subdirectory and the
top-level reference docs (README, DESIGN, EXPERIMENTS); the other
top-level files are project logs and paper notes:

* each ``--flag`` after ``repro <command>`` (in a code block or a
  backticked span) must be an option of that subcommand's parser;
* every other backticked ``--flag`` must be an option of some ``repro``
  subcommand or of ``perfbench/run.py`` (a backticked ``pytest``
  command's flags are pytest's and are not checked);
* every backticked dotted ``repro.*`` name must import (a module, or an
  attribute or dataclass field reached from one).

File paths are not checked: relative names in prose resolve against
too many different directories to check without false alarms.
"""

from __future__ import annotations

import argparse
import importlib
import re
import shlex
import subprocess
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

#: Top-level docs that describe this version; the other top-level Markdown
#: files are logs and paper notes that quote flags and names of other versions.
TOP_LEVEL = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}

_FENCE = re.compile(r"^\s*(```|~~~)")
_INLINE = re.compile(r"`([^`\n]+)`")
#: ``repro <command>`` and its arguments, up to a pipe, list or redirect.
_COMMAND = re.compile(r"(?<![\w./-])repro\s+([a-z][\w-]*)([^|;&<>]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
_PYTEST = re.compile(r"(?<![\w./-])pytest\b")


def _markdown_files() -> list[Path]:
    try:
        listed = subprocess.run(
            ["git", "ls-files", "*.md"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        listed = [
            str(path.relative_to(ROOT))
            for path in ROOT.rglob("*.md")
            if not path.relative_to(ROOT).parts[0].startswith(".")
        ]
    return sorted(
        ROOT / name
        for name in listed
        if Path(name).parent != Path(".") or name in TOP_LEVEL
    )


def _code_snippets(text: str) -> tuple[list[str], list[str]]:
    """(command lines of fenced blocks, backticked inline spans)."""
    lines: list[str] = []
    spans: list[str] = []
    fenced = False
    for line in text.replace("\\\n", " ").splitlines():
        if _FENCE.match(line):
            fenced = not fenced
        elif fenced:
            lines.append(line)
        else:
            spans.extend(_INLINE.findall(line))
    return lines, spans


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def _all_options(parser: argparse.ArgumentParser) -> set[str]:
    options = _options(parser)
    for child in _subparsers(parser).values():
        options |= _all_options(child)
    return options


def _perfbench_options() -> set[str]:
    source = (ROOT / "perfbench" / "run.py").read_text()
    return set(re.findall(r"add_argument\(\s*\"(--[\w-]+)\"", source))


def _command_flags(snippet: str, parser: argparse.ArgumentParser):
    """Yield (command, flag, known) for each flag of a repro command."""
    for match in _COMMAND.finditer(snippet):
        commands = _subparsers(parser)
        name = match.group(1)
        if name not in commands:
            continue  # prose or Python (``from repro import``), not a command
        sub, path = commands[name], [name]
        for token in shlex.split(match.group(2), comments=True):
            if token in _subparsers(sub):
                sub = _subparsers(sub)[token]
                path.append(token)
            elif token.startswith("--"):
                flag = token.split("=", 1)[0]
                yield f"repro {' '.join(path)}", flag, flag in _options(sub)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name and not name.startswith(f"{exc.name}."):
                raise
            continue
        for attr in parts[cut:]:
            if hasattr(target, attr):
                target = getattr(target, attr)
            elif attr in getattr(target, "__dataclass_fields__", {}):
                return attr == parts[-1]
            else:
                return False
        return True
    return False


def _violations(path: Path) -> list[str]:
    parser = build_parser()
    known = _all_options(parser) | _perfbench_options()
    lines, spans = _code_snippets(path.read_text())
    problems = []
    for snippet in lines + spans:
        for command, flag, ok in _command_flags(snippet, parser):
            if not ok:
                problems.append(f"{command}: no option {flag}")
    for span in spans:
        if _COMMAND.search(span):
            continue  # its flags were checked against their subcommand
        if not _PYTEST.search(span):
            problems.extend(
                f"`{span}`: no repro or perfbench option {flag}"
                for flag in _FLAG.findall(span)
                if flag not in known
            )
        problems.extend(
            f"`{span}`: {dotted} does not import"
            for dotted in _DOTTED.findall(span)
            if not _resolves(dotted)
        )
    return problems


@pytest.mark.parametrize(
    "path",
    _markdown_files(),
    ids=lambda path: str(path.relative_to(ROOT)),
)
def test_doc_references_exist(path):
    assert _violations(path) == []
