"""The CLI option surface is pinned: ``build_parser()`` must match a golden.

Every subcommand's actions are recorded with their flags, dest, type
name, default, choices, nargs, required flag and action class.  Help
text is deliberately left out, so wording may change, but any added,
removed or retyped option (or a changed default) shows up as a diff.

Regenerate after a deliberate surface change with::

    PYTHONPATH=src python tests/test_cli_surface.py tests/golden/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"


def _action_record(action: argparse.Action) -> dict:
    return {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "type": getattr(action.type, "__name__", None),
        "default": action.default,
        "choices": list(action.choices) if action.choices is not None else None,
        "nargs": action.nargs,
        "required": action.required,
        "action": type(action).__name__,
    }


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """JSON-able description of every option of every subcommand."""
    surface = {"repro": [], "commands": {}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in sorted(action.choices.items()):
                records = [
                    _action_record(a)
                    for a in sub._actions
                    if not isinstance(a, argparse._HelpAction)
                ]
                surface["commands"][name] = sorted(
                    records, key=lambda r: (r["flags"], r["dest"])
                )
        elif not isinstance(action, argparse._HelpAction):
            surface["repro"].append(_action_record(action))
    return surface


def render(parser: argparse.ArgumentParser) -> str:
    return json.dumps(cli_surface(parser), indent=2, sort_keys=True) + "\n"


def test_cli_surface_matches_golden():
    from repro.cli import build_parser

    assert render(build_parser()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    from repro.cli import build_parser

    Path(sys.argv[1]).write_text(render(build_parser()), encoding="utf-8")
