"""Flat key=value config files shared by the service and the agent.

Format: one ``key = value`` pair per line, blank lines ignored.  ``#``
starts a comment anywhere on a line, even inside quotes.  Values keep
their string form; the CLI checks each like the flag it stands for.
Surrounding single or double quotes on a value are stripped so paths with
spaces survive.  Stdlib only: the agent process imports this module and has a
hard memory budget that rules out heavier parsers.
"""
from __future__ import annotations


def parse_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.split("#", 1)[0].strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
                value = value[1:-1]
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            values[key] = value
    return values
