"""Tokenization of canonical logs into six feature groups.

Each log field feeds exactly one group, so the groups partition the
token stream.  Scalar values become single tokens; the two exceptions
are byte strings, which split into 4-byte hex words, and command lines,
which split on whitespace.  Canonicalization keeps the vocabulary dense:
everything is lowercased, addresses are bucketed to their 4 KiB page,
filesystem paths are reduced to their basename, and whitespace inside a
preserved value becomes ``_``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterator, Optional

from .logmodel import CanonicalLog, PeBlock

_WHITESPACE_RE = re.compile(r"\s+")
_HEX_VALUE_RE = re.compile(r"^(0[xX])?[0-9a-fA-F]+$")

#: Low bits zeroed when bucketing an address to its page.
PAGE_MASK = ~0xFFF


class GroupId(IntEnum):
    STACK = 0
    REGISTERS = 1
    OPCODES = 2
    MODULES = 3
    RESOURCES = 4
    PROCESS_META = 5


GROUP_COUNT = len(GroupId)


class ValueKind(Enum):
    TEXT = "text"
    ADDRESS = "address"
    PATH = "path"


@dataclass
class GroupedTokens:
    """Token lists for one log, indexed by :class:`GroupId`."""

    stack: list[str] = field(default_factory=list)
    registers: list[str] = field(default_factory=list)
    opcodes: list[str] = field(default_factory=list)
    modules: list[str] = field(default_factory=list)
    resources: list[str] = field(default_factory=list)
    process_meta: list[str] = field(default_factory=list)

    def group(self, group_id: GroupId) -> list[str]:
        return (
            self.stack,
            self.registers,
            self.opcodes,
            self.modules,
            self.resources,
            self.process_meta,
        )[group_id]

    def __iter__(self) -> Iterator[list[str]]:
        for group_id in GroupId:
            yield self.group(group_id)

    def total_tokens(self) -> int:
        return sum(len(g) for g in self)


def canonicalize_value(raw: str, kind: ValueKind = ValueKind.TEXT) -> str:
    """Canonical token form of a scalar value; empty string when nothing survives.

    Addresses fall back to text rules when they do not parse as hex.
    """
    if kind is ValueKind.ADDRESS and _HEX_VALUE_RE.match(raw):
        return "0x%x" % (int(raw, 16) & PAGE_MASK & 0xFFFFFFFFFFFFFFFF)
    if kind is ValueKind.PATH:
        parts = [p for p in re.split(r"[\\/]+", raw) if p]
        raw = parts[-1] if parts else ""
    return _WHITESPACE_RE.sub("_", raw.strip().lower())


def hex_words(data: bytes) -> list[str]:
    """Split a byte string into 4-byte hex words; a short tail stays shorter."""
    return [data[i:i + 4].hex() for i in range(0, len(data), 4)]


def _pair(prefix: str, value: str) -> Optional[str]:
    return f"{prefix}={value}" if value else None


def _extend(tokens: list[str], *candidates: Optional[str]) -> None:
    for tok in candidates:
        if tok:
            tokens.append(tok)


def _pe_field_tokens(pe: PeBlock) -> list[str]:
    tokens: list[str] = []
    _extend(
        tokens,
        _pair("pe_type", pe.pe_type.value if pe.pe_type else ""),
        _pair("pe_arch", pe.arch.value if pe.arch else ""),
        f"pe_sections={pe.section_count}",
        f"pe_imports={pe.import_count}",
        f"pe_exports={pe.export_count}",
        f"pe_characteristics={pe.characteristics}",
        f"pe_compile_ts={pe.compile_timestamp}",
        f"pe_signed={str(pe.signed).lower()}",
        f"pe_created={pe.created}",
        f"pe_modified={pe.modified}",
        _pair("pe_entry", canonicalize_value(hex(pe.entry_point_rva), ValueKind.ADDRESS)),
        f"pe_size={pe.file_size}",
        f"pe_entropy={pe.entropy_bits:.2f}",
        _pair("pe_pdb", canonicalize_value(pe.pdb_path, ValueKind.PATH)),
        _pair("pe_module", canonicalize_value(pe.export_module_name, ValueKind.TEXT)),
    )
    return tokens


def tokenize(log: CanonicalLog) -> GroupedTokens:
    """Tokenize one canonical log; every token is non-empty, lowercase
    and whitespace-free."""
    out = GroupedTokens()
    md = log.metadata
    rt = log.runtime

    for frame in rt.stack_trace:
        _extend(out.stack, canonicalize_value(frame, ValueKind.TEXT))
    out.stack.extend(hex_words(rt.stack_snapshot))

    for name, value in sorted(rt.registers.items()):
        _extend(out.registers, _pair(name, canonicalize_value(value, ValueKind.ADDRESS)))
    _extend(out.registers, _pair("eflags", canonicalize_value(rt.eflags, ValueKind.TEXT)))

    for _, snippet in sorted(rt.register_snippets.items()):
        out.opcodes.extend(hex_words(snippet))
    for access in rt.illegal_accesses:
        out.opcodes.extend(hex_words(access.data))

    for module in rt.loaded_modules:
        _extend(out.modules, canonicalize_value(module.path, ValueKind.PATH))

    for resource in rt.loaded_resources:
        _extend(out.resources, canonicalize_value(resource.path, ValueKind.PATH))
    for resource in rt.opened_resources:
        _extend(out.resources, canonicalize_value(resource.path, ValueKind.PATH))
    for embedded in rt.embedded_files:
        _extend(out.resources, canonicalize_value(embedded.magic_type, ValueKind.TEXT))
    for url in rt.found_urls:
        _extend(out.resources, canonicalize_value(url, ValueKind.TEXT))
    for ip in rt.found_ips:
        _extend(out.resources, canonicalize_value(ip, ValueKind.TEXT))
    for task in rt.scheduled_tasks:
        _extend(out.resources, canonicalize_value(task, ValueKind.TEXT))
    for entry in rt.hklm_run_entries:
        _extend(out.resources, canonicalize_value(entry, ValueKind.TEXT))

    _extend(
        out.process_meta,
        canonicalize_value(md.exe_name, ValueKind.PATH),
        canonicalize_value(md.exe_hash, ValueKind.TEXT),
        _pair("integrity", md.integrity_level.value if md.integrity_level else ""),
        _pair("privilege", md.privilege_level.value if md.privilege_level else ""),
        _pair("arch", md.exe_arch.value if md.exe_arch else ""),
        canonicalize_value(md.os_name, ValueKind.TEXT),
    )
    for piece in rt.command_line.split():
        _extend(out.process_meta, canonicalize_value(piece, ValueKind.TEXT))
    if rt.parent_process is not None:
        parent = rt.parent_process
        _extend(
            out.process_meta,
            _pair("parent", canonicalize_value(parent.path, ValueKind.PATH)),
            _pair("parent_hash", canonicalize_value(parent.hash, ValueKind.TEXT)),
            _pair(
                "parent_integrity",
                parent.integrity_level.value if parent.integrity_level else "",
            ),
        )
    if log.pe is not None:
        out.process_meta.extend(_pe_field_tokens(log.pe))

    return out
