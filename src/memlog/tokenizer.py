"""Tokenization of parsed logs into six feature groups.

``tokenize`` reads a log as ``parse_log`` returns it, so every hex scalar
is already ``0x``-lowercase or empty.  Each log field feeds exactly one
group, so the groups partition the token stream.  Scalar values become
single tokens; the two exceptions are byte strings, which split into
4-byte hex words (all of them from one ``bytes.hex`` call), and command
lines, which split on whitespace.  The stack snapshot, most of a large
log's tokens, is kept as bytes in :class:`GroupedTokens`: its words are
made as strings only when a group is read, and the vectorizer matches
them against the vocabulary as integers instead.  Three value rules keep
the vocabulary dense:

- text: lowercased, with each run of whitespace inside it turned into
  ``_`` and none at either end;
- basename: a filesystem path keeps only its last ``\\``/``/``
  component, then follows the text rule;
- page: an address is bucketed to its 4 KiB page.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Optional

from .logmodel import CanonicalLog, PeBlock

#: A 64-bit address with the low 12 bits zeroed: its 4 KiB page.
_PAGE_MASK = 0xFFFF_FFFF_FFFF_F000


class GroupId(IntEnum):
    STACK = 0
    REGISTERS = 1
    OPCODES = 2
    MODULES = 3
    RESOURCES = 4
    PROCESS_META = 5


GROUP_COUNT = len(GroupId)


@dataclass
class GroupedTokens:
    """Token lists for one log, indexed by :class:`GroupId`; the stack group
    is ``stack`` (the trace's tokens) followed by the hex words of ``snapshot``."""

    stack: list[str] = field(default_factory=list)
    registers: list[str] = field(default_factory=list)
    opcodes: list[str] = field(default_factory=list)
    modules: list[str] = field(default_factory=list)
    resources: list[str] = field(default_factory=list)
    process_meta: list[str] = field(default_factory=list)
    snapshot: bytes = b""

    def lists(self) -> tuple[list[str], ...]:
        """The six token lists in :class:`GroupId` order, the stack's without
        the snapshot's words."""
        return (
            self.stack,
            self.registers,
            self.opcodes,
            self.modules,
            self.resources,
            self.process_meta,
        )

    def group(self, group_id: GroupId) -> list[str]:
        if group_id == GroupId.STACK and self.snapshot:
            return self.stack + hex_words(self.snapshot)
        return self.lists()[group_id]

    def __iter__(self) -> Iterator[list[str]]:
        for group_id in GroupId:
            yield self.group(group_id)

    def total_tokens(self) -> int:
        # the snapshot's words are counted, not made; only the last may be short
        return sum(map(len, self.lists())) + -(-len(self.snapshot) // 4)


def _text(raw: str) -> str:
    return "_".join(raw.lower().split())


def _basename(path: str) -> str:
    return "_".join(path.replace("\\", "/").rstrip("/").rpartition("/")[2].lower().split())


def _page(address: str) -> str:
    return "0x%x" % (int(address, 16) & _PAGE_MASK) if address else ""


def hex_words(data: bytes) -> list[str]:
    """Split a byte string into 4-byte hex words; a short tail stays shorter.

    One ``bytes.hex`` call spaces the words: a negative group size counts
    from the left, so only the last word can be short.
    """
    return data.hex(" ", -4).split()


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
        _pair("pe_entry", _page(hex(pe.entry_point_rva))),
        f"pe_size={pe.file_size}",
        f"pe_entropy={pe.entropy_bits:.2f}",
        _pair("pe_pdb", _basename(pe.pdb_path)),
        _pair("pe_module", _text(pe.export_module_name)),
    )
    return tokens


def tokenize(log: CanonicalLog) -> GroupedTokens:
    """Tokenize one parsed log; every token is non-empty, lowercase
    and whitespace-free."""
    out = GroupedTokens()
    md = log.metadata
    rt = log.runtime

    out.stack.extend(filter(None, map(_text, rt.stack_trace)))
    out.snapshot = rt.stack_snapshot

    _extend(
        out.registers,
        *(_pair(name, _page(value)) for name, value in sorted(rt.registers.items())),
        _pair("eflags", rt.eflags),
    )

    for _, snippet in sorted(rt.register_snippets.items()):
        out.opcodes.extend(hex_words(snippet))
    for access in rt.illegal_accesses:
        out.opcodes.extend(hex_words(access.data))

    out.modules.extend(filter(None, [_basename(module.path) for module in rt.loaded_modules]))

    out.resources.extend(filter(None, [
        _basename(resource.path) for resource in rt.loaded_resources + rt.opened_resources
    ]))
    _extend(
        out.resources,
        *(_text(embedded.magic_type) for embedded in rt.embedded_files),
        *map(_text, rt.found_urls + rt.found_ips + rt.scheduled_tasks + rt.hklm_run_entries),
    )

    _extend(
        out.process_meta,
        _basename(md.exe_name),
        _text(md.exe_hash),
        _pair("integrity", md.integrity_level.value if md.integrity_level else ""),
        _pair("privilege", md.privilege_level.value if md.privilege_level else ""),
        _pair("arch", md.exe_arch.value if md.exe_arch else ""),
        _text(md.os_name),
        *map(_text, rt.command_line.split()),
    )
    if rt.parent_process is not None:
        parent = rt.parent_process
        _extend(
            out.process_meta,
            _pair("parent", _basename(parent.path)),
            _pair("parent_hash", _text(parent.hash)),
            _pair(
                "parent_integrity",
                parent.integrity_level.value if parent.integrity_level else "",
            ),
        )
    if log.pe is not None:
        out.process_meta.extend(_pe_field_tokens(log.pe))

    return out
