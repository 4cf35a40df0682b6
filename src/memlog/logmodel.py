"""Canonical runtime-log schema: parsing, cleaning and serialization.

A raw log is a JSON document captured at process launch.  ``parse_log``
turns raw bytes into a :class:`CanonicalLog` plus a :class:`CleaningReport`
describing every repair it had to make.  Parsing never invents data:
unknown fields are ignored, wrong-typed values are dropped, numeric values
outside their declared ranges are clamped, and missing fields stay as
explicit empties.

``serialize_log`` emits canonical JSON (sorted keys, compact separators,
UTF-8).  Parsing canonical output is always clean, so
``parse(serialize(parse(x)))`` yields an empty report for any ``x``.

The dataclasses below are the schema: a field is named only there, and its
type decides how it is read.  At import, ``_SCHEMA`` turns them into one
table per block class, (attribute, JSON key, reader, reader argument) per
field, and each table into a generated reader, of one block or of a list
of blocks, that does the parsing and cleaning.  Writing needs no second table:
``serialize_log`` is ``json.dumps`` of the log itself, whose hook writes a
block as its JSON keys from ``_SCHEMA``, an Enum as its value and bytes as
hex.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import Field, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Optional, Union, get_args, get_origin, get_type_hints

from .errors import EmptyDocument, NotJson, OversizeLog

DEFAULT_MAX_BYTES = 500 * 1024

#: A hex scalar, matched against the whole value (``fullmatch``).
_HEX_RE = re.compile(r"(0[xX])?[0-9a-fA-F]+")
_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")

#: Sentinel produced for NaN/Infinity literals; dropped as a wrong type.
_BAD_CONSTANT = object()

#: Tag for a ``str`` field holding a hex scalar such as an address or a
#: flags word.  The other tags are ``"key"`` (a JSON key that differs from
#: the attribute name) and ``"range"`` (the ``(low, high)`` clamp of a
#: ``float`` field, which every ``float`` field must carry).
_HEX = {"hex": True}


class Label(Enum):
    MALICIOUS = "malicious"
    BENIGN = "benign"


class IntegrityLevel(Enum):
    UNTRUSTED = "untrusted"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    SYSTEM = "system"


class PrivilegeLevel(Enum):
    GUEST = "guest"
    STANDARD = "standard"
    ADMINISTRATOR = "administrator"


class Arch(Enum):
    X86 = "x86"
    X64 = "x64"


class PeType(Enum):
    PE32 = "pe32"
    PE32PLUS = "pe32plus"


@dataclass
class Anonymized:
    """Identity-bearing strings, pseudonymized by the log producer before sharing."""

    username: str = ""
    domain_name: str = ""
    machine_name: str = ""
    ip_address: str = ""
    serial_number: str = ""


@dataclass
class Metadata:
    """Scalar facts about the executable and the host at launch time."""

    timestamp: int = 0
    os_name: str = ""
    os_build: str = ""
    exe_path: str = ""
    exe_name: str = ""
    exe_hash: str = ""
    file_created: int = 0
    file_modified: int = 0
    referral_url: str = ""
    user_login_time: int = 0
    thread_count: int = 0
    integrity_level: Optional[IntegrityLevel] = None
    exe_arch: Optional[Arch] = None
    work_cycles: int = 0
    kernel_time_ms: int = 0
    process_id: int = 0
    thread_id: int = 0
    privilege_level: Optional[PrivilegeLevel] = None
    timezone: str = ""


@dataclass
class ResourceEntry:
    path: str = ""
    size: int = 0
    hash: str = ""
    created: int = 0
    modified: int = 0


@dataclass
class ModuleEntry:
    base: str = field(default="", metadata=_HEX)
    end: str = field(default="", metadata=_HEX)
    size: int = 0
    link_meta: str = ""
    path: str = ""


@dataclass
class IllegalAccess:
    address: str = field(default="", metadata=_HEX)
    data: bytes = field(default=b"", metadata={"key": "bytes"})


@dataclass
class EmbeddedFile:
    magic_type: str = ""
    offset: int = 0


@dataclass
class RegistryAttempt:
    key: str = ""
    result: str = ""


@dataclass
class Injector:
    pid: int = 0
    ppid: int = 0
    hash: str = ""
    path: str = ""


@dataclass
class ParentProcess:
    pid: int = 0
    path: str = ""
    hash: str = ""
    command_line: str = ""
    integrity_level: Optional[IntegrityLevel] = None


@dataclass
class Runtime:
    """In-memory state sampled from the monitored process."""

    base_address: str = field(default="", metadata=_HEX)
    command_line: str = ""
    registers: dict[str, str] = field(default_factory=dict)
    register_snippets: dict[str, bytes] = field(default_factory=dict)
    eflags: str = field(default="", metadata=_HEX)
    signature: str = ""
    loaded_resources: list[ResourceEntry] = field(default_factory=list)
    vmem_free: int = 0
    vmem_used: int = 0
    hklm_run_entries: list[str] = field(default_factory=list)
    dep_enabled: bool = False
    illegal_accesses: list[IllegalAccess] = field(default_factory=list)
    import_table_hash: str = ""
    injector: Optional[Injector] = None
    auto_elevate: bool = False
    loaded_modules: list[ModuleEntry] = field(default_factory=list)
    opened_resources: list[ResourceEntry] = field(default_factory=list)
    parent_process: Optional[ParentProcess] = None
    process_blocks: list[str] = field(default_factory=list)
    stack_snapshot: bytes = b""
    stack_trace: list[str] = field(default_factory=list)
    embedded_files: list[EmbeddedFile] = field(default_factory=list)
    found_urls: list[str] = field(default_factory=list)
    found_ips: list[str] = field(default_factory=list)
    scheduled_tasks: list[str] = field(default_factory=list)
    registry_attempts: list[RegistryAttempt] = field(default_factory=list)


@dataclass
class SectionInfo:
    name: str = ""
    virtual_size: int = 0
    raw_size: int = 0
    characteristics: int = 0


@dataclass
class PeBlock:
    """Static header features of the launched executable image."""

    pe_type: Optional[PeType] = None
    section_count: int = 0
    import_count: int = 0
    export_count: int = 0
    characteristics: int = 0
    compile_timestamp: int = 0
    signed: bool = False
    arch: Optional[Arch] = None
    created: int = 0
    modified: int = 0
    entry_point_rva: int = 0
    file_size: int = 0
    entropy_bits: float = field(default=0.0, metadata={"range": (0.0, 8.0)})
    pdb_path: str = ""
    export_module_name: str = ""
    import_names: list[str] = field(default_factory=list)
    export_names: list[str] = field(default_factory=list)
    sections: list[SectionInfo] = field(default_factory=list)


@dataclass
class CanonicalLog:
    label: Optional[Label] = None
    anonymized: Anonymized = field(default_factory=Anonymized)
    metadata: Metadata = field(default_factory=Metadata)
    runtime: Runtime = field(default_factory=Runtime)
    pe: Optional[PeBlock] = None


@dataclass
class CleaningReport:
    """What parsing had to repair.  Empty report means pristine input."""

    dropped_fields: list[str] = field(default_factory=list)
    normalized_fields: list[str] = field(default_factory=list)
    parse_repairs: int = 0


# --------------------------------------------------------------------------
# field readers
#
# A reader turns the raw value of one key into a field value, applying the
# cleaning rules: null and absent mean "explicit empty", wrong types are
# dropped and logged, out-of-range numerics are clamped and logged.  Every
# reader takes (value, prefix, key, report, arg); the field's path in the
# report is ``prefix + key`` and ``arg`` comes from the schema table.


def _read_str(value, prefix: str, key: str, report: CleaningReport, _arg) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    report.dropped_fields.append(prefix + key)
    return ""


def _read_int(value, prefix: str, key: str, report: CleaningReport, _arg) -> int:
    if value is None:
        return 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        report.dropped_fields.append(prefix + key)
        return 0
    if isinstance(value, float):
        if not math.isfinite(value) or value != int(value):
            report.dropped_fields.append(prefix + key)
            return 0
        value = int(value)
    if value < 0:
        report.normalized_fields.append(prefix + key)
        return 0
    return value


def _read_float(
    value, prefix: str, key: str, report: CleaningReport, limits: tuple[float, float]
) -> float:
    if value is None:
        return 0.0
    if value is _BAD_CONSTANT or isinstance(value, bool) or not isinstance(value, (int, float)):
        report.dropped_fields.append(prefix + key)
        return 0.0
    value = float(value)
    low, high = limits
    if value < low or value > high:
        report.normalized_fields.append(prefix + key)
        return min(max(value, low), high)
    return value


def _read_bool(value, prefix: str, key: str, report: CleaningReport, _arg) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    report.dropped_fields.append(prefix + key)
    return False


def _read_enum(value, prefix: str, key: str, report: CleaningReport, cls: type[Enum]):
    if value is None:
        return None
    if isinstance(value, str):
        try:
            return cls(value.lower())
        except ValueError:
            pass
    report.dropped_fields.append(prefix + key)
    return None


def _hex_scalar(value) -> Optional[str]:
    """Hex scalar ``value`` in canonical form 0x-lower, "" for "", else None."""
    if isinstance(value, str) and (value == "" or _HEX_RE.fullmatch(value)):
        return hex(int(value, 16)) if value else ""
    return None


def _read_hex(value, prefix: str, key: str, report: CleaningReport, _arg) -> str:
    """Hex scalar such as an address or flags word."""
    out = "" if value is None else _hex_scalar(value)
    if out is None:
        report.dropped_fields.append(prefix + key)
    return out or ""


def _hex_bytes(value) -> Optional[bytes]:
    """The bytes of plain hex ``value`` (no 0x prefix, even digit count), else None.

    ``bytes.fromhex`` skips whitespace; the length check refuses it.
    """
    if not isinstance(value, str):
        return None
    try:
        out = bytes.fromhex(value)
    except ValueError:
        return None
    return out if 2 * len(out) == len(value) else None


def _read_bytes(value, prefix: str, key: str, report: CleaningReport, _arg) -> bytes:
    """Byte string carried as plain hex (no 0x prefix, even digit count)."""
    if value is None:
        return b""
    out = _hex_bytes(value)
    if out is not None:
        return out
    report.dropped_fields.append(prefix + key)
    return b""


def _read_str_list(value, prefix: str, key: str, report: CleaningReport, _arg) -> list[str]:
    if value is None:
        return []
    if not isinstance(value, list):
        report.dropped_fields.append(prefix + key)
        return []
    out = [item for item in value if isinstance(item, str)]
    if len(out) < len(value):
        report.dropped_fields.extend(
            f"{prefix}{key}[{i}]" for i, item in enumerate(value) if not isinstance(item, str)
        )
    return out


def _read_object_list(value, prefix: str, key: str, report: CleaningReport, cls: type) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        report.dropped_fields.append(prefix + key)
        return []
    return _LIST_READERS[cls](value, f"{prefix}{key}[", report)


def _read_dict(value, prefix: str, key: str, report: CleaningReport) -> dict:
    if value is None:
        return {}
    if isinstance(value, dict):
        return value
    report.dropped_fields.append(prefix + key)
    return {}


def _read_object(value, prefix: str, key: str, report: CleaningReport, cls: type):
    return _READERS[cls](_read_dict(value, prefix, key, report), f"{prefix}{key}.", report)


def _read_optional_object(value, prefix: str, key: str, report: CleaningReport, cls: type):
    if value is None:
        return None
    if not isinstance(value, dict):
        report.dropped_fields.append(prefix + key)
        return None
    return _READERS[cls](value, f"{prefix}{key}.", report)


def _read_register_map(value, prefix: str, key: str, report: CleaningReport, read_item) -> dict:
    """Register name, lowercased, to ``read_item`` of its value; a value it
    refuses (None) is dropped.  Of names that differ only in case, the last
    with a readable value wins and each one it overwrites is dropped."""
    out: dict = {}
    names: dict[str, str] = {}
    for name, item in _read_dict(value, prefix, key, report).items():
        data = read_item(item)
        if data is None:
            report.dropped_fields.append(f"{prefix}{key}.{name}")
            continue
        lower = name.lower()
        if lower in names:
            report.dropped_fields.append(f"{prefix}{key}.{names[lower]}")
        names[lower] = name
        out[lower] = data
    return out


# --------------------------------------------------------------------------
# schema table


def _codec(f: Field, hint) -> tuple[Callable, Any]:
    """(reader, reader argument) of a field, chosen by its type."""
    if hint is str:
        return (_read_hex if f.metadata.get("hex") else _read_str), None
    if hint is int:
        return _read_int, None
    if hint is float:
        return _read_float, f.metadata["range"]
    if hint is bool:
        return _read_bool, None
    if hint is bytes:
        return _read_bytes, None
    if hint == list[str]:
        return _read_str_list, None
    if hint == dict[str, str]:  # register name -> hex scalar
        return _read_register_map, _hex_scalar
    if hint == dict[str, bytes]:
        return _read_register_map, _hex_bytes
    if get_origin(hint) is list:
        return _read_object_list, get_args(hint)[0]
    if is_dataclass(hint):
        return _read_object, hint
    if get_origin(hint) is Union:  # Optional[X]
        inner = get_args(hint)[0]
        if issubclass(inner, Enum):
            return _read_enum, inner
        if is_dataclass(inner):
            return _read_optional_object, inner
    raise TypeError(f"{f.name}: no reader for type {hint}")


def _build_schema(cls: type, schema: dict) -> dict:
    hints = get_type_hints(cls)
    entries = []
    for f in fields(cls):
        read, arg = _codec(f, hints[f.name])
        entries.append((f.name, f.metadata.get("key", f.name), read, arg))
        if is_dataclass(arg) and arg not in schema:
            _build_schema(arg, schema)
    schema[cls] = tuple(entries)
    return schema


#: Every block class reachable from CanonicalLog -> (attr, key, reader,
#: reader argument) of each of its fields, in field order.
_SCHEMA: dict[type, tuple[tuple[str, str, Callable, Any], ...]] = _build_schema(CanonicalLog, {})


#: The clean case of a field, read inline by a generated reader: the
#: expression is the field value when the condition after ``if`` holds for the
#: raw value ``v``.  Any other value goes to the field's reader.  The hex rule
#: also hands it a value ``int(v, 16)`` refuses: a string of ASCII letters and
#: digits is a hex scalar exactly when ``int(v, 16)`` takes it.
_INLINE = {
    _read_str: "v if type(v) is str",
    _read_int: "v if type(v) is int and v >= 0",
    _read_hex: "hex(int(v, 16)) if type(v) is str and v.isalnum() and v.isascii()",
}


def _generate_reader(cls: type, in_list: bool) -> Callable:
    """``read(obj, prefix, report)``: build ``cls`` from the raw dict ``obj``.

    With ``in_list`` it is ``read(items, path, report)`` instead: build one
    ``cls`` from each dict of the raw list ``items`` at ``path``, and drop
    anything else.  The source is generated from ``_SCHEMA[cls]``, the way
    ``dataclasses`` generates ``__init__``: the lines of one field after
    another, in field order, so values and report entries come out exactly as
    from calling each field's reader.  A list item's prefix is formatted only for a field that
    needs its reader.
    """
    namespace: dict[str, Any] = {"cls": cls}
    prefix = 'f"{path}{i}]."' if in_list else "prefix"
    body = ["get = obj.get"]
    for i, (_, key, read, arg) in enumerate(_SCHEMA[cls]):
        namespace[f"read{i}"], namespace[f"arg{i}"] = read, arg
        call = f"read{i}(v, {prefix}, {key!r}, report, arg{i})"
        inline = _INLINE.get(read)
        body.append(f"v = get({key!r})")
        if inline is None:
            body.append(f"f{i} = {call}")
        elif read is _read_hex:
            body += ["try:", f"    f{i} = {inline} else {call}",
                     "except ValueError:", f"    f{i} = {call}"]
        else:
            body.append(f"f{i} = {inline} else {call}")
    block = f"cls({', '.join(f'f{i}' for i in range(len(_SCHEMA[cls])))})"
    if in_list:
        lines = [
            "def read(items, path, report):",
            "    out = []",
            "    for i, obj in enumerate(items):",
            "        if not isinstance(obj, dict):",
            '            report.dropped_fields.append(f"{path}{i}]")',
            "            continue",
            *("        " + line for line in body),
            f"        out.append({block})",
            "    return out",
        ]
    else:
        lines = ["def read(obj, prefix, report):", *("    " + line for line in body), f"    return {block}"]
    exec("\n".join(lines), namespace)
    return namespace["read"]


def _generate_readers() -> tuple[dict, dict]:
    """The readers of the block classes read one at a time, and of those read in lists."""
    uses = {(CanonicalLog, False)} | {
        (arg, read is _read_object_list)
        for entries in _SCHEMA.values() for _, _, read, arg in entries if is_dataclass(arg)
    }
    return (
        {cls: _generate_reader(cls, in_list=False) for cls, in_list in uses if not in_list},
        {cls: _generate_reader(cls, in_list=True) for cls, in_list in uses if in_list},
    )


#: Block class -> its generated reader, for a block read on its own
#: (``_READERS``) or for a list of blocks (``_LIST_READERS``).
_READERS, _LIST_READERS = _generate_readers()


#: pe_type implies arch: PE32 images are x86, PE32+ images are x64.
_ARCH_OF_PE_TYPE = {PeType.PE32: Arch.X86, PeType.PE32PLUS: Arch.X64}


def _imply_arch(pe: Optional[PeBlock], report: CleaningReport) -> None:
    if pe is None or pe.pe_type is None:
        return
    expected = _ARCH_OF_PE_TYPE[pe.pe_type]
    if pe.arch is not None and pe.arch is not expected:
        report.normalized_fields.append("pe.arch")
    pe.arch = expected


# --------------------------------------------------------------------------
# public API


#: One decoder for every log, as ``json.loads`` keeps one for its defaults.
_DECODER = json.JSONDecoder(parse_constant=lambda _: _BAD_CONSTANT)


def _loads(text: str):
    """``json.loads``; failures other than a syntax error raise :class:`NotJson`."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise NotJson("arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer literal longer than sys.get_int_max_str_digits()
        raise NotJson(f"unreadable number: {exc}") from None


def parse_log(raw: bytes) -> tuple[CanonicalLog, CleaningReport]:
    """Parse raw log bytes into a canonical log plus a cleaning report.

    Raises :class:`OversizeLog` above ``DEFAULT_MAX_BYTES``,
    :class:`EmptyDocument` or :class:`NotJson`; every other input, however
    messy, yields a value.
    """
    if len(raw) > DEFAULT_MAX_BYTES:
        raise OversizeLog(f"log is {len(raw)} bytes, cap is {DEFAULT_MAX_BYTES}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotJson(f"not UTF-8: {exc}") from None

    report = CleaningReport()
    if text.startswith("﻿"):
        text = text[len("﻿"):]
        report.parse_repairs += 1
    if not text.strip():
        raise EmptyDocument("log document is empty")

    try:
        doc = _loads(text)
    except json.JSONDecodeError:
        repaired, n = _TRAILING_COMMA_RE.subn(r"\1", text)
        if n == 0:
            raise NotJson("unrecoverable JSON syntax error") from None
        try:
            doc = _loads(repaired)
        except json.JSONDecodeError:
            raise NotJson("unrecoverable JSON syntax error") from None
        report.parse_repairs += n

    if not isinstance(doc, dict):
        raise NotJson("top-level JSON value is not an object")

    log = _READERS[CanonicalLog](doc, "", report)
    _imply_arch(log.pe, report)
    return log, report


def _plain(value):
    """``json.dumps`` hook: bytes as hex, an Enum as its value, a block as its keyed fields."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Enum):
        return value.value
    return {key: getattr(value, attr) for attr, key, _read, _arg in _SCHEMA[type(value)]}


def serialize_log(log: CanonicalLog) -> bytes:
    """Canonical JSON bytes: sorted keys, compact separators, UTF-8."""
    return json.dumps(
        log, default=_plain, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")
