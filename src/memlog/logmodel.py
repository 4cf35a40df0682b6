"""Canonical runtime-log schema: parsing, cleaning and anonymization.

A raw log is a JSON document captured at process launch.  ``parse_log``
turns raw bytes into a :class:`CanonicalLog` plus a :class:`CleaningReport`
describing every repair it had to make.  Parsing never invents data:
unknown fields are ignored, wrong-typed values are dropped, numeric values
outside their declared ranges are clamped, and missing fields stay as
explicit empties.

``serialize_log`` emits canonical JSON (sorted keys, compact separators,
UTF-8).  Parsing canonical output is always clean, so
``parse(serialize(parse(x)))`` yields an empty report for any ``x``.
"""
from __future__ import annotations

import copy
import hashlib
import hmac
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from .errors import EmptyDocument, NotJson, OversizeLog

DEFAULT_MAX_BYTES = 500 * 1024

_HEX_RE = re.compile(r"^(0[xX])?[0-9a-fA-F]+$")
_BYTES_RE = re.compile(r"^(?:[0-9a-fA-F]{2})*$")
_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")

#: Sentinel produced for NaN/Infinity literals; dropped as a wrong type.
_BAD_CONSTANT = object()


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
    """Identity-bearing strings, replaced by pseudonyms before sharing."""

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
    base: str = ""
    end: str = ""
    size: int = 0
    link_meta: str = ""
    path: str = ""


@dataclass
class IllegalAccess:
    address: str = ""
    data: bytes = b""


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

    base_address: str = ""
    command_line: str = ""
    registers: dict[str, str] = field(default_factory=dict)
    register_snippets: dict[str, bytes] = field(default_factory=dict)
    eflags: str = ""
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
    entropy_bits: float = 0.0
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

    @property
    def dropped_count(self) -> int:
        return len(self.dropped_fields)

    @property
    def normalized_count(self) -> int:
        return len(self.normalized_fields)

    @property
    def empty(self) -> bool:
        return (
            not self.dropped_fields
            and not self.normalized_fields
            and self.parse_repairs == 0
        )


# --------------------------------------------------------------------------
# field readers
#
# Each reader pulls one key out of a raw dict, applying the cleaning rules:
# null and absent mean "explicit empty", wrong types are dropped and logged,
# out-of-range numerics are clamped and logged.


def _read_str(obj: dict, key: str, path: str, report: CleaningReport) -> str:
    value = obj.get(key)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    report.dropped_fields.append(path)
    return ""


def _read_int(
    obj: dict,
    key: str,
    path: str,
    report: CleaningReport,
    low: int = 0,
) -> int:
    value = obj.get(key)
    if value is None:
        return 0
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        report.dropped_fields.append(path)
        return 0
    if isinstance(value, float):
        if not math.isfinite(value) or value != int(value):
            report.dropped_fields.append(path)
            return 0
        value = int(value)
    if value < low:
        report.normalized_fields.append(path)
        return low
    return value


def _read_float(
    obj: dict,
    key: str,
    path: str,
    report: CleaningReport,
    low: float,
    high: float,
) -> float:
    value = obj.get(key)
    if value is None:
        return 0.0
    if value is _BAD_CONSTANT or isinstance(value, bool) or not isinstance(value, (int, float)):
        report.dropped_fields.append(path)
        return 0.0
    value = float(value)
    if value < low or value > high:
        report.normalized_fields.append(path)
        return min(max(value, low), high)
    return value


def _read_bool(obj: dict, key: str, path: str, report: CleaningReport) -> bool:
    value = obj.get(key)
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    report.dropped_fields.append(path)
    return False


def _read_enum(obj: dict, key: str, path: str, report: CleaningReport, cls):
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, str):
        try:
            return cls(value.lower())
        except ValueError:
            pass
    report.dropped_fields.append(path)
    return None


def _read_hex(obj: dict, key: str, path: str, report: CleaningReport) -> str:
    """Hex scalar such as an address or flags word; canonical form 0x-lower."""
    value = obj.get(key)
    if value is None:
        return ""
    if isinstance(value, str):
        if value == "":
            return ""
        if _HEX_RE.match(value):
            return "0x%x" % int(value, 16)
    report.dropped_fields.append(path)
    return ""


def _read_bytes(obj: dict, key: str, path: str, report: CleaningReport) -> bytes:
    """Byte string carried as plain hex (no 0x prefix, even digit count)."""
    value = obj.get(key)
    if value is None:
        return b""
    if isinstance(value, str) and _BYTES_RE.match(value):
        return bytes.fromhex(value)
    report.dropped_fields.append(path)
    return b""


def _read_str_list(obj: dict, key: str, path: str, report: CleaningReport) -> list[str]:
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        report.dropped_fields.append(path)
        return []
    out = []
    for i, item in enumerate(value):
        if isinstance(item, str):
            out.append(item)
        else:
            report.dropped_fields.append(f"{path}[{i}]")
    return out


def _read_obj_list(
    obj: dict,
    key: str,
    path: str,
    report: CleaningReport,
    parse_item: Callable[[dict, str, CleaningReport], Any],
) -> list:
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        report.dropped_fields.append(path)
        return []
    out = []
    for i, item in enumerate(value):
        if isinstance(item, dict):
            out.append(parse_item(item, f"{path}[{i}]", report))
        else:
            report.dropped_fields.append(f"{path}[{i}]")
    return out


def _read_dict(obj: dict, key: str, path: str, report: CleaningReport) -> dict:
    value = obj.get(key)
    if value is None:
        return {}
    if isinstance(value, dict):
        return value
    report.dropped_fields.append(path)
    return {}


# --------------------------------------------------------------------------
# block parsers


def _parse_anonymized(obj: dict, report: CleaningReport) -> Anonymized:
    p = "anonymized"
    return Anonymized(
        username=_read_str(obj, "username", f"{p}.username", report),
        domain_name=_read_str(obj, "domain_name", f"{p}.domain_name", report),
        machine_name=_read_str(obj, "machine_name", f"{p}.machine_name", report),
        ip_address=_read_str(obj, "ip_address", f"{p}.ip_address", report),
        serial_number=_read_str(obj, "serial_number", f"{p}.serial_number", report),
    )


def _parse_metadata(obj: dict, report: CleaningReport) -> Metadata:
    p = "metadata"
    return Metadata(
        timestamp=_read_int(obj, "timestamp", f"{p}.timestamp", report),
        os_name=_read_str(obj, "os_name", f"{p}.os_name", report),
        os_build=_read_str(obj, "os_build", f"{p}.os_build", report),
        exe_path=_read_str(obj, "exe_path", f"{p}.exe_path", report),
        exe_name=_read_str(obj, "exe_name", f"{p}.exe_name", report),
        exe_hash=_read_str(obj, "exe_hash", f"{p}.exe_hash", report),
        file_created=_read_int(obj, "file_created", f"{p}.file_created", report),
        file_modified=_read_int(obj, "file_modified", f"{p}.file_modified", report),
        referral_url=_read_str(obj, "referral_url", f"{p}.referral_url", report),
        user_login_time=_read_int(obj, "user_login_time", f"{p}.user_login_time", report),
        thread_count=_read_int(obj, "thread_count", f"{p}.thread_count", report),
        integrity_level=_read_enum(obj, "integrity_level", f"{p}.integrity_level", report, IntegrityLevel),
        exe_arch=_read_enum(obj, "exe_arch", f"{p}.exe_arch", report, Arch),
        work_cycles=_read_int(obj, "work_cycles", f"{p}.work_cycles", report),
        kernel_time_ms=_read_int(obj, "kernel_time_ms", f"{p}.kernel_time_ms", report),
        process_id=_read_int(obj, "process_id", f"{p}.process_id", report),
        thread_id=_read_int(obj, "thread_id", f"{p}.thread_id", report),
        privilege_level=_read_enum(obj, "privilege_level", f"{p}.privilege_level", report, PrivilegeLevel),
        timezone=_read_str(obj, "timezone", f"{p}.timezone", report),
    )


def _parse_resource(obj: dict, path: str, report: CleaningReport) -> ResourceEntry:
    return ResourceEntry(
        path=_read_str(obj, "path", f"{path}.path", report),
        size=_read_int(obj, "size", f"{path}.size", report),
        hash=_read_str(obj, "hash", f"{path}.hash", report),
        created=_read_int(obj, "created", f"{path}.created", report),
        modified=_read_int(obj, "modified", f"{path}.modified", report),
    )


def _parse_module(obj: dict, path: str, report: CleaningReport) -> ModuleEntry:
    return ModuleEntry(
        base=_read_hex(obj, "base", f"{path}.base", report),
        end=_read_hex(obj, "end", f"{path}.end", report),
        size=_read_int(obj, "size", f"{path}.size", report),
        link_meta=_read_str(obj, "link_meta", f"{path}.link_meta", report),
        path=_read_str(obj, "path", f"{path}.path", report),
    )


def _parse_illegal_access(obj: dict, path: str, report: CleaningReport) -> IllegalAccess:
    return IllegalAccess(
        address=_read_hex(obj, "address", f"{path}.address", report),
        data=_read_bytes(obj, "bytes", f"{path}.bytes", report),
    )


def _parse_embedded_file(obj: dict, path: str, report: CleaningReport) -> EmbeddedFile:
    return EmbeddedFile(
        magic_type=_read_str(obj, "magic_type", f"{path}.magic_type", report),
        offset=_read_int(obj, "offset", f"{path}.offset", report),
    )


def _parse_registry_attempt(obj: dict, path: str, report: CleaningReport) -> RegistryAttempt:
    return RegistryAttempt(
        key=_read_str(obj, "key", f"{path}.key", report),
        result=_read_str(obj, "result", f"{path}.result", report),
    )


def _parse_injector(obj: dict, report: CleaningReport) -> Optional[Injector]:
    value = obj.get("injector")
    if value is None:
        return None
    if not isinstance(value, dict):
        report.dropped_fields.append("runtime.injector")
        return None
    p = "runtime.injector"
    return Injector(
        pid=_read_int(value, "pid", f"{p}.pid", report),
        ppid=_read_int(value, "ppid", f"{p}.ppid", report),
        hash=_read_str(value, "hash", f"{p}.hash", report),
        path=_read_str(value, "path", f"{p}.path", report),
    )


def _parse_parent(obj: dict, report: CleaningReport) -> Optional[ParentProcess]:
    value = obj.get("parent_process")
    if value is None:
        return None
    if not isinstance(value, dict):
        report.dropped_fields.append("runtime.parent_process")
        return None
    p = "runtime.parent_process"
    return ParentProcess(
        pid=_read_int(value, "pid", f"{p}.pid", report),
        path=_read_str(value, "path", f"{p}.path", report),
        hash=_read_str(value, "hash", f"{p}.hash", report),
        command_line=_read_str(value, "command_line", f"{p}.command_line", report),
        integrity_level=_read_enum(value, "integrity_level", f"{p}.integrity_level", report, IntegrityLevel),
    )


def _parse_hex_map(obj: dict, key: str, path: str, report: CleaningReport) -> dict[str, str]:
    raw = _read_dict(obj, key, path, report)
    out: dict[str, str] = {}
    for name, value in raw.items():
        entry = f"{path}.{name}"
        if isinstance(value, str) and (value == "" or _HEX_RE.match(value)):
            canon = "0x%x" % int(value, 16) if value else ""
            out[name.lower()] = canon
        else:
            report.dropped_fields.append(entry)
    return out


def _parse_bytes_map(obj: dict, key: str, path: str, report: CleaningReport) -> dict[str, bytes]:
    raw = _read_dict(obj, key, path, report)
    out: dict[str, bytes] = {}
    for name, value in raw.items():
        entry = f"{path}.{name}"
        if isinstance(value, str) and _BYTES_RE.match(value):
            out[name.lower()] = bytes.fromhex(value)
        else:
            report.dropped_fields.append(entry)
    return out


def _parse_runtime(obj: dict, report: CleaningReport) -> Runtime:
    p = "runtime"
    return Runtime(
        base_address=_read_hex(obj, "base_address", f"{p}.base_address", report),
        command_line=_read_str(obj, "command_line", f"{p}.command_line", report),
        registers=_parse_hex_map(obj, "registers", f"{p}.registers", report),
        register_snippets=_parse_bytes_map(obj, "register_snippets", f"{p}.register_snippets", report),
        eflags=_read_hex(obj, "eflags", f"{p}.eflags", report),
        signature=_read_str(obj, "signature", f"{p}.signature", report),
        loaded_resources=_read_obj_list(obj, "loaded_resources", f"{p}.loaded_resources", report, _parse_resource),
        vmem_free=_read_int(obj, "vmem_free", f"{p}.vmem_free", report),
        vmem_used=_read_int(obj, "vmem_used", f"{p}.vmem_used", report),
        hklm_run_entries=_read_str_list(obj, "hklm_run_entries", f"{p}.hklm_run_entries", report),
        dep_enabled=_read_bool(obj, "dep_enabled", f"{p}.dep_enabled", report),
        illegal_accesses=_read_obj_list(obj, "illegal_accesses", f"{p}.illegal_accesses", report, _parse_illegal_access),
        import_table_hash=_read_str(obj, "import_table_hash", f"{p}.import_table_hash", report),
        injector=_parse_injector(obj, report),
        auto_elevate=_read_bool(obj, "auto_elevate", f"{p}.auto_elevate", report),
        loaded_modules=_read_obj_list(obj, "loaded_modules", f"{p}.loaded_modules", report, _parse_module),
        opened_resources=_read_obj_list(obj, "opened_resources", f"{p}.opened_resources", report, _parse_resource),
        parent_process=_parse_parent(obj, report),
        process_blocks=_read_str_list(obj, "process_blocks", f"{p}.process_blocks", report),
        stack_snapshot=_read_bytes(obj, "stack_snapshot", f"{p}.stack_snapshot", report),
        stack_trace=_read_str_list(obj, "stack_trace", f"{p}.stack_trace", report),
        embedded_files=_read_obj_list(obj, "embedded_files", f"{p}.embedded_files", report, _parse_embedded_file),
        found_urls=_read_str_list(obj, "found_urls", f"{p}.found_urls", report),
        found_ips=_read_str_list(obj, "found_ips", f"{p}.found_ips", report),
        scheduled_tasks=_read_str_list(obj, "scheduled_tasks", f"{p}.scheduled_tasks", report),
        registry_attempts=_read_obj_list(obj, "registry_attempts", f"{p}.registry_attempts", report, _parse_registry_attempt),
    )


def _parse_section(obj: dict, path: str, report: CleaningReport) -> SectionInfo:
    return SectionInfo(
        name=_read_str(obj, "name", f"{path}.name", report),
        virtual_size=_read_int(obj, "virtual_size", f"{path}.virtual_size", report),
        raw_size=_read_int(obj, "raw_size", f"{path}.raw_size", report),
        characteristics=_read_int(obj, "characteristics", f"{path}.characteristics", report),
    )


#: pe_type implies arch: PE32 images are x86, PE32+ images are x64.
_ARCH_OF_PE_TYPE = {PeType.PE32: Arch.X86, PeType.PE32PLUS: Arch.X64}


def _parse_pe(obj: dict, report: CleaningReport) -> Optional[PeBlock]:
    value = obj.get("pe")
    if value is None:
        return None
    if not isinstance(value, dict):
        report.dropped_fields.append("pe")
        return None
    p = "pe"
    block = PeBlock(
        pe_type=_read_enum(value, "pe_type", f"{p}.pe_type", report, PeType),
        section_count=_read_int(value, "section_count", f"{p}.section_count", report),
        import_count=_read_int(value, "import_count", f"{p}.import_count", report),
        export_count=_read_int(value, "export_count", f"{p}.export_count", report),
        characteristics=_read_int(value, "characteristics", f"{p}.characteristics", report),
        compile_timestamp=_read_int(value, "compile_timestamp", f"{p}.compile_timestamp", report),
        signed=_read_bool(value, "signed", f"{p}.signed", report),
        arch=_read_enum(value, "arch", f"{p}.arch", report, Arch),
        created=_read_int(value, "created", f"{p}.created", report),
        modified=_read_int(value, "modified", f"{p}.modified", report),
        entry_point_rva=_read_int(value, "entry_point_rva", f"{p}.entry_point_rva", report),
        file_size=_read_int(value, "file_size", f"{p}.file_size", report),
        entropy_bits=_read_float(value, "entropy_bits", f"{p}.entropy_bits", report, 0.0, 8.0),
        pdb_path=_read_str(value, "pdb_path", f"{p}.pdb_path", report),
        export_module_name=_read_str(value, "export_module_name", f"{p}.export_module_name", report),
        import_names=_read_str_list(value, "import_names", f"{p}.import_names", report),
        export_names=_read_str_list(value, "export_names", f"{p}.export_names", report),
        sections=_read_obj_list(value, "sections", f"{p}.sections", report, _parse_section),
    )
    if block.pe_type is not None:
        expected = _ARCH_OF_PE_TYPE[block.pe_type]
        if block.arch is not None and block.arch is not expected:
            block.arch = expected
            report.normalized_fields.append(f"{p}.arch")
        elif block.arch is None:
            block.arch = expected
    return block


# --------------------------------------------------------------------------
# public API


def _loads(text: str):
    """``json.loads``; failures other than a syntax error raise :class:`NotJson`."""
    try:
        return json.loads(text, parse_constant=lambda _: _BAD_CONSTANT)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise NotJson("arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer literal longer than sys.get_int_max_str_digits()
        raise NotJson(f"unreadable number: {exc}") from None


def parse_log(raw: bytes | str, max_bytes: int = DEFAULT_MAX_BYTES) -> tuple[CanonicalLog, CleaningReport]:
    """Parse raw log bytes into a canonical log plus a cleaning report.

    Raises :class:`OversizeLog`, :class:`EmptyDocument` or :class:`NotJson`;
    every other input, however messy, yields a value.
    """
    if isinstance(raw, str):
        raw = raw.encode("utf-8")
    if len(raw) > max_bytes:
        raise OversizeLog(f"log is {len(raw)} bytes, cap is {max_bytes}")
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

    log = CanonicalLog(
        label=_read_enum(doc, "label", "label", report, Label),
        anonymized=_parse_anonymized(_read_dict(doc, "anonymized", "anonymized", report), report),
        metadata=_parse_metadata(_read_dict(doc, "metadata", "metadata", report), report),
        runtime=_parse_runtime(_read_dict(doc, "runtime", "runtime", report), report),
        pe=_parse_pe(doc, report),
    )
    return log, report


def _enum_value(value) -> Optional[str]:
    return value.value if value is not None else None


def _resource_dict(r: ResourceEntry) -> dict:
    return {"path": r.path, "size": r.size, "hash": r.hash, "created": r.created, "modified": r.modified}


def log_to_dict(log: CanonicalLog) -> dict:
    """Plain-dict form of a log, using canonical JSON field spellings."""
    rt = log.runtime
    md = log.metadata
    out: dict[str, Any] = {
        "label": _enum_value(log.label),
        "anonymized": {
            "username": log.anonymized.username,
            "domain_name": log.anonymized.domain_name,
            "machine_name": log.anonymized.machine_name,
            "ip_address": log.anonymized.ip_address,
            "serial_number": log.anonymized.serial_number,
        },
        "metadata": {
            "timestamp": md.timestamp,
            "os_name": md.os_name,
            "os_build": md.os_build,
            "exe_path": md.exe_path,
            "exe_name": md.exe_name,
            "exe_hash": md.exe_hash,
            "file_created": md.file_created,
            "file_modified": md.file_modified,
            "referral_url": md.referral_url,
            "user_login_time": md.user_login_time,
            "thread_count": md.thread_count,
            "integrity_level": _enum_value(md.integrity_level),
            "exe_arch": _enum_value(md.exe_arch),
            "work_cycles": md.work_cycles,
            "kernel_time_ms": md.kernel_time_ms,
            "process_id": md.process_id,
            "thread_id": md.thread_id,
            "privilege_level": _enum_value(md.privilege_level),
            "timezone": md.timezone,
        },
        "runtime": {
            "base_address": rt.base_address,
            "command_line": rt.command_line,
            "registers": dict(sorted(rt.registers.items())),
            "register_snippets": {k: v.hex() for k, v in sorted(rt.register_snippets.items())},
            "eflags": rt.eflags,
            "signature": rt.signature,
            "loaded_resources": [_resource_dict(r) for r in rt.loaded_resources],
            "vmem_free": rt.vmem_free,
            "vmem_used": rt.vmem_used,
            "hklm_run_entries": list(rt.hklm_run_entries),
            "dep_enabled": rt.dep_enabled,
            "illegal_accesses": [{"address": a.address, "bytes": a.data.hex()} for a in rt.illegal_accesses],
            "import_table_hash": rt.import_table_hash,
            "injector": None if rt.injector is None else {
                "pid": rt.injector.pid,
                "ppid": rt.injector.ppid,
                "hash": rt.injector.hash,
                "path": rt.injector.path,
            },
            "auto_elevate": rt.auto_elevate,
            "loaded_modules": [
                {"base": m.base, "end": m.end, "size": m.size, "link_meta": m.link_meta, "path": m.path}
                for m in rt.loaded_modules
            ],
            "opened_resources": [_resource_dict(r) for r in rt.opened_resources],
            "parent_process": None if rt.parent_process is None else {
                "pid": rt.parent_process.pid,
                "path": rt.parent_process.path,
                "hash": rt.parent_process.hash,
                "command_line": rt.parent_process.command_line,
                "integrity_level": _enum_value(rt.parent_process.integrity_level),
            },
            "process_blocks": list(rt.process_blocks),
            "stack_snapshot": rt.stack_snapshot.hex(),
            "stack_trace": list(rt.stack_trace),
            "embedded_files": [{"magic_type": e.magic_type, "offset": e.offset} for e in rt.embedded_files],
            "found_urls": list(rt.found_urls),
            "found_ips": list(rt.found_ips),
            "scheduled_tasks": list(rt.scheduled_tasks),
            "registry_attempts": [{"key": a.key, "result": a.result} for a in rt.registry_attempts],
        },
        "pe": None,
    }
    if log.pe is not None:
        pe = log.pe
        out["pe"] = {
            "pe_type": _enum_value(pe.pe_type),
            "section_count": pe.section_count,
            "import_count": pe.import_count,
            "export_count": pe.export_count,
            "characteristics": pe.characteristics,
            "compile_timestamp": pe.compile_timestamp,
            "signed": pe.signed,
            "arch": _enum_value(pe.arch),
            "created": pe.created,
            "modified": pe.modified,
            "entry_point_rva": pe.entry_point_rva,
            "file_size": pe.file_size,
            "entropy_bits": pe.entropy_bits,
            "pdb_path": pe.pdb_path,
            "export_module_name": pe.export_module_name,
            "import_names": list(pe.import_names),
            "export_names": list(pe.export_names),
            "sections": [
                {"name": s.name, "virtual_size": s.virtual_size, "raw_size": s.raw_size, "characteristics": s.characteristics}
                for s in pe.sections
            ],
        }
    return out


def serialize_log(log: CanonicalLog) -> bytes:
    """Canonical JSON bytes: sorted keys, compact separators, UTF-8."""
    return json.dumps(
        log_to_dict(log), sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


_ANON_PREFIX = "anon:"


def anonymize(log: CanonicalLog, salt: bytes | str) -> CanonicalLog:
    """Replace identity-bearing fields with keyed-hash pseudonyms.

    Equal values under equal salt map to equal pseudonyms; already
    anonymized values pass through unchanged, so the operation is
    idempotent.  Empty fields stay empty.
    """
    if isinstance(salt, str):
        salt = salt.encode("utf-8")

    def pseudonym(field_name: str, value: str) -> str:
        if not value or value.startswith(_ANON_PREFIX):
            return value
        mac = hmac.new(salt, f"{field_name}:{value}".encode("utf-8"), hashlib.sha256)
        return _ANON_PREFIX + mac.hexdigest()[:24]

    out = copy.deepcopy(log)
    a = out.anonymized
    a.username = pseudonym("username", a.username)
    a.domain_name = pseudonym("domain_name", a.domain_name)
    a.machine_name = pseudonym("machine_name", a.machine_name)
    a.ip_address = pseudonym("ip_address", a.ip_address)
    a.serial_number = pseudonym("serial_number", a.serial_number)
    return out
