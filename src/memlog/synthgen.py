"""Synthetic labeled corpora with tunable class separability.

Malicious logs draw indicator tokens (module names, stack frames,
registry run keys) from per-family pools that are disjoint from the
benign pools; every other field comes from distributions shared by both
classes.  ``overlap`` is the probability that an indicator slot draws
from the benign pool instead: at 0.0 the classes are trivially
separable, at 1.0 they are statistically identical.

Generation is deterministic per spec: each log uses its own generator
seeded by (seed, log index), so corpora are reproducible file for file.
Every generated log serializes to canonical JSON that reparses with an
empty cleaning report.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, UnlabeledLog
from .logmodel import (
    Anonymized,
    Arch,
    CanonicalLog,
    EmbeddedFile,
    IntegrityLevel,
    Label,
    Metadata,
    ModuleEntry,
    ParentProcess,
    PeBlock,
    PeType,
    PrivilegeLevel,
    RegistryAttempt,
    ResourceEntry,
    Runtime,
    SectionInfo,
    parse_log,
    serialize_log,
)

#: 2019-01-01T00:00:00Z in epoch milliseconds; generated timestamps follow.
_EPOCH_BASE_MS = 1_546_300_800_000

_PAGE = 0x1000


@dataclass
class GenSpec:
    n_malicious: int
    n_benign: int
    overlap: float = 0.0
    seed: int = 1
    n_os_versions: int = 4
    n_exe_names: int = 12
    n_module_pool: int = 40
    n_malware_families: int = 4


class _Pools:
    """Token pools shared by every log of one corpus."""

    def __init__(self, spec: GenSpec):
        rng = np.random.default_rng([spec.seed, 0x9001])
        self.os_names = [f"windows_10_build_{17763 + 100 * i}" for i in range(spec.n_os_versions)]
        self.exe_names = [f"app{i:02d}.exe" for i in range(spec.n_exe_names)]
        self.system_modules = [f"c:\\windows\\system32\\sys{i:02d}.dll" for i in range(spec.n_module_pool)]
        self.benign_modules = [f"c:\\program files\\common\\lib{i:02d}.dll" for i in range(spec.n_module_pool)]
        self.benign_frames = [f"lib{i:02d}.dll+0x{(0x1000 + 0x40 * i):x}" for i in range(30)]
        self.benign_runkeys = [f"hklm\\software\\run\\svc{i:02d}" for i in range(20)]
        fam = spec.n_malware_families
        self.family_modules = [
            [f"c:\\users\\public\\fam{f}mod{i:02d}.dll" for i in range(10)] for f in range(fam)
        ]
        self.family_frames = [
            [f"fam{f}mod{i:02d}.dll+0x{(0x2000 + 0x40 * i):x}" for i in range(10)] for f in range(fam)
        ]
        self.family_runkeys = [
            [f"hklm\\software\\run\\fam{f}svc{i:02d}" for i in range(8)] for f in range(fam)
        ]
        self.resource_paths = [f"c:\\users\\work\\data{i:02d}.dat" for i in range(25)]
        self.urls = [f"https://host{i:02d}.example.net/api" for i in range(15)]
        self.ips = [f"10.0.{i}.{i + 1}" for i in range(12)]
        self.tasks = [f"\\tasks\\nightly{i:02d}" for i in range(10)]
        self.usernames = [f"user{i:03d}" for i in range(30)]
        self.machines = [f"ws-{i:04d}" for i in range(30)]
        self.parents = ["c:\\windows\\explorer.exe", "c:\\windows\\system32\\cmd.exe",
                        "c:\\windows\\system32\\services.exe", "c:\\program files\\shell\\launcher.exe"]
        self.args = ["/quiet", "/norestart", "-i", "-o", "--update", "--check"]
        # 4-byte words reused across snippets and stack snapshots
        self.code_words = [bytes(x) for x in rng.integers(0, 256, size=(60, 4), dtype=np.uint8)]
        self.page_bases = [int(b) * _PAGE for b in rng.integers(0x10000, 0x7FFF0, size=48)]
        self.section_names = [".text", ".rdata", ".data", ".rsrc", ".reloc", ".tls"]
        self.api_names = [f"ApiCall{i:02d}" for i in range(24)]


def _pick(rng: np.random.Generator, pool: list, k: int) -> list:
    idx = rng.integers(0, len(pool), size=k)
    return [pool[int(i)] for i in idx]


def _indicators(rng: np.random.Generator, benign_pool: list, family_pool: list,
                overlap: float, malicious: bool, k: int) -> list:
    """k indicator draws; malicious slots fall back to the benign pool
    with probability ``overlap``."""
    out = []
    for _ in range(k):
        if malicious and rng.random() >= overlap:
            out.append(family_pool[int(rng.integers(0, len(family_pool)))])
        else:
            out.append(benign_pool[int(rng.integers(0, len(benign_pool)))])
    return out


def _hex_addr(value: int) -> str:
    return "0x%x" % value


def _make_pe(rng: np.random.Generator, pools: _Pools) -> PeBlock:
    pe_type = PeType.PE32 if rng.random() < 0.5 else PeType.PE32PLUS
    section_count = int(rng.integers(3, 7))
    sections = []
    for i in range(section_count):
        vsize = int(rng.integers(0x400, 0x20000))
        sections.append(
            SectionInfo(
                name=pools.section_names[i % len(pools.section_names)],
                virtual_size=vsize,
                raw_size=(vsize + 0x1FF) & ~0x1FF,
                characteristics=int(rng.choice([0x60000020, 0x40000040, 0xC0000040])),
            )
        )
    import_names = _pick(rng, pools.api_names, int(rng.integers(4, 12)))
    return PeBlock(
        pe_type=pe_type,
        section_count=section_count,
        import_count=len(import_names),
        export_count=0,
        characteristics=0x0102 if pe_type is PeType.PE32 else 0x0022,
        compile_timestamp=int(rng.integers(1_400_000_000, 1_546_000_000)),
        signed=bool(rng.random() < 0.5),
        arch=Arch.X86 if pe_type is PeType.PE32 else Arch.X64,
        created=_EPOCH_BASE_MS - int(rng.integers(0, 86_400_000 * 300)),
        modified=_EPOCH_BASE_MS - int(rng.integers(0, 86_400_000 * 100)),
        entry_point_rva=int(rng.integers(1, 64)) * _PAGE,
        file_size=int(rng.integers(20_000, 900_000)),
        entropy_bits=round(float(rng.uniform(4.5, 7.5)), 2),
        pdb_path="",
        export_module_name="",
        import_names=import_names,
        export_names=[],
        sections=sections,
    )


def _generate_log(spec: GenSpec, pools: _Pools, index: int, malicious: bool) -> CanonicalLog:
    rng = np.random.default_rng([spec.seed, index])
    family = int(rng.integers(0, spec.n_malware_families))
    overlap = spec.overlap

    exe_name = pools.exe_names[int(rng.integers(0, len(pools.exe_names)))]
    exe_path = f"c:\\program files\\{exe_name[:-4]}\\{exe_name}"
    arch = Arch.X86 if rng.random() < 0.5 else Arch.X64

    metadata = Metadata(
        timestamp=_EPOCH_BASE_MS + int(rng.integers(0, 86_400_000 * 180)),
        os_name=pools.os_names[int(rng.integers(0, len(pools.os_names)))],
        os_build=str(int(rng.integers(17000, 19000))),
        exe_path=exe_path,
        exe_name=exe_name,
        exe_hash=bytes(rng.integers(0, 256, size=16, dtype=np.uint8)).hex(),
        file_created=_EPOCH_BASE_MS - int(rng.integers(0, 86_400_000 * 400)),
        file_modified=_EPOCH_BASE_MS - int(rng.integers(0, 86_400_000 * 200)),
        referral_url="",
        user_login_time=_EPOCH_BASE_MS + int(rng.integers(0, 86_400_000)),
        thread_count=int(rng.integers(1, 40)),
        integrity_level=IntegrityLevel(["low", "medium", "high"][int(rng.integers(0, 3))]),
        exe_arch=arch,
        work_cycles=int(rng.integers(1_000, 10_000_000)),
        kernel_time_ms=int(rng.integers(0, 5_000)),
        process_id=int(rng.integers(400, 30_000)),
        thread_id=int(rng.integers(400, 30_000)),
        privilege_level=PrivilegeLevel(["standard", "administrator"][int(rng.integers(0, 2))]),
        timezone=f"utc+{int(rng.integers(0, 13)):02d}",
    )

    register_names = ["eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp"]
    registers = {
        name: _hex_addr(pools.page_bases[int(rng.integers(0, len(pools.page_bases)))] + int(rng.integers(0, _PAGE)))
        for name in register_names
    }
    snippets = {
        name: b"".join(_pick(rng, pools.code_words, int(rng.integers(2, 5))))
        for name in ("eip", "esp")
    }

    modules = _pick(rng, pools.system_modules, int(rng.integers(5, 9)))
    modules += _indicators(rng, pools.benign_modules, pools.family_modules[family], overlap, malicious, 4)
    frames = _indicators(rng, pools.benign_frames, pools.family_frames[family], overlap, malicious, 4)
    frames += _pick(rng, pools.benign_frames, 3)
    runkeys = _indicators(rng, pools.benign_runkeys, pools.family_runkeys[family], overlap, malicious, 2)
    runkeys += _pick(rng, pools.benign_runkeys, 1)

    base_address = _hex_addr(pools.page_bases[int(rng.integers(0, len(pools.page_bases)))])
    module_entries = []
    for path in modules:
        base = pools.page_bases[int(rng.integers(0, len(pools.page_bases)))]
        size = int(rng.integers(4, 64)) * _PAGE
        module_entries.append(
            ModuleEntry(base=_hex_addr(base), end=_hex_addr(base + size), size=size,
                        link_meta="static" if rng.random() < 0.5 else "dynamic", path=path)
        )

    def resource(path: str) -> ResourceEntry:
        return ResourceEntry(
            path=path,
            size=int(rng.integers(100, 1_000_000)),
            hash=bytes(rng.integers(0, 256, size=16, dtype=np.uint8)).hex(),
            created=_EPOCH_BASE_MS - int(rng.integers(0, 86_400_000 * 50)),
            modified=_EPOCH_BASE_MS - int(rng.integers(0, 86_400_000 * 10)),
        )

    runtime = Runtime(
        base_address=base_address,
        command_line=" ".join([exe_path] + _pick(rng, pools.args, int(rng.integers(0, 3)))),
        registers=registers,
        register_snippets=snippets,
        eflags=_hex_addr(int(rng.integers(0, 0x1000))),
        signature="",
        loaded_resources=[resource(p) for p in _pick(rng, pools.resource_paths, int(rng.integers(2, 5)))],
        vmem_free=int(rng.integers(1 << 28, 1 << 33)),
        vmem_used=int(rng.integers(1 << 26, 1 << 31)),
        hklm_run_entries=runkeys,
        dep_enabled=bool(rng.random() < 0.8),
        illegal_accesses=[],
        import_table_hash=bytes(rng.integers(0, 256, size=16, dtype=np.uint8)).hex(),
        injector=None,
        auto_elevate=bool(rng.random() < 0.2),
        loaded_modules=module_entries,
        opened_resources=[resource(p) for p in _pick(rng, pools.resource_paths, int(rng.integers(1, 4)))],
        parent_process=ParentProcess(
            pid=int(rng.integers(300, 5_000)),
            path=pools.parents[int(rng.integers(0, len(pools.parents)))],
            hash=bytes(rng.integers(0, 256, size=16, dtype=np.uint8)).hex(),
            command_line="",
            integrity_level=IntegrityLevel.MEDIUM,
        ),
        process_blocks=[],
        stack_snapshot=b"".join(_pick(rng, pools.code_words, int(rng.integers(8, 16)))),
        stack_trace=frames,
        embedded_files=[EmbeddedFile(magic_type="pkzip", offset=int(rng.integers(0, 1 << 20)))]
        if rng.random() < 0.3 else [],
        found_urls=_pick(rng, pools.urls, int(rng.integers(0, 3))),
        found_ips=_pick(rng, pools.ips, int(rng.integers(0, 3))),
        scheduled_tasks=_pick(rng, pools.tasks, int(rng.integers(0, 2))),
        registry_attempts=[
            RegistryAttempt(key=k, result="ok") for k in _pick(rng, pools.benign_runkeys, int(rng.integers(0, 2)))
        ],
    )

    return CanonicalLog(
        label=Label.MALICIOUS if malicious else Label.BENIGN,
        anonymized=Anonymized(
            username=pools.usernames[int(rng.integers(0, len(pools.usernames)))],
            domain_name="corp.example",
            machine_name=pools.machines[int(rng.integers(0, len(pools.machines)))],
            ip_address=pools.ips[int(rng.integers(0, len(pools.ips)))],
            serial_number=bytes(rng.integers(0, 256, size=8, dtype=np.uint8)).hex(),
        ),
        metadata=metadata,
        runtime=runtime,
        pe=_make_pe(rng, pools) if rng.random() < 0.7 else None,
    )


def generate_corpus(spec: GenSpec) -> list[CanonicalLog]:
    """Labeled corpus, malicious logs first; deterministic per spec."""
    if spec.n_malicious < 0 or spec.n_benign < 0 or spec.n_malicious + spec.n_benign == 0:
        raise InvalidSpec("corpus needs a non-negative, non-zero log count")
    if not 0.0 <= spec.overlap <= 1.0:
        raise InvalidSpec(f"overlap must be in [0, 1], got {spec.overlap}")
    if min(spec.n_os_versions, spec.n_exe_names, spec.n_module_pool, spec.n_malware_families) < 1:
        raise InvalidSpec("heterogeneity pool sizes must be >= 1")

    pools = _Pools(spec)
    logs = []
    for i in range(spec.n_malicious + spec.n_benign):
        logs.append(_generate_log(spec, pools, i, malicious=i < spec.n_malicious))
    return logs


# --------------------------------------------------------------------------
# corpus directory layout: one canonical-JSON file per log plus labels.csv


def write_corpus(directory: str, logs: list[CanonicalLog]) -> list[str]:
    """Write logs and the manifest; returns the filenames written."""
    os.makedirs(directory, exist_ok=True)
    names = []
    with open(os.path.join(directory, "labels.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        for i, log in enumerate(logs):
            if log.label is None:
                raise UnlabeledLog(f"log {i} has no label")
            name = f"log_{i:05d}.json"
            with open(os.path.join(directory, name), "wb") as out:
                out.write(serialize_log(log))
            writer.writerow([name, log.label.value])
            names.append(name)
    return names


def read_corpus(directory: str) -> list[CanonicalLog]:
    """Parse every ``*.json`` log in the directory, sorted by filename."""
    logs = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            log, _ = parse_log(fh.read())
        logs.append(log)
    return logs
