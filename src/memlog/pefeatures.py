"""Header-level parsing of Windows PE images into static features.

Only headers are walked: DOS header, COFF header, optional header, the
section table, and the import/export/debug/security data directories.
Relocations, resources, TLS and certificate contents are never touched.
Every read is bounds-checked, so arbitrary input bytes either produce a
:class:`~memlog.logmodel.PeBlock` or raise one of the declared errors.
Import and export extraction degrades to zero counts with a warning when
a data directory is malformed; a bad directory never fails the parse.
"""
from __future__ import annotations

import logging
import struct

import numpy as np

from .errors import (
    BadDataDirectory,
    BadDosMagic,
    BadPeSignature,
    EmptyInput,
    MalformedSectionTable,
    TruncatedHeader,
)
from .logmodel import Arch, PeBlock, PeType, SectionInfo

logger = logging.getLogger(__name__)

DOS_MAGIC: bytes = b"MZ"
PE_SIGNATURE: bytes = b"PE\x00\x00"
E_LFANEW_OFFSET: int = 0x3C
DOS_HEADER_SIZE: int = 64
COFF_HEADER_SIZE: int = 20

IMAGE_FILE_MACHINE_I386: int = 0x014C
IMAGE_FILE_MACHINE_AMD64: int = 0x8664

PE32_MAGIC: int = 0x10B
PE32PLUS_MAGIC: int = 0x20B

#: Offset of the data-directory array inside the optional header.
DATA_DIRECTORY_OFFSET = {PE32_MAGIC: 96, PE32PLUS_MAGIC: 112}

IMAGE_DIRECTORY_ENTRY_EXPORT: int = 0
IMAGE_DIRECTORY_ENTRY_IMPORT: int = 1
IMAGE_DIRECTORY_ENTRY_SECURITY: int = 4
IMAGE_DIRECTORY_ENTRY_DEBUG: int = 6

SECTION_HEADER_SIZE: int = 40
IMPORT_DESCRIPTOR_SIZE: int = 20
DEBUG_DIRECTORY_ENTRY_SIZE: int = 28
DEBUG_TYPE_CODEVIEW: int = 2
CODEVIEW_RSDS: bytes = b"RSDS"

ORDINAL_FLAG_PE32: int = 0x80000000
ORDINAL_FLAG_PE32PLUS: int = 0x8000000000000000

DEFAULT_NAME_CAP: int = 4096
_MAX_IMPORT_DESCRIPTORS: int = 1024
_MAX_NAME_LENGTH: int = 512


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy of a byte string, in bits per byte (0 to 8)."""
    if len(data) == 0:
        raise EmptyInput("entropy of empty input is undefined")
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    p = counts[counts > 0] / len(data)
    value = float(-(p * np.log2(p)).sum())
    return min(max(value, 0.0), 8.0)


def _u16(data: bytes, offset: int, err=TruncatedHeader) -> int:
    if offset < 0 or offset + 2 > len(data):
        raise err(f"read of 2 bytes at {offset} is out of bounds")
    return struct.unpack_from("<H", data, offset)[0]


def _u32(data: bytes, offset: int, err=TruncatedHeader) -> int:
    if offset < 0 or offset + 4 > len(data):
        raise err(f"read of 4 bytes at {offset} is out of bounds")
    return struct.unpack_from("<I", data, offset)[0]


def _u64(data: bytes, offset: int, err=TruncatedHeader) -> int:
    if offset < 0 or offset + 8 > len(data):
        raise err(f"read of 8 bytes at {offset} is out of bounds")
    return struct.unpack_from("<Q", data, offset)[0]


def _cstring(data: bytes, offset: int, err=BadDataDirectory) -> str:
    if offset < 0 or offset >= len(data):
        raise err(f"string read at {offset} is out of bounds")
    end = data.find(b"\x00", offset, offset + _MAX_NAME_LENGTH)
    if end < 0:
        raise err(f"unterminated string at {offset}")
    return data[offset:end].decode("latin-1")


class _Section:
    __slots__ = ("info", "virtual_address", "raw_pointer", "raw_size", "virtual_size")

    def __init__(self, info: SectionInfo, virtual_address: int, raw_pointer: int):
        self.info = info
        self.virtual_address = virtual_address
        self.raw_pointer = raw_pointer
        self.raw_size = info.raw_size
        self.virtual_size = info.virtual_size


def _rva_to_offset(sections: list[_Section], rva: int, image_size: int, err=BadDataDirectory) -> int:
    for s in sections:
        span = max(s.virtual_size, s.raw_size)
        if s.virtual_address <= rva < s.virtual_address + span:
            return rva - s.virtual_address + s.raw_pointer
    # Header region is mapped as-is before the first section.
    if 0 <= rva < image_size:
        return rva
    raise err(f"RVA 0x{rva:x} maps outside the image")


def _parse_sections(image: bytes, table_offset: int, count: int) -> list[_Section]:
    if count > 0 and table_offset + count * SECTION_HEADER_SIZE > len(image):
        raise MalformedSectionTable(f"section table of {count} entries exceeds the image")
    sections = []
    for i in range(count):
        off = table_offset + i * SECTION_HEADER_SIZE
        name = image[off:off + 8].rstrip(b"\x00").decode("latin-1")
        virtual_size = _u32(image, off + 8, MalformedSectionTable)
        virtual_address = _u32(image, off + 12, MalformedSectionTable)
        raw_size = _u32(image, off + 16, MalformedSectionTable)
        raw_pointer = _u32(image, off + 20, MalformedSectionTable)
        characteristics = _u32(image, off + 36, MalformedSectionTable)
        if raw_size > 0 and raw_pointer + raw_size > len(image):
            raise MalformedSectionTable(f"section {i} raw data extends past the image")
        info = SectionInfo(
            name=name,
            virtual_size=virtual_size,
            raw_size=raw_size,
            characteristics=characteristics,
        )
        sections.append(_Section(info, virtual_address, raw_pointer))
    return sections


def _read_directory(image: bytes, opt_offset: int, opt_size: int, magic: int, index: int) -> tuple[int, int]:
    """(rva, size) of data directory ``index``, or (0, 0) when absent."""
    dirs_offset = DATA_DIRECTORY_OFFSET[magic]
    count_offset = dirs_offset - 4
    if count_offset + 4 > opt_size:
        return 0, 0
    count = _u32(image, opt_offset + count_offset)
    if index >= count:
        return 0, 0
    entry = dirs_offset + index * 8
    if entry + 8 > opt_size:
        return 0, 0
    rva = _u32(image, opt_offset + entry)
    size = _u32(image, opt_offset + entry + 4)
    return rva, size


def _walk_imports(image: bytes, sections: list[_Section], rva: int, magic: int) -> tuple[int, list[str]]:
    ordinal_flag = ORDINAL_FLAG_PE32 if magic == PE32_MAGIC else ORDINAL_FLAG_PE32PLUS
    thunk_size = 4 if magic == PE32_MAGIC else 8
    read_thunk = _u32 if magic == PE32_MAGIC else _u64

    count = 0
    names: list[str] = []
    desc_offset = _rva_to_offset(sections, rva, len(image))
    for _ in range(_MAX_IMPORT_DESCRIPTORS):
        descriptor = image[desc_offset:desc_offset + IMPORT_DESCRIPTOR_SIZE]
        if len(descriptor) < IMPORT_DESCRIPTOR_SIZE:
            raise BadDataDirectory("import descriptor is truncated")
        if descriptor == b"\x00" * IMPORT_DESCRIPTOR_SIZE:
            break
        original_first_thunk = _u32(image, desc_offset, BadDataDirectory)
        first_thunk = _u32(image, desc_offset + 16, BadDataDirectory)
        thunk_rva = original_first_thunk or first_thunk
        if thunk_rva:
            thunk_offset = _rva_to_offset(sections, thunk_rva, len(image))
            while True:
                entry = read_thunk(image, thunk_offset, BadDataDirectory)
                if entry == 0:
                    break
                count += 1
                if not entry & ordinal_flag:
                    # Hint/name table entry: 2-byte hint then the name.
                    name_offset = _rva_to_offset(sections, entry + 2, len(image))
                    if len(names) < DEFAULT_NAME_CAP:
                        names.append(_cstring(image, name_offset))
                thunk_offset += thunk_size
                if count > DEFAULT_NAME_CAP * 4:
                    raise BadDataDirectory("import thunk chain does not terminate")
        desc_offset += IMPORT_DESCRIPTOR_SIZE
    return count, names


def _walk_exports(image: bytes, sections: list[_Section], rva: int) -> tuple[int, list[str], str]:
    offset = _rva_to_offset(sections, rva, len(image))
    name_rva = _u32(image, offset + 12, BadDataDirectory)
    function_count = _u32(image, offset + 20, BadDataDirectory)
    name_count = _u32(image, offset + 24, BadDataDirectory)
    names_rva = _u32(image, offset + 32, BadDataDirectory)

    module_name = ""
    if name_rva:
        module_name = _cstring(image, _rva_to_offset(sections, name_rva, len(image)))
    names: list[str] = []
    if name_count:
        table_offset = _rva_to_offset(sections, names_rva, len(image))
        for i in range(min(name_count, DEFAULT_NAME_CAP)):
            entry_rva = _u32(image, table_offset + i * 4, BadDataDirectory)
            names.append(_cstring(image, _rva_to_offset(sections, entry_rva, len(image))))
    return function_count, names, module_name


def _find_pdb_path(image: bytes, sections: list[_Section], rva: int, size: int) -> str:
    entry_count = size // DEBUG_DIRECTORY_ENTRY_SIZE
    offset = _rva_to_offset(sections, rva, len(image))
    for i in range(entry_count):
        entry = offset + i * DEBUG_DIRECTORY_ENTRY_SIZE
        if _u32(image, entry + 12, BadDataDirectory) != DEBUG_TYPE_CODEVIEW:
            continue
        data_pointer = _u32(image, entry + 24, BadDataDirectory)
        if image[data_pointer:data_pointer + 4] != CODEVIEW_RSDS:
            continue
        # RSDS record: magic, 16-byte GUID, 4-byte age, then the path.
        return _cstring(image, data_pointer + 24)
    return ""


def parse_pe(image: bytes) -> PeBlock:
    """Parse a PE image into header-level features.

    Raises :class:`BadDosMagic`, :class:`BadPeSignature`,
    :class:`TruncatedHeader` or :class:`MalformedSectionTable`.  A
    malformed import or export directory degrades that directory to zero
    counts with a warning instead of failing the parse.
    """
    if len(image) < 2:
        raise TruncatedHeader(f"image of {len(image)} bytes has no DOS header")
    if image[:2] != DOS_MAGIC:
        raise BadDosMagic("image does not start with MZ")
    if len(image) < DOS_HEADER_SIZE:
        raise TruncatedHeader(f"DOS header needs {DOS_HEADER_SIZE} bytes, image has {len(image)}")

    e_lfanew = _u32(image, E_LFANEW_OFFSET)
    if e_lfanew + 4 > len(image):
        raise TruncatedHeader("e_lfanew points past the image")
    if image[e_lfanew:e_lfanew + 4] != PE_SIGNATURE:
        raise BadPeSignature("PE signature not found at e_lfanew")

    coff = e_lfanew + 4
    if coff + COFF_HEADER_SIZE > len(image):
        raise TruncatedHeader("COFF header is truncated")
    machine = _u16(image, coff)
    section_count = _u16(image, coff + 2)
    compile_timestamp = _u32(image, coff + 4)
    optional_size = _u16(image, coff + 16)
    characteristics = _u16(image, coff + 18)

    if machine == IMAGE_FILE_MACHINE_I386:
        arch = Arch.X86
    elif machine == IMAGE_FILE_MACHINE_AMD64:
        arch = Arch.X64
    else:
        raise BadPeSignature(f"unsupported machine 0x{machine:04x}")

    opt_offset = coff + COFF_HEADER_SIZE
    if optional_size < 20 or opt_offset + optional_size > len(image):
        raise TruncatedHeader("optional header is truncated")
    magic = _u16(image, opt_offset)
    if magic == PE32_MAGIC:
        pe_type = PeType.PE32
        expected = Arch.X86
    elif magic == PE32PLUS_MAGIC:
        pe_type = PeType.PE32PLUS
        expected = Arch.X64
    else:
        raise BadPeSignature(f"unsupported optional-header magic 0x{magic:04x}")
    if arch is not expected:
        raise BadPeSignature(f"machine 0x{machine:04x} contradicts optional-header magic 0x{magic:04x}")
    entry_point_rva = _u32(image, opt_offset + 16)

    sections = _parse_sections(image, opt_offset + optional_size, section_count)

    export_rva, _ = _read_directory(image, opt_offset, optional_size, magic, IMAGE_DIRECTORY_ENTRY_EXPORT)
    import_rva, _ = _read_directory(image, opt_offset, optional_size, magic, IMAGE_DIRECTORY_ENTRY_IMPORT)
    security_rva, security_size = _read_directory(
        image, opt_offset, optional_size, magic, IMAGE_DIRECTORY_ENTRY_SECURITY
    )
    debug_rva, debug_size = _read_directory(image, opt_offset, optional_size, magic, IMAGE_DIRECTORY_ENTRY_DEBUG)

    import_count, import_names = 0, []
    if import_rva:
        try:
            import_count, import_names = _walk_imports(image, sections, import_rva, magic)
        except BadDataDirectory as exc:
            logger.warning("import directory unreadable, degrading to empty: %s", exc)
            import_count, import_names = 0, []

    export_count, export_names, export_module_name = 0, [], ""
    if export_rva:
        try:
            export_count, export_names, export_module_name = _walk_exports(image, sections, export_rva)
        except BadDataDirectory as exc:
            logger.warning("export directory unreadable, degrading to empty: %s", exc)
            export_count, export_names, export_module_name = 0, [], ""

    pdb_path = ""
    if debug_rva and debug_size:
        try:
            pdb_path = _find_pdb_path(image, sections, debug_rva, debug_size)
        except BadDataDirectory:
            pdb_path = ""

    return PeBlock(
        pe_type=pe_type,
        section_count=len(sections),
        import_count=import_count,
        export_count=export_count,
        characteristics=characteristics,
        compile_timestamp=compile_timestamp,
        signed=bool(security_rva and security_size),
        arch=arch,
        created=0,
        modified=0,
        entry_point_rva=entry_point_rva,
        file_size=len(image),
        entropy_bits=shannon_entropy(image),
        pdb_path=pdb_path,
        export_module_name=export_module_name,
        import_names=import_names,
        export_names=export_names,
        sections=[s.info for s in sections],
    )
