"""Schema parsing, cleaning rules, canonical serialization, anonymization."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlog import logmodel
from memlog.errors import EmptyDocument, LogParseError, NotJson, OversizeLog
from memlog.logmodel import (
    _SCHEMA,
    DEFAULT_MAX_BYTES,
    Anonymized,
    Arch,
    CanonicalLog,
    CleaningReport,
    EmbeddedFile,
    IllegalAccess,
    Injector,
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
from memlog.synthgen import GenSpec, generate_corpus


class TestParseBasics:
    def test_minimal_log_single_field(self):
        log, report = parse_log(b'{"metadata":{"exe_name":"calc.exe"}}')
        assert log.metadata.exe_name == "calc.exe"
        assert log.metadata.exe_path == ""
        assert log.runtime.loaded_modules == []
        assert log.pe is None
        assert report == CleaningReport()

    def test_empty_object_is_valid(self):
        log, report = parse_log(b"{}")
        assert log == CanonicalLog()
        assert report == CleaningReport()

    def test_unknown_fields_ignored(self):
        log, report = parse_log(b'{"zzz":1,"metadata":{"nope":2,"exe_name":"a"}}')
        assert log.metadata.exe_name == "a"
        assert report == CleaningReport()

    def test_label_parsed(self):
        log, _ = parse_log(b'{"label":"malicious"}')
        assert log.label is Label.MALICIOUS
        log, _ = parse_log(b'{"label":"benign"}')
        assert log.label is Label.BENIGN

    def test_non_json_raises(self):
        with pytest.raises(NotJson):
            parse_log(b"definitely not json")

    def test_top_level_array_raises(self):
        with pytest.raises(NotJson):
            parse_log(b"[1,2,3]")

    def test_decoder_limits_raise_not_json(self):
        with pytest.raises(NotJson):
            parse_log(b"[" * 100000)
        with pytest.raises(NotJson):
            parse_log(b'{"metadata":{"thread_count":' + b"1" * 5000 + b"}}")

    def test_invalid_utf8_raises(self):
        with pytest.raises(NotJson):
            parse_log(b'{"a":"\xff\xfe"}')

    def test_empty_document(self):
        with pytest.raises(EmptyDocument):
            parse_log(b"")
        with pytest.raises(EmptyDocument):
            parse_log(b"   \n\t ")

    def test_oversize(self):
        big = b'{"metadata":{"exe_name":"' + b"a" * (500 * 1024) + b'"}}'
        with pytest.raises(OversizeLog):
            parse_log(big)

    def test_size_cap_boundary(self):
        head, tail = b'{"metadata":{"exe_name":"', b'"}}'
        raw = head + b"a" * (DEFAULT_MAX_BYTES - len(head) - len(tail)) + tail
        assert len(raw) == DEFAULT_MAX_BYTES
        log, _ = parse_log(raw)
        assert len(log.metadata.exe_name) == DEFAULT_MAX_BYTES - len(head) - len(tail)
        with pytest.raises(OversizeLog):
            parse_log(raw + b" ")


class TestCleaningRules:
    def test_wrong_type_dropped_and_recorded(self):
        log, report = parse_log(b'{"metadata":{"thread_count":"abc"}}')
        assert log.metadata.thread_count == 0
        assert report.dropped_fields == ["metadata.thread_count"]
        assert len(report.dropped_fields) == 1

    def test_non_finite_count_dropped(self):
        for number in (b"1e400", b"-1e400"):
            log, report = parse_log(b'{"metadata":{"thread_count":' + number + b"}}")
            assert log.metadata.thread_count == 0
            assert report.dropped_fields == ["metadata.thread_count"]

    def test_negative_count_clamped_and_recorded(self):
        log, report = parse_log(b'{"metadata":{"thread_count":-5}}')
        assert log.metadata.thread_count == 0
        assert report.normalized_fields == ["metadata.thread_count"]

    def test_missing_fields_stay_empty_silently(self):
        _, report = parse_log(b'{"metadata":{}}')
        assert report == CleaningReport()

    def test_null_is_explicit_empty(self):
        log, report = parse_log(b'{"metadata":{"referral_url":null}}')
        assert log.metadata.referral_url == ""
        assert report == CleaningReport()

    def test_bom_counts_as_repair(self):
        raw = "﻿{\"metadata\":{\"exe_name\":\"a.exe\"}}".encode("utf-8")
        log, report = parse_log(raw)
        assert log.metadata.exe_name == "a.exe"
        assert report.parse_repairs == 1

    def test_trailing_comma_counts_as_repair(self):
        log, report = parse_log(b'{"metadata":{"exe_name":"a.exe",}}')
        assert log.metadata.exe_name == "a.exe"
        assert report.parse_repairs >= 1

    def test_nan_constant_dropped(self):
        log, report = parse_log(b'{"pe":{"entropy_bits":NaN}}')
        assert log.pe.entropy_bits == 0.0
        assert "pe.entropy_bits" in report.dropped_fields

    def test_entropy_clamped_to_eight(self):
        log, report = parse_log(b'{"pe":{"entropy_bits":9.5}}')
        assert log.pe.entropy_bits == 8.0
        assert "pe.entropy_bits" in report.normalized_fields

    def test_enum_case_insensitive(self):
        log, report = parse_log(b'{"metadata":{"integrity_level":"HIGH"}}')
        assert log.metadata.integrity_level is IntegrityLevel.HIGH
        assert report == CleaningReport()

    def test_unknown_enum_value_dropped(self):
        log, report = parse_log(b'{"metadata":{"integrity_level":"superuser"}}')
        assert log.metadata.integrity_level is None
        assert report.dropped_fields == ["metadata.integrity_level"]

    def test_hex_value_canonicalized(self):
        log, _ = parse_log(b'{"runtime":{"base_address":"0X00AB12"}}')
        assert log.runtime.base_address == "0xab12"

    def test_bad_hex_dropped(self):
        log, report = parse_log(b'{"runtime":{"base_address":"zzz"}}')
        assert log.runtime.base_address == ""
        assert report.dropped_fields == ["runtime.base_address"]

    def test_byte_field_decoded_from_hex(self):
        log, _ = parse_log(b'{"runtime":{"stack_snapshot":"DEADBEEF"}}')
        assert log.runtime.stack_snapshot == b"\xde\xad\xbe\xef"

    def test_odd_length_hex_bytes_dropped(self):
        log, report = parse_log(b'{"runtime":{"stack_snapshot":"abc"}}')
        assert log.runtime.stack_snapshot == b""
        assert "runtime.stack_snapshot" in report.dropped_fields

    def test_trailing_newline_is_not_hex(self):
        raw = b'{"runtime":{"base_address":"0x1F\\n","stack_snapshot":"ab\\n","registers":{"RAX":"0x10\\n"}}}'
        log, report = parse_log(raw)
        assert (log.runtime.base_address, log.runtime.stack_snapshot, log.runtime.registers) == ("", b"", {})
        assert report.dropped_fields == [
            "runtime.base_address", "runtime.registers.RAX", "runtime.stack_snapshot",
        ]

    def test_register_names_differing_only_in_case_keep_the_last_and_report_the_rest(self):
        doc = {"runtime": {
            "registers": {"RAX": "0x1", "Rax": "zz", "rax": "0x2", "EIP": "0x3", "r8": "0x4"},
            "register_snippets": {"EIP": "90", "eip": "cc", "Eip": "cc dd", "esp": "00"},
        }}
        log, report = parse_log(json.dumps(doc).encode("utf-8"))
        assert log.runtime.registers == {"rax": "0x2", "eip": "0x3", "r8": "0x4"}
        assert log.runtime.register_snippets == {"eip": b"\xcc", "esp": b"\x00"}
        assert report.dropped_fields == [
            "runtime.registers.Rax", "runtime.registers.RAX",
            "runtime.register_snippets.EIP", "runtime.register_snippets.Eip",
        ]

    @pytest.mark.parametrize("value", ["ab cd", " abcd", "abcd ", "ab\tcd", "0xab", "\u0661\u0662"])
    def test_byte_string_with_anything_but_hex_digits_dropped(self, value):
        doc = {"runtime": {"register_snippets": {"eip": value},
                           "illegal_accesses": [{"address": "0x10", "bytes": value}]}}
        log, report = parse_log(json.dumps(doc).encode("utf-8"))
        assert log.runtime.register_snippets == {}
        assert log.runtime.illegal_accesses == [IllegalAccess(address="0x10")]
        assert report.dropped_fields == [
            "runtime.register_snippets.eip", "runtime.illegal_accesses[0].bytes",
        ]

    def test_wrong_typed_list_dropped(self):
        log, report = parse_log(b'{"runtime":{"found_urls":"not-a-list"}}')
        assert log.runtime.found_urls == []
        assert "runtime.found_urls" in report.dropped_fields

    def test_pe_arch_mismatch_normalized(self):
        log, report = parse_log(b'{"pe":{"pe_type":"pe32","arch":"x64"}}')
        assert log.pe.arch is Arch.X86
        assert "pe.arch" in report.normalized_fields

    def test_pe_arch_derived_silently_when_missing(self):
        log, report = parse_log(b'{"pe":{"pe_type":"pe32plus"}}')
        assert log.pe.arch is Arch.X64
        assert report == CleaningReport()

    def test_cleaning_idempotent(self):
        raw = b'{"metadata":{"thread_count":-5,"integrity_level":"bogus"},"pe":{"entropy_bits":12}}'
        log, first = parse_log(raw)
        assert first != CleaningReport()
        relog, second = parse_log(serialize_log(log))
        assert second == CleaningReport()
        assert relog == log


class TestSerialization:
    def test_empty_log_round_trip(self):
        log = CanonicalLog()
        relog, report = parse_log(serialize_log(log))
        assert relog == log
        assert report == CleaningReport()

    def test_key_order_is_sorted(self):
        blob = serialize_log(CanonicalLog())
        data = json.loads(blob)
        assert list(data) == sorted(data)
        assert list(data["metadata"]) == sorted(data["metadata"])

    def test_construction_order_irrelevant(self):
        a, _ = parse_log(b'{"metadata":{"exe_name":"x","os_name":"w10"}}')
        b, _ = parse_log(b'{"metadata":{"os_name":"w10","exe_name":"x"}}')
        assert serialize_log(a) == serialize_log(b)

    def test_serialize_is_parse_stable_bytes(self):
        raw = b'{"runtime":{"registers":{"eax":"0x1000"},"stack_snapshot":"00ff"}}'
        log, _ = parse_log(raw)
        blob = serialize_log(log)
        relog, _ = parse_log(blob)
        assert serialize_log(relog) == blob

    def test_serialized_log_uses_plain_values(self):
        log, _ = parse_log(b'{"label":"malicious","metadata":{"integrity_level":"low"}}')
        data = json.loads(serialize_log(log))
        assert data["label"] == "malicious"
        assert data["metadata"]["integrity_level"] == "low"

    def test_every_field_round_trips(self):
        resource = ResourceEntry(path="c:\\data.dat", size=10, hash="ab", created=1, modified=2)
        log = CanonicalLog(
            label=Label.MALICIOUS,
            anonymized=Anonymized("alice", "corp", "ws-1", "10.0.0.1", "sn-1"),
            metadata=Metadata(
                timestamp=1, os_name="windows", os_build="17763", exe_path="c:\\app.exe",
                exe_name="app.exe", exe_hash="cd", file_created=2, file_modified=3,
                referral_url="https://example.net", user_login_time=4, thread_count=5,
                integrity_level=IntegrityLevel.HIGH, exe_arch=Arch.X64, work_cycles=6,
                kernel_time_ms=7, process_id=8, thread_id=9,
                privilege_level=PrivilegeLevel.ADMINISTRATOR, timezone="utc+01",
            ),
            runtime=Runtime(
                base_address="0x400000", command_line="app.exe /q", registers={"eax": "0x1000"},
                register_snippets={"eip": b"\x90\xcc"}, eflags="0x246", signature="sig",
                loaded_resources=[resource], vmem_free=11, vmem_used=12,
                hklm_run_entries=["hklm\\run\\a"], dep_enabled=True,
                illegal_accesses=[IllegalAccess(address="0x10", data=b"\xcc\x90")],
                import_table_hash="ef", injector=Injector(pid=13, ppid=14, hash="01", path="c:\\inj.exe"),
                auto_elevate=True,
                loaded_modules=[ModuleEntry(base="0x10000", end="0x20000", size=65536, link_meta="static", path="c:\\m.dll")],
                opened_resources=[resource],
                parent_process=ParentProcess(pid=15, path="c:\\cmd.exe", hash="23", command_line="cmd",
                                             integrity_level=IntegrityLevel.MEDIUM),
                process_blocks=["block"], stack_snapshot=b"\x00\xff", stack_trace=["m.dll+0x10"],
                embedded_files=[EmbeddedFile(magic_type="pe", offset=16)], found_urls=["https://example.org"],
                found_ips=["10.0.0.2"], scheduled_tasks=["\\tasks\\t"],
                registry_attempts=[RegistryAttempt(key="hklm\\x", result="ok")],
            ),
            pe=PeBlock(
                pe_type=PeType.PE32PLUS, section_count=1, import_count=2, export_count=3,
                characteristics=4, compile_timestamp=5, signed=True, arch=Arch.X64, created=6,
                modified=7, entry_point_rva=8, file_size=9, entropy_bits=6.5, pdb_path="a.pdb",
                export_module_name="a.dll", import_names=["CreateFileW"], export_names=["Run"],
                sections=[SectionInfo(name=".text", virtual_size=10, raw_size=11, characteristics=12)],
            ),
        )

        def assert_no_defaults(block, path):
            for f in dataclasses.fields(block):
                value = getattr(block, f.name)
                default = f.default_factory() if f.default is dataclasses.MISSING else f.default
                assert value != default, f"{path}.{f.name} is left at its default"
                for item in value if isinstance(value, list) else [value]:
                    if dataclasses.is_dataclass(item):
                        assert_no_defaults(item, f"{path}.{f.name}")

        assert_no_defaults(log, "log")
        blob = serialize_log(log)
        assert json.loads(blob)["runtime"]["illegal_accesses"] == [{"address": "0x10", "bytes": "cc90"}]
        relog, report = parse_log(blob)
        assert report == CleaningReport()
        assert relog == log
        assert serialize_log(relog) == blob

    def test_corpus_round_trip_property(self):
        logs = generate_corpus(GenSpec(n_malicious=10, n_benign=10, overlap=0.3, seed=3))
        for log in logs:
            blob = serialize_log(log)
            relog, report = parse_log(blob)
            assert report == CleaningReport()
            assert relog == log
            assert serialize_log(relog) == blob


class TestSchemaDoc:
    DOC = Path(__file__).resolve().parent.parent / "docs" / "log-schema.md"

    def test_doc_tables_list_every_key(self):
        # key column of each "## <section>" table in the schema document
        documented: dict[str, list[str]] = {}
        section = None
        for line in self.DOC.read_text(encoding="utf-8").splitlines():
            if line.startswith("## "):
                section = line[3:].strip("` ")
            elif line.startswith("| `"):
                documented.setdefault(section, []).append(line.split("|")[1].strip(" `"))
        data = json.loads(serialize_log(CanonicalLog(pe=PeBlock())))
        for section, block in (
            ("Top level", data),
            ("anonymized", data["anonymized"]),
            ("metadata", data["metadata"]),
            ("runtime", data["runtime"]),
            ("pe", data["pe"]),
        ):
            assert sorted(documented[section]) == sorted(block), section


class TestParseTotality:
    @given(st.binary(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_escape_declared_errors(self, raw):
        try:
            log, report = parse_log(raw)
        except LogParseError:
            return
        assert isinstance(log, CanonicalLog)
        paths = report.dropped_fields + report.normalized_fields
        assert all(isinstance(path, str) for path in paths)

    @given(
        st.dictionaries(
            st.sampled_from(["label", "metadata", "runtime", "pe", "anonymized", "junk"]),
            st.recursive(
                st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=20)),
                lambda children: st.one_of(
                    st.lists(children, max_size=4),
                    st.dictionaries(st.text(max_size=10), children, max_size=4),
                ),
                max_leaves=12,
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_json_objects_parse_and_round_trip(self, doc):
        log, _ = parse_log(json.dumps(doc).encode("utf-8"))
        relog, report = parse_log(serialize_log(log))
        assert relog == log
        assert report == CleaningReport()


# Raw values a field may hold, besides its valid values: wrong types, edge
# numbers, hex-like strings with spaces, prefixes or a trailing newline, and
# strings int(v, 16) refuses or takes although they are not hex scalars.
_ODD_TEXT = ["", "abc", "0a 0b", " 0x1", "0x1 ", "0X10", "0x10\n", "ab\n", "ab\ncd", "\n", "0x", "HIGH",
             "0xg1", "x1", "+1", "1_0", "\u0661\u0662"]
_ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.sampled_from(_ODD_TEXT),
    st.lists(st.one_of(st.none(), st.integers(), st.sampled_from(_ODD_TEXT), st.just({})), max_size=3),
    st.dictionaries(st.sampled_from(["RAX", "eip"]), st.one_of(st.integers(), st.sampled_from(_ODD_TEXT)),
                    max_size=2),
)
_HEX_SCALAR = st.from_regex(r"(0[xX])?[0-9a-fA-F]{1,8}", fullmatch=True)
_HEX_BYTES = st.binary(max_size=6).map(bytes.hex) | st.binary(max_size=6).map(lambda b: b.hex().upper())


def _schema_value(read, arg):
    """Strategy for the raw value of a field read by ``read``: valid or odd."""
    if read is logmodel._read_str:
        valid = st.text(max_size=6)
    elif read is logmodel._read_int:
        valid = st.integers(min_value=0, max_value=2**40) | st.just(3.0)
    elif read is logmodel._read_float:
        valid = st.floats(min_value=-1, max_value=9)
    elif read is logmodel._read_bool:
        valid = st.booleans()
    elif read is logmodel._read_enum:
        valid = st.sampled_from([e.value for e in arg] + [e.value.upper() for e in arg])
    elif read is logmodel._read_hex:
        valid = _HEX_SCALAR
    elif read is logmodel._read_bytes:
        valid = _HEX_BYTES
    elif read is logmodel._read_str_list:
        valid = st.lists(st.text(max_size=4) | _ODD, max_size=3)
    elif read is logmodel._read_register_map and arg is logmodel._hex_scalar:
        valid = st.dictionaries(st.sampled_from(["RAX", "eip", "r8"]), _HEX_SCALAR | _ODD, max_size=3)
    elif read is logmodel._read_register_map:
        valid = st.dictionaries(st.sampled_from(["RAX", "eip"]), _HEX_BYTES | _ODD, max_size=2)
    elif read is logmodel._read_object_list:
        valid = st.lists(_schema_block(arg) | _ODD, max_size=3)
    else:  # a nested block, required or optional: odd only one time in four
        return st.integers(0, 3).flatmap(lambda n: _schema_block(arg) if n else _ODD)
    return valid | _ODD


def _schema_block(cls):
    """Strategy for a raw block of ``cls``: any subset of its real keys, plus an unknown one."""
    optional = {key: _schema_value(read, arg) for _, key, read, arg in _SCHEMA[cls]}
    optional["junk"] = _ODD
    return st.fixed_dictionaries({}, optional=optional)


def _generic_reader(cls):
    """Reference block reader: calls each field's reader of ``_SCHEMA[cls]``, in field order."""
    def read_block(obj, prefix, report):
        get = obj.get
        return cls(*[read(get(key), prefix, key, report, arg) for _, key, read, arg in _SCHEMA[cls]])
    return read_block


def _generic_list_reader(cls):
    """Reference list reader: ``_generic_reader`` of each dict item; any other item is dropped."""
    def read_list(items, path, report):
        out = []
        for i, item in enumerate(items):
            if isinstance(item, dict):
                out.append(_generic_reader(cls)(item, f"{path}{i}].", report))
            else:
                report.dropped_fields.append(f"{path}{i}]")
        return out
    return read_list


def _parsed_by_generic_readers(raw):
    generic = {cls: _generic_reader(cls) for cls in _SCHEMA}
    generic_lists = {cls: _generic_list_reader(cls) for cls in _SCHEMA}
    with mock.patch.dict(logmodel._READERS, generic), \
            mock.patch.dict(logmodel._LIST_READERS, generic_lists):
        return repr(parse_log(raw))


class TestGeneratedReaders:
    @given(_schema_block(CanonicalLog))
    @settings(max_examples=300, deadline=None)
    def test_same_as_calling_each_field_reader(self, doc):
        raw = json.dumps(doc).encode("utf-8")
        assert repr(parse_log(raw)) == _parsed_by_generic_readers(raw)

    @pytest.mark.parametrize("value", _ODD_TEXT + ["0x1F", "0XaB", "ff", "00x1", "0b1", "0x0x1"])
    def test_hex_fields_same_as_their_reader(self, value):
        # the inline hex rule hands int()'s refusals to _read_hex
        doc = {"runtime": {"base_address": value, "eflags": value,
                           "loaded_modules": [{"base": value, "end": value}, value],
                           "illegal_accesses": [{"address": value}]}}
        raw = json.dumps(doc).encode("utf-8")
        assert repr(parse_log(raw)) == _parsed_by_generic_readers(raw)
