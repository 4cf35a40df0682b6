"""Grouped tokenization: value rules, group routing, stability."""
from __future__ import annotations

import hashlib
import json
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from memlog.logmodel import parse_log, serialize_log
from memlog.synthgen import GenSpec, generate_corpus
from memlog.tokenizer import GROUP_COUNT, GroupId, hex_words, tokenize


def tokens_of(doc: dict):
    log, _ = parse_log(json.dumps(doc).encode())
    return tokenize(log)


# The value rules as the regexes they were once written with: the oracle.
def text_rule(s):
    return re.sub(r"\s+", "_", s.strip().lower())


def basename_rule(s):
    return text_rule(([p for p in re.split(r"[\\/]+", s) if p] or [""])[-1])


def page_rule(s):
    if re.match(r"^(0[xX])?[0-9a-fA-F]+$", s):
        return "0x%x" % (int(s, 16) & ~0xFFF & 0xFFFFFFFFFFFFFFFF)
    return text_rule(s)


class TestCanonicalize:
    def test_lowercasing(self):
        assert tokens_of({"runtime": {"stack_trace": ["KERNEL32.DLL"]}}).stack == ["kernel32.dll"]

    def test_address_page_bucketing(self):
        regs = tokens_of({"runtime": {"registers": {"eax": "0x7FFE1234"}}}).registers
        assert regs == ["eax=0x7ffe1000"]

    def test_address_already_aligned(self):
        regs = tokens_of({"runtime": {"registers": {"eax": "0x7ffe1000"}}}).registers
        assert regs == ["eax=0x7ffe1000"]

    def test_address_wider_than_64_bits_keeps_its_low_64(self):
        regs = tokens_of({"runtime": {"registers": {"eax": "0x1FFFFFFFFFFFFFFFF"}}}).registers
        assert regs == ["eax=0xfffffffffffff000"]

    def test_path_basename(self):
        doc = {"runtime": {"loaded_modules": [{"path": "C:\\Users\\x\\doc.pdf"}]}}
        assert tokens_of(doc).modules == ["doc.pdf"]

    def test_path_forward_slashes(self):
        doc = {"runtime": {"loaded_modules": [{"path": "/usr/lib/libssl.so"}]}}
        assert tokens_of(doc).modules == ["libssl.so"]

    def test_path_of_separators_only_is_dropped(self):
        doc = {"runtime": {"loaded_modules": [{"path": "\\/ /"}, {"path": "a\\b/"}]}}
        assert tokens_of(doc).modules == ["b"]

    def test_whitespace_to_underscore(self):
        doc = {"runtime": {"hklm_run_entries": ["Program Files Entry"]}}
        assert tokens_of(doc).resources == ["program_files_entry"]


_SPECIAL = st.sampled_from(["\\", "/", " ", "\t", "\n", "\x1c", "\x85", "\u3000", "\u2028", "A", "\u0130"])
_TEXT = st.text(st.one_of(_SPECIAL, st.characters()), max_size=12)
_HEX = st.builds(
    lambda n, prefix, upper: (prefix + "%x" % n).upper() if upper else prefix + "%x" % n,
    st.integers(0, 1 << 80), st.sampled_from(["", "0x", "0X"]), st.booleans(),
)


@st.composite
def tokenized_strings(draw):
    """A log document whose every tokenized string field is drawn."""
    texts = st.lists(_TEXT, max_size=3)
    return {
        "metadata": {"exe_name": draw(_TEXT), "exe_hash": draw(_TEXT), "os_name": draw(_TEXT)},
        "runtime": {
            "stack_trace": draw(texts),
            "registers": draw(st.dictionaries(st.sampled_from(["eax", "EBX", "esp"]),
                                              st.one_of(_HEX, _TEXT), max_size=3)),
            "eflags": draw(st.one_of(_HEX, _TEXT)),
            "loaded_modules": [{"path": p} for p in draw(texts)],
            "loaded_resources": [{"path": p} for p in draw(texts)],
            "opened_resources": [{"path": p} for p in draw(texts)],
            "embedded_files": [{"magic_type": m} for m in draw(texts)],
            "found_urls": draw(texts),
            "found_ips": draw(texts),
            "scheduled_tasks": draw(texts),
            "hklm_run_entries": draw(texts),
            "command_line": draw(_TEXT),
            "parent_process": {"path": draw(_TEXT), "hash": draw(_TEXT)},
        },
        "pe": {"pdb_path": draw(_TEXT), "export_module_name": draw(_TEXT),
               "entry_point_rva": draw(st.integers(0, (1 << 64) - 1))},
    }


class TestValueRulesProperty:
    @given(tokenized_strings())
    @settings(max_examples=300, deadline=None)
    def test_every_token_equals_the_regex_rule(self, doc):
        log, _ = parse_log(json.dumps(doc).encode())
        tokens = tokenize(log)
        md, rt, pe = log.metadata, log.runtime, log.pe

        def kept(*values):
            return [v for v in values if v]

        def paired(prefix, value):
            return kept(value and f"{prefix}={value}")

        assert tokens.stack == kept(*map(text_rule, rt.stack_trace))
        assert tokens.registers == [
            *(token for name, value in sorted(rt.registers.items())
              for token in paired(name, page_rule(value))),
            *paired("eflags", text_rule(rt.eflags)),
        ]
        assert tokens.modules == kept(*(basename_rule(m.path) for m in rt.loaded_modules))
        assert tokens.resources == kept(
            *(basename_rule(r.path) for r in rt.loaded_resources + rt.opened_resources),
            *(text_rule(e.magic_type) for e in rt.embedded_files),
            *map(text_rule, rt.found_urls + rt.found_ips + rt.scheduled_tasks
                 + rt.hklm_run_entries),
        )
        meta = kept(basename_rule(md.exe_name), text_rule(md.exe_hash), text_rule(md.os_name),
                    *map(text_rule, rt.command_line.split()),
                    *paired("parent", basename_rule(rt.parent_process.path)),
                    *paired("parent_hash", text_rule(rt.parent_process.hash)))
        assert tokens.process_meta[:len(meta)] == meta
        pe_tokens = dict(t.split("=", 1) for t in tokens.process_meta[len(meta):])
        assert pe_tokens["pe_entry"] == page_rule(hex(pe.entry_point_rva))
        assert pe_tokens.get("pe_pdb", "") == basename_rule(pe.pdb_path)
        assert pe_tokens.get("pe_module", "") == text_rule(pe.export_module_name)


class TestHexWords:
    def test_spec_chunking(self):
        assert hex_words(b"\xde\xad\xbe\xef\x00") == ["deadbeef", "00"]

    def test_exact_multiple(self):
        assert hex_words(b"\x01\x02\x03\x04\x05\x06\x07\x08") == ["01020304", "05060708"]

    def test_empty(self):
        assert hex_words(b"") == []

    @given(st.binary(max_size=256))
    @settings(max_examples=100, deadline=None)
    def test_reference_chunker(self, data):
        expected = [data[i:i + 4].hex() for i in range(0, len(data), 4)]
        assert hex_words(data) == expected


class TestGroupRouting:
    def test_empty_log_six_empty_groups(self):
        log, _ = parse_log(b"{}")
        tokens = tokenize(log)
        assert GROUP_COUNT == 6
        assert [len(g) for g in tokens] == [0] * 6
        assert tokens.total_tokens() == 0

    def test_module_path_becomes_basename_token(self):
        log, _ = parse_log(
            b'{"runtime":{"loaded_modules":[{"path":"C:\\\\Windows\\\\System32\\\\kernel32.dll"}]}}'
        )
        assert tokenize(log).group(GroupId.MODULES) == ["kernel32.dll"]

    def test_stack_gets_frames_and_snapshot_words(self):
        log, _ = parse_log(
            b'{"runtime":{"stack_trace":["ntdll.dll+0x100"],"stack_snapshot":"deadbeef00"}}'
        )
        stack = tokenize(log).group(GroupId.STACK)
        assert "ntdll.dll+0x100" in stack
        assert "deadbeef" in stack and "00" in stack

    def test_registers_bucketed_and_named(self):
        log, _ = parse_log(b'{"runtime":{"registers":{"EAX":"0x7FFE1234"},"eflags":"0x246"}}')
        regs = tokenize(log).group(GroupId.REGISTERS)
        assert "eax=0x7ffe1000" in regs
        assert any(t.startswith("eflags=") for t in regs)

    def test_opcodes_from_snippets_and_illegal_accesses(self):
        log, _ = parse_log(
            b'{"runtime":{"register_snippets":{"eip":"0102030405"},'
            b'"illegal_accesses":[{"address":"0x1000","bytes":"aabbccdd"}]}}'
        )
        ops = tokenize(log).group(GroupId.OPCODES)
        assert "01020304" in ops and "05" in ops
        assert "aabbccdd" in ops

    def test_resources_cover_all_sources(self):
        log, _ = parse_log(
            b'{"runtime":{'
            b'"loaded_resources":[{"path":"c:\\\\data\\\\a.dat"}],'
            b'"opened_resources":[{"path":"c:\\\\data\\\\b.dat"}],'
            b'"embedded_files":[{"magic_type":"pkzip"}],'
            b'"found_urls":["https://x.example/api"],'
            b'"found_ips":["10.0.0.1"],'
            b'"scheduled_tasks":["\\\\tasks\\\\t1"],'
            b'"hklm_run_entries":["hklm\\\\run\\\\svc"]}}'
        )
        res = tokenize(log).group(GroupId.RESOURCES)
        assert "a.dat" in res and "b.dat" in res
        assert "pkzip" in res
        assert "https://x.example/api" in res
        assert "10.0.0.1" in res
        assert len(res) == 7

    def test_process_meta_scalars(self):
        log, _ = parse_log(
            b'{"metadata":{"exe_name":"calc.exe","integrity_level":"high",'
            b'"privilege_level":"standard","exe_arch":"x64","os_name":"windows 10"},'
            b'"runtime":{"command_line":"c:\\\\x\\\\calc.exe /quiet"}}'
        )
        meta = tokenize(log).group(GroupId.PROCESS_META)
        assert "calc.exe" in meta
        assert "integrity=high" in meta
        assert "privilege=standard" in meta
        assert "arch=x64" in meta
        assert "windows_10" in meta
        assert "/quiet" in meta

    def test_pe_scalars_reach_process_meta(self):
        log, _ = parse_log(
            b'{"pe":{"pe_type":"pe32","section_count":3,"signed":true,'
            b'"entropy_bits":6.37,"entry_point_rva":74565}}'
        )
        meta = tokenize(log).group(GroupId.PROCESS_META)
        assert "pe_type=pe32" in meta
        assert "pe_sections=3" in meta
        assert "pe_signed=true" in meta
        assert "pe_entropy=6.37" in meta
        assert "pe_entry=0x12000" in meta  # 74565 = 0x12345, page-bucketed

    def test_group_partition_is_disjoint_by_source(self):
        # one field per group; each token appears in exactly one group
        log, _ = parse_log(
            b'{"runtime":{"stack_trace":["frame_a"],"registers":{"eax":"0x1000"},'
            b'"register_snippets":{"eip":"01020304"},'
            b'"loaded_modules":[{"path":"m.dll"}],"found_urls":["u"]},'
            b'"metadata":{"exe_name":"e.exe"}}'
        )
        tokens = tokenize(log)
        seen = {}
        for gid in GroupId:
            for tok in tokens.group(gid):
                assert tok not in seen, f"{tok} in both {seen.get(tok)} and {gid}"
                seen[tok] = gid

    def test_tokens_lowercase_nonempty_no_whitespace(self):
        logs = generate_corpus(GenSpec(n_malicious=5, n_benign=5, overlap=0.5, seed=2))
        for log in logs:
            for group in tokenize(log):
                for token in group:
                    assert token
                    assert token == token.lower()
                    assert not any(c.isspace() for c in token)

    def test_retokenize_after_round_trip_identical(self):
        logs = generate_corpus(GenSpec(n_malicious=8, n_benign=8, overlap=0.2, seed=9))
        for log in logs:
            relog, _ = parse_log(serialize_log(log))
            assert tokenize(relog) == tokenize(log)

    def test_deterministic(self):
        logs = generate_corpus(GenSpec(n_malicious=3, n_benign=3, overlap=0.0, seed=4))
        for log in logs:
            assert tokenize(log) == tokenize(log)


def ship_sized_doc() -> dict:
    """A log document the size of a shipped one (about 200 KB), built from a fixed seed."""
    rng = random.Random(20)
    seps = ["\\", "/", "\\\\", "//"]

    def path(*parts):
        joined = parts[0]
        for part in parts[1:]:
            joined += rng.choice(seps) + part
        return joined + rng.choice(["", "", "\\", "/", "\\/"])

    def name(stem):
        n = rng.randrange(1000)
        return rng.choice([f"{stem}{n}.dll", f"{stem.upper()}{n}.DLL", f"My {stem}  {n}.Dll",
                           f" {stem}\t{n}.dll "])

    modules = []
    for i in range(520):
        base = rng.randrange(0x10000000, 0x7FFF0000, 0x1000)
        modules.append({
            "base": rng.choice(["0x%x", "0X%X", "%x"]) % base,
            "end": hex(base + rng.randrange(1, 256) * 0x1000),
            "size": rng.randrange(1, 1 << 20),
            "path": path("C:", "Windows", rng.choice(["System32", "WinSxS", "Program Files"]),
                         name("mod")),
        })
    resources = [
        {"path": path("c:", "Users", "Work Dir", f"Item{rng.randrange(20000)}.DAT"),
         "size": rng.randrange(100, 10**6), "hash": rng.randbytes(16).hex()}
        for _ in range(260)
    ]
    frames = [rng.choice([f"mod{rng.randrange(900)}.dll+0x{rng.randrange(1 << 20):x}",
                          f"NTDLL.DLL+0X{rng.randrange(1 << 20):X}",
                          f"Kernel Base  Frame {i}", ""])
              for i in range(760)]
    return {
        "metadata": {"exe_name": "C:\\Program Files\\App Dir\\Tool.EXE", "exe_hash": "AbC",
                     "os_name": "Windows 10", "integrity_level": "HIGH", "exe_arch": "x64"},
        "runtime": {
            "command_line": "Tool.EXE  /Quiet\t--Mode=Fast",
            "registers": {r: "0x%X" % rng.randrange(1 << 48) for r in ("EAX", "ebx", "Rsp")},
            "eflags": "0x246",
            "register_snippets": {"EIP": rng.randbytes(23).hex(), "esp": rng.randbytes(16).hex()},
            "illegal_accesses": [{"address": "0x1000", "bytes": rng.randbytes(9).hex()}],
            "loaded_modules": modules,
            "loaded_resources": resources[:130],
            "opened_resources": resources[130:],
            "stack_trace": frames,
            "stack_snapshot": rng.randbytes(50_001).hex(),
            "embedded_files": [{"magic_type": "PK Zip"}],
            "found_urls": ["HTTPS://X.Example/Api"],
            "found_ips": ["10.0.0.1"],
            "scheduled_tasks": ["\\Tasks\\T1"],
            "hklm_run_entries": ["HKLM Run Svc"],
            "parent_process": {"path": "C:\\Windows\\Explorer.EXE", "hash": "Ff00",
                               "integrity_level": "medium"},
        },
        "pe": {"pe_type": "pe32plus", "entry_point_rva": 74565, "pdb_path": "D:\\Build\\Tool.PDB",
               "export_module_name": "Tool Lib", "entropy_bits": 6.5},
    }


class TestShipSizedLog:
    # sha256 of the token lists of ship_sized_doc(), as parse_log and tokenize
    # produced them before either was tuned for large logs
    DIGEST = "3ee3453d8a1d956e4e2c7a8b68a69add9d285c695e5f3463500bcbb5d4a88c36"

    def test_tokens_are_pinned(self):
        raw = json.dumps(ship_sized_doc()).encode()
        assert len(raw) > 150_000
        log, _ = parse_log(raw)
        tokens = tokenize(log)
        assert len(log.runtime.loaded_modules) >= 500
        assert len(log.runtime.stack_trace) >= 700
        assert len(log.runtime.stack_snapshot) % 4 != 0
        assert len(log.runtime.register_snippets) == 2
        lists = [list(group) for group in tokens]
        assert hashlib.sha256(repr(lists).encode()).hexdigest() == self.DIGEST
