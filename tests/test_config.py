"""``key = value`` config files, parsed directly."""
import pytest

from memlog.config import parse_config


def parse(tmp_path, text):
    path = tmp_path / "memlog.conf"
    path.write_text(text, encoding="utf-8")
    return parse_config(str(path))


def test_comments_and_blank_lines_are_skipped(tmp_path):
    text = "# a comment\n\n   \n  # indented comment\nmodel = m.mlgb  # trailing comment\n"
    assert parse(tmp_path, text) == {"model": "m.mlgb"}


def test_keys_and_values_are_stripped_and_the_last_one_wins(tmp_path):
    text = "  bind=127.0.0.1:0 \nthreshold = 0.5\nthreshold = 0.9\nempty =\n"
    assert parse(tmp_path, text) == {"bind": "127.0.0.1:0", "threshold": "0.9", "empty": ""}


def test_surrounding_quotes_are_stripped(tmp_path):
    text = (
        'double = "a path/with spaces"\n'
        "single = 'x'\n"
        "mixed = \"x'\n"
        'lone = "\n'
        "inner = a'b'c\n"
    )
    assert parse(tmp_path, text) == {
        "double": "a path/with spaces",
        "single": "x",
        "mixed": "\"x'",
        "lone": '"',
        "inner": "a'b'c",
    }


def test_hash_inside_a_value_starts_a_comment(tmp_path):
    text = "tag = a#b\nquoted = 'c # d'\n"
    assert parse(tmp_path, text) == {"tag": "a", "quoted": "'c"}


def test_only_the_first_equals_sign_splits(tmp_path):
    assert parse(tmp_path, "server_url = http://h:1/?a=b\n") == {
        "server_url": "http://h:1/?a=b"
    }


def test_empty_key_names_its_line(tmp_path):
    with pytest.raises(ValueError, match=r"memlog.conf:2: empty key"):
        parse(tmp_path, "model = m\n = 5\n")


def test_line_without_equals_names_its_line(tmp_path):
    with pytest.raises(ValueError, match=r"memlog.conf:3: expected key = value, got 'model'"):
        parse(tmp_path, "# header\nbind = h:1\nmodel\n")
