import logging
import random
import re

import pytest

from evonas.cache import ResultCache
from evonas.errors import ConfigError, InvariantViolation

DIGEST = "a" * 56
ENTRY_PATTERN = re.compile(r"^[0-9a-f]{56} = \d{1,3}\.\d{2}$")


def rand_id(rng):
    return "".join(rng.choice("0123456789abcdef") for _ in range(56))


def test_lookup_miss_and_hit(tmp_path, closing):
    cache = closing(ResultCache(tmp_path / "cache.txt", DIGEST))
    ident = "b" * 56
    assert cache.lookup(ident) is None
    assert cache.insert(ident, 90.50) is True
    assert cache.lookup(ident) == 90.50


def test_first_write_wins(tmp_path, closing):
    cache = closing(ResultCache(tmp_path / "cache.txt", DIGEST))
    ident = "c" * 56
    assert cache.insert(ident, 80.00)
    assert cache.insert(ident, 95.00) is False
    assert cache.lookup(ident) == 80.00


def test_cache_survives_reload(tmp_path, closing):
    path = tmp_path / "cache.txt"
    cache = closing(ResultCache(path, DIGEST))
    ident = "d" * 56
    cache.insert(ident, 90.50)
    reloaded = ResultCache(path, DIGEST)  # same process restart pattern
    assert reloaded.lookup(ident) == 90.50
    assert len(reloaded) == 1


def test_cache_refuses_mismatched_settings_digest(tmp_path, closing):
    path = tmp_path / "cache.txt"
    closing(ResultCache(path, DIGEST)).insert("e" * 56, 50.00)
    with pytest.raises(ConfigError):
        ResultCache(path, "f" * 56)


def test_entry_format_pinned(tmp_path, closing):
    path = tmp_path / "cache.txt"
    cache = closing(ResultCache(path, DIGEST))
    cache.insert("9" * 56, 90.5)
    lines = path.read_text().splitlines()
    assert lines[0] == f"#traincfg={DIGEST}"
    assert lines[1] == f"{'9' * 56} = 90.50"


def test_value_bounds_and_identifier_shape(tmp_path, closing):
    cache = closing(ResultCache(tmp_path / "cache.txt", DIGEST))
    with pytest.raises(InvariantViolation):
        cache.insert("short", 50.0)
    with pytest.raises(InvariantViolation):
        cache.insert("a" * 56, 101.0)
    with pytest.raises(InvariantViolation):
        cache.insert("a" * 56, -0.5)


def test_ten_thousand_entries_under_one_megabyte(tmp_path, closing):
    path = tmp_path / "cache.txt"
    cache = closing(ResultCache(path, DIGEST))
    rng = random.Random(8)
    inserted = set()
    while len(inserted) < 10_000:
        ident = rand_id(rng)
        if ident in inserted:
            continue
        cache.insert(ident, round(rng.uniform(0, 100), 2))
        inserted.add(ident)
    size = path.stat().st_size
    assert size < 1_000_000
    lines = path.read_text().splitlines()
    assert len(lines) == 10_001  # header + one line per distinct identifier
    for line in lines[1:]:
        assert ENTRY_PATTERN.match(line), line


def test_every_line_parses_back(tmp_path, closing):
    path = tmp_path / "cache.txt"
    cache = closing(ResultCache(path, DIGEST))
    rng = random.Random(9)
    expected = {}
    for _ in range(200):
        ident = rand_id(rng)
        value = round(rng.uniform(0, 100), 2)
        if cache.insert(ident, value):
            expected[ident] = value
    reloaded = ResultCache(path, DIGEST)
    assert len(reloaded) == len(expected)
    for ident, value in expected.items():
        assert reloaded.lookup(ident) == pytest.approx(value)


def test_inserts_share_one_append_handle_and_reload_after_close(tmp_path, monkeypatch):
    from pathlib import Path

    path = tmp_path / "cache.txt"
    cache = ResultCache(path, DIGEST)
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    rng = random.Random(3)
    expected = {rand_id(rng): round(rng.uniform(0, 100), 2) for _ in range(50)}
    for ident, value in expected.items():
        assert cache.insert(ident, value)
    assert opened == [path]
    # every entry is on disk before close: each one is flushed as it is written
    assert len(path.read_text().splitlines()) == 1 + len(expected)
    cache.close()
    monkeypatch.undo()
    reloaded = ResultCache(path, DIGEST)
    assert {ident: reloaded.lookup(ident) for ident in expected} == expected
    assert reloaded.insert("d" * 56, 12.34)  # a reloaded cache appends as before
    reloaded.close()
    assert path.read_text().splitlines()[-1] == f"{'d' * 56} = 12.34"


@pytest.mark.parametrize(
    "torn", ["c" * 30, f"{'c' * 56} = 42.00"], ids=["partial_entry", "entry_without_newline"]
)
def test_torn_last_line_is_dropped_before_the_next_append(tmp_path, caplog, closing, torn):
    """A write cut short leaves a last line without its newline. Loading drops it, so the
    next insert starts a line of its own and the cache loads again afterwards."""
    path = tmp_path / "cache.txt"
    first = ResultCache(path, DIGEST)
    first.insert("b" * 56, 10.00)
    first.close()
    with path.open("a", encoding="utf-8") as fh:
        fh.write(torn)
    with caplog.at_level(logging.WARNING, logger="evonas.cache"):
        cache = closing(ResultCache(path, DIGEST))
    assert f"dropped {len(torn)} bytes" in caplog.text
    assert len(cache) == 1 and cache.lookup("c" * 56) is None
    assert cache.insert("d" * 56, 20.00)
    assert path.read_text(encoding="utf-8") == f"#traincfg={DIGEST}\n{'b' * 56} = 10.00\n{'d' * 56} = 20.00\n"
    assert len(closing(ResultCache(path, DIGEST))) == 2
