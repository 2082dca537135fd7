"""Durable fitness cache keyed by genotype identifier.

One UTF-8 text file per run directory. The first line records a digest of the
trainer settings; a cache whose digest differs from the current run's settings
is refused, because cached fitness values are only comparable under identical
data and trainer settings. Each following line is one entry::

    <56-hex identifier> = <fitness percent, 2 decimals>

Entries are append-only and first-write-wins; they are never updated. Each
entry is flushed as it is written. A last line without its newline is what a
write cut short leaves (a crash mid-write, a full disk): loading drops it, so
at most that one genotype trains again.
"""

from __future__ import annotations

import logging
import os
import re
from pathlib import Path
from typing import TextIO

from .errors import ConfigError, InvariantViolation, PersistError

logger = logging.getLogger(__name__)

HEADER_PREFIX = "#traincfg="
ENTRY_RE = re.compile(r"^([0-9a-f]{56}) = (\d{1,3}\.\d{2})$")
IDENTIFIER_RE = re.compile(r"[0-9a-f]{56}")


class ResultCache:
    def __init__(self, path: Path | str, settings_digest: str):
        self.path = Path(path)
        self.settings_digest = settings_digest
        self._entries: dict[str, float] = {}
        self._fh: TextIO | None = None  # append handle, opened on the first insert
        if self.path.exists():
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self.path.write_text(f"{HEADER_PREFIX}{settings_digest}\n", encoding="utf-8")
            except OSError as exc:
                raise PersistError(f"cannot create cache file {self.path}: {exc}") from exc

    def _load(self) -> None:
        data = self.path.read_bytes()
        end = data.rfind(b"\n") + 1  # what follows the last newline is a torn write
        lines = data[:end].decode("utf-8").splitlines()
        if not lines or not lines[0].startswith(HEADER_PREFIX):
            raise ConfigError(f"cache file {self.path} has no settings header")
        found = lines[0][len(HEADER_PREFIX):]
        if found != self.settings_digest:
            raise ConfigError(
                f"cache at {self.path} was built under different trainer settings "
                f"(digest {found[:12]}.. != {self.settings_digest[:12]}..); refusing to reuse it"
            )
        for lineno, line in enumerate(lines[1:], start=2):
            m = ENTRY_RE.match(line)
            if m is None:
                raise ConfigError(f"malformed cache entry at {self.path}:{lineno}: {line!r}")
            self._entries.setdefault(m.group(1), float(m.group(2)))
        if end < len(data):  # cut before the next append, which would extend the torn line
            try:
                os.truncate(self.path, end)
            except OSError as exc:
                raise PersistError(f"cannot drop the torn last line of {self.path}: {exc}") from exc
            logger.warning("dropped %d bytes of a torn last line from %s", len(data) - end, self.path)

    def lookup(self, identifier: str) -> float | None:
        """Cached fitness (percent) for an identifier, or None on a miss."""
        return self._entries.get(identifier)

    def insert(self, identifier: str, value: float) -> bool:
        """Append and flush an entry unless the identifier is already present.

        Returns True when the entry was written. The first value stored for an
        identifier is retained forever.
        """
        if not IDENTIFIER_RE.fullmatch(identifier):
            raise InvariantViolation(f"bad identifier {identifier!r}")
        if not 0.0 <= value <= 100.0:
            raise InvariantViolation(f"fitness percent out of range: {value}")
        if identifier in self._entries:
            return False
        quantized = float(f"{value:.2f}")
        try:
            if self._fh is None:
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(f"{identifier} = {quantized:.2f}\n")
            self._fh.flush()
        except OSError as exc:
            raise PersistError(f"cannot append to cache file {self.path}: {exc}") from exc
        self._entries[identifier] = quantized
        return True

    def close(self) -> None:
        """Close the append handle; a later insert opens it again."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._entries
