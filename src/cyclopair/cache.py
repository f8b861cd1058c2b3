"""Advisory on-disk cache of irregular indices, one TSV per cache directory.

Format: a comment header recording the tool version, then one line per
swept prime, ``p<TAB>k1,k2,...`` with ``-`` for an empty index list, sorted
by p.  The cache is auditable and mergeable by hand.  Nothing in it is
trusted before it is validated: a file from another tool version, with a
malformed entry or cut short by a truncated write is reported and ignored
as a whole.
"""

import contextlib
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable

from . import __version__
from .modmath import is_prime

CACHE_FILENAME = "irregular.tsv"
_HEADER_PREFIX = "# cyclopair irregular-cache v1 "
_HEADER = f"{_HEADER_PREFIX}tool={__version__}"


class IrregularCache:
    def __init__(self, directory: str | os.PathLike):
        self.path = Path(directory) / CACHE_FILENAME

    def load(self) -> dict[int, tuple[int, ...]]:
        """All cached entries, or {} (with a report) when unreadable or invalid."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            print(f"cyclopair: cache unreadable, recomputing: {exc}", file=sys.stderr)
            return {}
        try:
            return self._parse(text)
        except ValueError as exc:
            print(f"cyclopair: cache {exc}, recomputing", file=sys.stderr)
            return {}

    def _parse(self, text: str) -> dict[int, tuple[int, ...]]:
        # raises ValueError naming the first reason to reject the whole file
        *lines, tail = text.split("\n")
        if tail:
            raise ValueError(f"corrupt at {self.path}: last line cut short")
        if not lines or not lines[0].startswith(_HEADER_PREFIX):
            raise ValueError(f"corrupt at {self.path}:1: no cache header")
        header = lines[0]
        if header != _HEADER:
            raise ValueError(f"at {self.path} is from another version "
                             f"({header[len(_HEADER_PREFIX):]}, not tool={__version__})")
        return read_entries(lines[1:], f"corrupt at {self.path}", first_lineno=2)

    def store(self, entries: dict[int, tuple[int, ...]]) -> None:
        """Atomically rewrite the cache; on failure warn and continue."""
        lines = [_HEADER]
        for p in sorted(entries):
            ks = entries[p]
            lines.append(f"{p}\t{','.join(map(str, ks)) if ks else '-'}")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # a temp file of our own: concurrent sweeps sharing the directory
            # must never move each other's half-written file into place
            fd, tmp = tempfile.mkstemp(
                prefix="irregular.", suffix=".tmp", dir=self.path.parent)
            try:
                with os.fdopen(fd, "w") as out:
                    out.write("".join(line + "\n" for line in lines))
                os.replace(tmp, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            print(f"cyclopair: cache not writable, continuing uncached: {exc}",
                  file=sys.stderr)


def read_entries(
    lines: Iterable[str], where: str, first_lineno: int = 1
) -> dict[int, tuple[int, ...]]:
    """Validated ``p<TAB>k1,k2,...`` entries, in file order.

    Blank and ``#`` lines are skipped.  Raises ValueError naming
    ``where:lineno`` at the first malformed entry or repeated p.
    """
    entries: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            p, ks = _parse_entry(line)
            if p in entries:
                raise ValueError(f"p = {p} listed twice")
        except ValueError as exc:
            raise ValueError(f"{where}:{lineno}: {exc}") from None
        entries[p] = ks
    return entries


def _parse_entry(line: str) -> tuple[int, tuple[int, ...]]:
    p_str, tab, k_str = line.partition("\t")
    if not tab:
        raise ValueError("no tab after p")
    p = int(p_str)
    if p < 7 or not is_prime(p):
        raise ValueError(f"{p} is not a prime >= 7")
    ks = () if k_str == "-" else tuple(int(k) for k in k_str.split(","))
    if list(ks) != sorted(set(ks)) or any(k % 2 or not 2 <= k <= p - 3 for k in ks):
        raise ValueError(f"indices are not sorted, distinct and even in [2, {p - 3}]")
    return p, ks
