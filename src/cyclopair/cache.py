"""Advisory on-disk cache of irregular indices, one TSV per cache directory.

Format: a comment header recording the tool version, then one line per
swept prime, ``p<TAB>k1,k2,...`` with ``-`` for an empty index list, sorted
by p.  The cache is auditable and mergeable by hand; a corrupt file is
reported and ignored, never trusted.
"""

import contextlib
import os
import sys
import tempfile
from pathlib import Path

from . import __version__

CACHE_FILENAME = "irregular.tsv"
_HEADER = f"# cyclopair irregular-cache v1 tool={__version__}"


class IrregularCache:
    def __init__(self, directory: str | os.PathLike):
        self.path = Path(directory) / CACHE_FILENAME

    def load(self) -> dict[int, tuple[int, ...]]:
        """All cached entries, or {} (with a report) when unreadable/corrupt."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            print(f"cyclopair: cache unreadable, recomputing: {exc}", file=sys.stderr)
            return {}
        entries: dict[int, tuple[int, ...]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                p_str, _, k_str = line.partition("\t")
                p = int(p_str)
                ks = () if k_str in ("-", "") else tuple(
                    int(k) for k in k_str.split(",")
                )
            except ValueError:
                print(
                    f"cyclopair: cache corrupt at {self.path}:{lineno}, recomputing",
                    file=sys.stderr,
                )
                return {}
            entries[p] = tuple(sorted(ks))
        return entries

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
