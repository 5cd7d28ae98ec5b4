"""Content-addressed on-disk artifact cache.

Four artifact kinds are stored, all pickled under their fingerprint:

* ``prepared`` — :class:`~repro.sim.runner.PreparedRun` front-end output
  (marking + trace), keyed by :meth:`Job.prepare_fingerprint`;
* ``result`` — finished :class:`~repro.sim.metrics.SimResult`, keyed by
  :meth:`Job.fingerprint`;
* ``lint`` — :class:`~repro.analysis.diagnostics.Report` from
  ``repro lint``, keyed by :func:`repro.analysis.lint.lint_fingerprint`;
* ``modelcheck`` — :class:`~repro.analysis.diagnostics.Report` from
  ``repro modelcheck``, keyed by :func:`repro.analysis.mc_core.fingerprint`.

Layout: ``<root>/v<CACHE_VERSION>/<kind>/<key[:2]>/<key>.pkl``.  The root
defaults to ``~/.cache/repro`` and can be overridden with the
``REPRO_CACHE_DIR`` environment variable or the ``--cache-dir`` CLI flag.

Key salting: every fingerprint mixes in :func:`cache_salt`, which combines
``CACHE_VERSION`` with a digest of every ``*.py`` file of the ``repro``
package, so any edit to the code makes every earlier artifact
unaddressable.  The cost is that each edit cold-starts local caches; the
orphaned entries stay on disk until ``repro cache clear``.  Bump
``CACHE_VERSION`` when the on-disk layout itself changes.

Loads are corruption-tolerant: any failure to read or unpickle an entry is
treated as a miss and the damaged file is removed.  Stores are atomic
(write to a temp file, then rename) and best-effort — a full disk degrades
to a cache miss, never to a failed run.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

CACHE_VERSION = 2
"""On-disk layout version; bump when the directory structure or the
pickled shape of a cached artifact class changes (v2: ``Report.tool``)."""

KIND_PREPARED = "prepared"
KIND_RESULT = "result"
KIND_LINT = "lint"
KIND_MODELCHECK = "modelcheck"
_KINDS = (KIND_PREPARED, KIND_RESULT, KIND_LINT, KIND_MODELCHECK)


@functools.lru_cache(maxsize=None)
def cache_salt() -> str:
    """The salt mixed into every fingerprint: ``CACHE_VERSION`` and a
    sha256 over each module's package-relative path and bytes, in sorted
    path order, so that adding, deleting or renaming a module changes it
    as well as editing one.  Computed once per process."""
    package = Path(__file__).parents[1]
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(package).as_posix()
                       for path in package.rglob("*.py")):
        source = (package / name).read_bytes()
        digest.update(f"{name}\0{len(source)}\0".encode() + source)
    return f"v{CACHE_VERSION}:{digest.hexdigest()}"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    """Entry counts and byte totals per artifact kind."""

    root: str
    entries: Dict[str, int] = field(default_factory=dict)
    bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def render(self) -> str:
        lines = [f"cache {self.root}"]
        for kind in sorted(set(self.entries) | set(self.bytes)):
            lines.append(f"  {kind:>9}: {self.entries.get(kind, 0):>6} entries"
                         f"  {self.bytes.get(kind, 0) / 1024:>10.1f} KB")
        lines.append(f"  {'total':>9}: {self.total_entries:>6} entries"
                     f"  {self.total_bytes / 1024:>10.1f} KB")
        return "\n".join(lines)


class ArtifactCache:
    """Pickle store addressed by content fingerprint."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.base = self.root / f"v{CACHE_VERSION}"

    # ---------------------------------------------------------------- paths

    def _path(self, kind: str, key: str) -> Path:
        return self.base / kind / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------ I/O

    def load(self, kind: str, key: str) -> Optional[Any]:
        """Return the cached object, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss; the stale file is
        removed so it cannot poison later lookups.
        """
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def store(self, kind: str, key: str, obj: Any) -> bool:
        """Atomically persist an object; returns False on I/O failure."""
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return True
        except Exception:
            # Unpicklable payloads and I/O failures (full disk, read-only
            # cache) degrade to a miss on the next lookup, never to a
            # failed run.
            return False

    # ----------------------------------------------------------- management

    def stats(self) -> CacheStats:
        """Entry counts per kind; safe against concurrent mutation.

        Another worker may be populating or clearing the same root while
        this scan runs (the serve deployment does exactly that), so a
        directory or entry vanishing mid-iteration is counted as absent —
        zeroed stats, never a traceback.
        """
        stats = CacheStats(root=str(self.root))
        for kind in _KINDS:
            kind_dir = self.base / kind
            count = size = 0
            try:
                if kind_dir.is_dir():
                    for entry in kind_dir.rglob("*.pkl"):
                        try:
                            size += entry.stat().st_size
                            count += 1
                        except OSError:
                            continue
            except OSError:
                # The kind directory itself was removed mid-scan.
                count = size = 0
            stats.entries[kind] = count
            stats.bytes[kind] = size
        return stats

    def clear(self) -> int:
        """Remove every cached artifact; returns the number removed.

        Like :meth:`stats`, this tolerates a racing worker deleting (or
        re-creating) entries mid-walk: whatever this process removed is
        counted, everything else is skipped.
        """
        removed = 0
        try:
            if not self.base.is_dir():
                return removed
            entries = sorted(self.base.rglob("*"), reverse=True)
        except OSError:
            return removed
        for entry in entries:
            try:
                if entry.is_dir():
                    entry.rmdir()
                else:
                    entry.unlink()
                    removed += 1
            except OSError:
                continue
        try:
            self.base.rmdir()
        except OSError:
            pass
        return removed
