"""Suite-wide fixtures.

The CLI enables the on-disk artifact cache by default; redirect it into a
per-session temporary directory so tests never read from (or write into)
the developer's real ``~/.cache/repro`` — a warm personal cache would let
CLI tests pass without exercising the engine at all.
"""

from pathlib import Path

import pytest

from repro.runtime.cache import cache_salt


@pytest.fixture(autouse=True)
def _hermetic_cache_dir(tmp_path_factory, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.getbasetemp() / "repro-cache"))


@pytest.fixture
def edit_source(monkeypatch):
    """``edit_source(path)`` simulates appending a comment to one module:
    from then on ``path`` reads with the comment (replacing any earlier
    edit) and the cache salt is computed afresh, so every key made after
    the call sees the edit.  Teardown restores the real bytes and salt."""
    read_bytes = Path.read_bytes
    edited = []

    def edit(path):
        edited[:] = [Path(path)]
        cache_salt.cache_clear()

    monkeypatch.setattr(Path, "read_bytes", lambda path: read_bytes(path)
                        + (b"# edited\n" if path in edited else b""))
    yield edit
    cache_salt.cache_clear()
