"""Concurrency and damage tolerance of the on-disk artifact cache.

Properties the serve deployment depends on, where one
:class:`~repro.runtime.cache.ArtifactCache` root is shared by the server
and its worker processes:

* concurrent writers on one fingerprint never corrupt the entry (the
  atomic temp-file/rename store);
* a reader racing a writer sees either a miss or a complete artifact —
  never a partial pickle;
* a truncated entry on disk is a miss, and is evicted;
* ``stats``/``clear`` tolerate another worker mutating the directory
  tree mid-scan.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.runtime import ArtifactCache
from repro.runtime.cache import KIND_RESULT

KEY = "ab" + "0" * 62


def _spin_writer(root, key, rounds):
    """Store `rounds` distinguishable-but-valid payloads on one key."""
    cache = ArtifactCache(root)
    for i in range(rounds):
        payload = {"round": i, "blob": list(range(200))}
        assert cache.store(KIND_RESULT, key, payload)
    return rounds


def _spin_reader(root, key, rounds):
    """Load repeatedly; every hit must be a complete artifact."""
    cache = ArtifactCache(root)
    complete = 0
    for _ in range(rounds):
        hit = cache.load(KIND_RESULT, key)
        if hit is None:
            continue  # a miss is legal mid-race; a partial pickle is not
        assert set(hit) == {"round", "blob"}
        assert hit["blob"] == list(range(200))
        complete += 1
    return complete


class TestConcurrentWriters:
    def test_two_processes_writing_one_fingerprint(self, tmp_path):
        root = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_spin_writer, root, KEY, 60)
                       for _ in range(2)]
            for future in futures:
                assert future.result() == 60
        cache = ArtifactCache(root)
        final = cache.load(KIND_RESULT, KEY)
        assert final is not None and final["round"] == 59
        # exactly one entry on disk, no leftover temp files
        shard = cache._path(KIND_RESULT, KEY).parent
        assert [p.name for p in shard.iterdir()] == [f"{KEY}.pkl"]

    def test_reader_racing_writer_sees_miss_or_complete(self, tmp_path):
        root = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=2) as pool:
            writer = pool.submit(_spin_writer, root, KEY, 120)
            reader = pool.submit(_spin_reader, root, KEY, 400)
            assert writer.result() == 120
            reader.result()  # raises if any load returned a partial pickle

    def test_partial_pickle_on_disk_is_a_tolerated_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store(KIND_RESULT, KEY, {"ok": True})
        path = cache._path(KIND_RESULT, KEY)
        path.write_bytes(path.read_bytes()[:10])  # truncate mid-pickle
        assert cache.load(KIND_RESULT, KEY) is None
        assert not path.exists()  # the damaged entry was evicted


class TestStatsClearTolerance:
    def test_stats_on_missing_root_is_zeroed(self, tmp_path):
        stats = ArtifactCache(tmp_path / "never-created").stats()
        assert stats.total_entries == 0
        assert stats.total_bytes == 0

    def test_clear_on_missing_root_returns_zero(self, tmp_path):
        assert ArtifactCache(tmp_path / "never-created").clear() == 0

    def test_stats_tolerates_directory_vanishing_mid_scan(self, tmp_path,
                                                          monkeypatch):
        import pathlib

        cache = ArtifactCache(tmp_path / "cache")
        cache.store(KIND_RESULT, KEY, {"ok": True})

        def exploding_rglob(self, pattern):
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(pathlib.Path, "rglob", exploding_rglob)
        stats = cache.stats()  # zeroed, not a traceback
        assert stats.total_entries == 0

    def test_clear_tolerates_racing_deletion(self, tmp_path, monkeypatch):
        import pathlib

        cache = ArtifactCache(tmp_path / "cache")
        cache.store(KIND_RESULT, KEY, {"ok": True})
        real_unlink = pathlib.Path.unlink

        def racing_unlink(self, *args, **kwargs):
            real_unlink(self, *args, **kwargs)  # someone else got it first
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(pathlib.Path, "unlink", racing_unlink)
        assert cache.clear() == 0  # nothing *we* removed, and no traceback
        monkeypatch.undo()
        assert cache.load(KIND_RESULT, KEY) is None
