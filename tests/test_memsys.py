"""Unit tests for the memory-system substrate."""

import numpy as np
import pytest

from repro.common.config import CacheConfig, MachineConfig, NetworkConfig
from repro.memsys.cache import Cache
from repro.memsys.lazystate import TouchBitmap
from repro.memsys.memory import ShadowMemory
from repro.memsys.network import KruskalSnirNetwork
from repro.memsys.wbuffer import (
    WRITE_MESSAGE_WORDS,
    CoalescingWriteBuffer,
    FifoWriteBuffer,
)


def tiny_cache(line_words=4, lines=8, assoc=1):
    return Cache(CacheConfig(size_bytes=lines * line_words * 4,
                             line_words=line_words, associativity=assoc))


class TestCacheGeometry:
    def test_split(self):
        cache = tiny_cache()
        line, set_index, word = cache.split(22)
        assert (line, word) == (5, 2)
        assert set_index == 5 % cache.n_sets

    def test_probe_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.probe(5) is None
        loc, evicted, dirty = cache.install(5)
        assert evicted is None and not dirty
        assert cache.probe(5) == loc

    def test_direct_mapped_conflict(self):
        cache = tiny_cache(lines=8)
        cache.install(3)
        _, evicted, _ = cache.install(3 + 8)  # same set
        assert evicted == 3
        assert cache.probe(3) is None

    def test_associative_avoids_conflict(self):
        cache = tiny_cache(lines=8, assoc=2)
        cache.install(3)
        _, evicted, _ = cache.install(3 + 4)  # same set (4 sets), other way
        assert evicted is None
        assert cache.probe(3) is not None and cache.probe(7) is not None

    def test_lru_eviction(self):
        cache = tiny_cache(lines=8, assoc=2)
        a, _, _ = cache.install(0)
        b, _, _ = cache.install(4)
        cache.touch(cache.probe(0))  # 0 most recent
        _, evicted, _ = cache.install(8)
        assert evicted == 4

    def test_dirty_eviction_reported(self):
        cache = tiny_cache()
        loc, _, _ = cache.install(2)
        cache.dirty[loc] = True
        _, evicted, dirty = cache.install(2 + cache.n_sets)
        assert evicted == 2 and dirty

    def test_install_sets_all_words_valid(self):
        cache = tiny_cache()
        loc, _, _ = cache.install(1)
        assert cache.word_valid[loc].all()
        assert not cache.used[loc].any()

    def test_invalidate_line(self):
        cache = tiny_cache()
        loc, _, _ = cache.install(1)
        cache.invalidate_line(loc)
        assert cache.probe(1) is None


class TestTwoPhaseReset:
    def test_invalidates_only_target_phase(self):
        cache = tiny_cache(line_words=4)
        loc, _, _ = cache.install(0)
        cache.timetag[loc] = [3, 130, 127, 128]
        count = cache.two_phase_reset(128, 255, modulus=256)
        assert count == 2
        valid = cache.word_valid[loc]
        assert list(valid) == [True, False, True, False]

    def test_ignores_invalid_words(self):
        cache = tiny_cache()
        loc, _, _ = cache.install(0)
        cache.word_valid[loc[0], loc[1], :] = False
        assert cache.two_phase_reset(0, 255, modulus=256) == 0

    def test_flush_all(self):
        cache = tiny_cache()
        cache.install(0)
        cache.install(1)
        assert cache.flush_all_words() == 8
        assert cache.flush_all_words() == 0


class TestWriteBuffers:
    def test_fifo_counts_every_write(self):
        wb = FifoWriteBuffer()
        traffic = sum(wb.note_write(7) for _ in range(5))
        assert traffic == 5 * WRITE_MESSAGE_WORDS
        assert wb.drain() == 0

    def test_coalescing_merges(self):
        wb = CoalescingWriteBuffer()
        for _ in range(5):
            assert wb.note_write(7) == 0
        wb.note_write(9)
        assert wb.drain() == 2 * WRITE_MESSAGE_WORDS
        assert wb.merged_writes == 4
        assert wb.drain() == 0  # empty after drain

    def test_coalescing_resets_between_sync_points(self):
        wb = CoalescingWriteBuffer()
        wb.note_write(7)
        wb.drain()
        wb.note_write(7)
        assert wb.drain() == WRITE_MESSAGE_WORDS  # second epoch pays again


class TestNetwork:
    def net(self, **kw):
        return KruskalSnirNetwork(MachineConfig(**kw))

    def test_unloaded_latency_near_base(self):
        net = self.net()
        # 100 base + 4 words * 8 cycles = 132 unloaded
        assert net.miss_latency(4) == 132

    def test_latency_monotone_in_load(self):
        net = self.net()
        unloaded = net.miss_latency(4)
        net.rho = 0.5
        loaded = net.miss_latency(4)
        net.rho = 0.9
        saturated = net.miss_latency(4)
        assert unloaded < loaded < saturated

    def test_latency_monotone_in_line_size(self):
        net = self.net()
        net.rho = 0.3
        lat = [net.miss_latency(w) for w in (1, 4, 8, 16)]
        assert lat == sorted(lat) and len(set(lat)) == 4

    def test_calibration_matches_paper_latency_table(self):
        """The paper's table: ~136 cycles at 16-byte lines, ~355 at 64-byte.

        Larger lines quadruple the words per miss, so the feedback loop runs
        them at a much higher offered load; at the resulting operating
        points the model should land near the published numbers.
        """
        net = self.net()
        net.rho = 0.15  # light load typical of 16-byte-line runs
        assert 128 <= net.miss_latency(4) <= 145
        net.rho = 0.72  # heavy load typical of 64-byte-line runs
        assert 320 <= net.miss_latency(16) <= 400

    def test_observe_epoch_smoothing(self):
        net = self.net()
        net.observe_epoch(words_injected=1600, proc_cycles=1000, smoothing=0.5)
        assert net.rho == pytest.approx(0.05)
        net.observe_epoch(1600, 1000, smoothing=0.5)
        assert net.rho == pytest.approx(0.075)

    def test_load_clamped(self):
        net = self.net()
        net.observe_epoch(10 ** 9, 10, smoothing=1.0)
        assert net.rho <= net.config.max_load

    def test_word_and_control_latency(self):
        net = self.net()
        assert net.word_latency() < net.miss_latency(4)
        assert net.control_latency() < net.word_latency()


class TestShadowMemory:
    def test_versions_monotone(self):
        shadow = ShadowMemory(16)
        assert shadow.read_version(3) == 0
        assert shadow.write(3, proc=1) == 1
        assert shadow.write(3, proc=2) == 2
        assert shadow.last_writer[3] == 2

    def test_barrier_floor(self):
        shadow = ShadowMemory(16)
        shadow.write(3, 0)
        assert shadow.visible_floor(3) == 0
        shadow.barrier()
        assert shadow.visible_floor(3) == 1

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            ShadowMemory(0)


class TestTouchBitmap:
    def test_scalar_paths_match_fancy_indexing(self):
        """Python-int get/set (the per-event path) and the fancy-indexed
        path (the batch kernels) read and write the same bits."""
        rng = np.random.default_rng(7)
        scalar = TouchBitmap(6, 40)
        fancy = TouchBitmap(6, 40)
        procs = rng.integers(0, 5, 60)  # proc 5 never touched
        addrs = rng.integers(0, 40, 60)
        for p, a in zip(procs.tolist(), addrs.tolist()):
            scalar[p, a] = True
        fancy[procs, addrs] = True
        every_p = np.repeat(np.arange(6), 40)
        every_a = np.tile(np.arange(40), 6)
        expected = fancy[every_p, every_a].tolist()
        assert scalar[every_p, every_a].tolist() == expected
        assert [scalar[p, a] for p, a in zip(every_p.tolist(),
                                              every_a.tolist())] == expected
        assert scalar[5, 3] is False
