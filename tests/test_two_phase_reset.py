"""Two-phase reset wrap-around coverage on the production cache.

The sweep in :func:`repro.memsys.cache.two_phase_reset` has two
execution paths (dense full-array ops vs the sparse occupied-line gather
added for big-cache sweeps); both must invalidate *exactly* the words
the shared pure predicate :func:`repro.coherence.tpi_rules.reset_selects`
selects — nothing more (fresh words survive), nothing less (stale-
aliased words die).  The scheme-level tests force the k-bit counter
through multiple full wrap-arounds and use the pure rules as an
independent oracle for every sweep the hardware fires.
"""

import numpy as np
import pytest

from repro.coherence import tpi_rules
from repro.common.config import CacheConfig
from repro.memsys.cache import Cache, two_phase_reset

from tests.test_coherence_tpi import TR_SITE, WKEY, make_ctx
from repro.coherence.api import make_scheme
from repro.common.stats import MissKind


def _seeded_cache(n_lines_resident: int, n_sets: int, line_words: int = 4,
                  modulus: int = 4) -> Cache:
    """A cache with ``n_lines_resident`` lines whose word timetags cycle
    through every residue mod ``modulus`` and whose valid bits alternate."""
    cache = Cache(CacheConfig(size_bytes=n_sets * line_words * 4,
                              line_words=line_words))
    value = 0
    for line_addr in range(n_lines_resident):
        loc, _, _ = cache.install(line_addr)
        s, w = loc
        for word in range(line_words):
            cache.timetag[s, w, word] = value % (2 * modulus)  # wrapped tags
            cache.word_valid[s, w, word] = (value % 3) != 0
            value += 1
    return cache


def _oracle_sweep(cache: Cache, lo: int, hi: int, modulus: int) -> np.ndarray:
    """Expected invalidation mask, from the pure predicate alone."""
    occupied = (cache.tags != -1)[:, :, None]
    return (cache.word_valid & occupied
            & tpi_rules.reset_selects(cache.timetag, lo, hi, modulus))


class TestSweepPaths:
    """Dense and sparse code paths agree exactly with the pure rule."""

    @pytest.mark.parametrize("lo,hi", [(0, 1), (2, 3)])
    def test_dense_path_invalidates_exactly_the_selected_words(self, lo, hi):
        # 4 of 4 sets occupied -> the dense full-array branch runs.
        cache = _seeded_cache(n_lines_resident=4, n_sets=4)
        before_valid = cache.word_valid.copy()
        expected = _oracle_sweep(cache, lo, hi, 4)
        count = two_phase_reset(cache, lo, hi, 4)
        assert count == int(expected.sum())
        assert count > 0
        np.testing.assert_array_equal(cache.word_valid,
                                      before_valid & ~expected)

    @pytest.mark.parametrize("lo,hi", [(0, 1), (2, 3)])
    def test_sparse_path_invalidates_exactly_the_selected_words(self, lo, hi):
        # 3 of 64 sets occupied -> the sparse gather branch runs.
        cache = _seeded_cache(n_lines_resident=3, n_sets=64)
        before_valid = cache.word_valid.copy()
        expected = _oracle_sweep(cache, lo, hi, 4)
        count = two_phase_reset(cache, lo, hi, 4)
        assert count == int(expected.sum())
        assert count > 0
        np.testing.assert_array_equal(cache.word_valid,
                                      before_valid & ~expected)

    def test_paths_agree_with_each_other(self):
        dense = _seeded_cache(n_lines_resident=4, n_sets=4)
        sparse = _seeded_cache(n_lines_resident=4, n_sets=64)
        assert (two_phase_reset(dense, 2, 3, 4)
                == two_phase_reset(sparse, 2, 3, 4))
        # Same resident lines, so the surviving words match 1:1.
        for line_addr in range(4):
            dl, sl = dense.probe(line_addr), sparse.probe(line_addr)
            np.testing.assert_array_equal(
                dense.word_valid[dl],
                sparse.word_valid[sl])

    def test_empty_cache_sweeps_nothing(self):
        cache = Cache(CacheConfig(size_bytes=64 * 4 * 4, line_words=4))
        assert two_phase_reset(cache, 0, 1, 4) == 0

    def test_wrapped_tags_selected_by_residue(self):
        """Tags are full epoch indices; the sweep must select on their
        k-bit residue (tag 5 mod 4 == 1 lies in phase [0, 1])."""
        cache = Cache(CacheConfig(size_bytes=4 * 4 * 4, line_words=4))
        loc, _, _ = cache.install(0)
        s, w = loc
        cache.timetag[s, w, :] = [1, 5, 2, 6]
        cache.word_valid[s, w, :] = True
        assert two_phase_reset(cache, 0, 1, 4) == 2
        np.testing.assert_array_equal(cache.word_valid[s, w],
                                      [False, False, True, True])


class TestSchemeWrapAround:
    """Drive the production TpiScheme through >= 2 full counter wraps,
    predicting every sweep with the shared pure rules."""

    def _predict_sweep(self, scheme, bounds):
        if bounds is None:
            return 0
        lo, hi = bounds
        expected = 0
        for cache in scheme.caches.values():
            expected += int(_oracle_sweep(cache, lo, hi, scheme.modulus).sum())
        return expected

    def test_every_sweep_matches_the_pure_oracle(self):
        k = 2
        ctx = make_ctx(timetag_bits=k, lines=8)
        scheme = make_scheme("tpi", ctx)
        modulus, phase = 1 << k, 1 << (k - 1)
        epochs = 3 * modulus  # three full wrap-arounds
        invalidated = 0
        for epoch in range(epochs):
            bounds = tpi_rules.crossed_phase_bounds(
                scheme.epoch_index, scheme.epoch_index + 1, modulus, phase)
            expected = self._predict_sweep(scheme, bounds)
            before = scheme.reset_invalidations
            scheme.begin_epoch(epoch, True)
            assert scheme.reset_invalidations - before == expected
            invalidated += expected
            # Touch data each epoch so later sweeps have prey: proc 0
            # writes (tag R), proc 1 reads (tags R / R-1 across the line).
            scheme.write(0, 8, 2, True, False)
            scheme.read(1, 9, TR_SITE, True, False)
            scheme.end_epoch(WKEY)
            ctx.shadow.barrier()
        wraps = (scheme.epoch_index + 1) // modulus
        assert wraps >= 2
        assert scheme.resets == sum(
            1 for e in range(epochs)
            if tpi_rules.crossed_phase_bounds(e, e + 1, modulus, phase))
        assert invalidated > 0
        assert scheme.reset_invalidations == invalidated

    def test_sparse_big_cache_wraps_cleanly(self):
        """PR 5's sparse sweep path at scheme level: a big cache with a
        few resident lines, >= 2 wraps, oracle-exact sweeps."""
        k = 2
        ctx = make_ctx(timetag_bits=k, lines=256, words=2048)
        scheme = make_scheme("tpi", ctx)
        modulus, phase = 1 << k, 1 << (k - 1)
        for epoch in range(2 * modulus + 1):
            bounds = tpi_rules.crossed_phase_bounds(
                scheme.epoch_index, scheme.epoch_index + 1, modulus, phase)
            expected = self._predict_sweep(scheme, bounds)
            before = scheme.reset_invalidations
            scheme.begin_epoch(epoch, True)
            assert scheme.reset_invalidations - before == expected
            # Two resident lines in a 256-set cache: sparse branch.
            scheme.read(0, 8, TR_SITE, True, False)
            scheme.read(1, 512, TR_SITE, True, False)
            scheme.end_epoch(None)
            ctx.shadow.barrier()
        assert (scheme.epoch_index + 1) // modulus >= 2
        assert scheme.reset_invalidations > 0

    def test_no_aliased_hit_survives_two_wraps(self):
        """After the counter returns to the same k-bit value twice over,
        a word last validated 2^k epochs ago must not hit: the sweep has
        removed it, exactly as reset_selects predicts."""
        k = 2
        ctx = make_ctx(timetag_bits=k)
        scheme = make_scheme("tpi", ctx)
        modulus = 1 << k
        scheme.begin_epoch(0, True)  # counter 1
        scheme.read(0, 8, TR_SITE, True, False)  # tag 1
        scheme.end_epoch(None)
        ctx.shadow.barrier()
        for epoch in range(1, 2 * modulus + 1):
            scheme.begin_epoch(epoch, True)
            scheme.end_epoch(None)
            ctx.shadow.barrier()
        # Counter is back at 1 (mod 4) for the second time.
        assert scheme.epoch_index % modulus == 1
        result = scheme.read(0, 8, TR_SITE, True, False)
        assert result.kind is MissKind.RESET
