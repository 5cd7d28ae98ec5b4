"""Property tests on the cache structure itself."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.memsys.cache import Cache


def make_cache(lines=8, assoc=2, line_words=4):
    return Cache(CacheConfig(size_bytes=lines * line_words * 4,
                             line_words=line_words, associativity=assoc))


@st.composite
def line_sequences(draw):
    return draw(st.lists(st.integers(0, 63), min_size=1, max_size=120))


class TestCacheInvariants:
    @settings(max_examples=100, deadline=None)
    @given(line_sequences(), st.sampled_from([1, 2, 4]))
    def test_no_duplicate_lines(self, lines, assoc):
        """A line address never occupies two ways at once."""
        cache = make_cache(lines=8, assoc=assoc)
        for line in lines:
            if cache.probe(line) is None:
                cache.install(line)
            resident = [int(tag) for row in cache.tags for tag in row
                        if tag != -1]
            assert len(resident) == len(set(resident))

    @settings(max_examples=100, deadline=None)
    @given(line_sequences())
    def test_install_makes_line_resident(self, lines):
        cache = make_cache()
        for line in lines:
            loc, evicted, _ = cache.install(line)
            assert cache.probe(line) == loc
            if evicted is not None:
                assert cache.probe(evicted) is None

    @settings(max_examples=100, deadline=None)
    @given(line_sequences())
    def test_occupancy_bounded(self, lines):
        cache = make_cache(lines=8, assoc=2)
        for line in lines:
            if cache.probe(line) is None:
                cache.install(line)
            assert cache.occupancy <= 8

    @settings(max_examples=60, deadline=None)
    @given(line_sequences())
    def test_lines_map_to_their_set(self, lines):
        """Every resident line sits in the set its address selects."""
        cache = make_cache(lines=8, assoc=2)
        for line in lines:
            if cache.probe(line) is None:
                cache.install(line)
            for s in range(cache.n_sets):
                for w in range(cache.assoc):
                    tag = int(cache.tags[s, w])
                    if tag != -1:
                        assert tag % cache.n_sets == s

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                    min_size=1, max_size=80))
    def test_mru_line_never_evicted_next(self, ops):
        """Installing a new line never evicts the most recently used one
        (with associativity >= 2)."""
        cache = make_cache(lines=8, assoc=2)
        last_touched = None
        for line, is_install in ops:
            loc = cache.probe(line)
            if loc is not None:
                cache.touch(loc)
                last_touched = int(cache.tags[loc])
            elif is_install:
                _, evicted, _ = cache.install(line)
                if evicted is not None and last_touched is not None:
                    assert evicted != last_touched or evicted == line
                last_touched = line


class TestDirectMappedModel:
    """The direct-mapped probe/victim/install path against a dict model
    ``{set: (line, dirty)}``."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["install", "dirty",
                                               "invalidate"]),
                              st.integers(0, 15), st.booleans()),
                    min_size=1, max_size=120))
    def test_matches_dict_model(self, ops):
        cache = make_cache(lines=8, assoc=1)
        model = {}
        for op, line, pass_probe in ops:
            s = line % cache.n_sets
            resident = model.get(s, (None, False))[0] == line
            loc = cache.probe(line)
            assert loc == ((s, 0) if resident else None)
            assert cache.victim(line) == (s, 0)
            if op == "install":
                occupant, dirty = model.get(s, (None, False))
                got = (cache.install(line, loc) if pass_probe
                       else cache.install(line))
                assert got == ((s, 0),
                               None if occupant in (None, line) else occupant,
                               dirty)
                model[s] = (line, False)
            elif op == "dirty" and resident:
                cache.dirty[loc] = True
                model[s] = (line, True)
            elif op == "invalidate" and resident:
                cache.invalidate_line(loc)
                del model[s]
        assert {s: int(cache.tags[s, 0]) for s in range(cache.n_sets)
                if cache.tags[s, 0] != -1} == {
                    s: line for s, (line, _d) in model.items()}
