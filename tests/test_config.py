"""Unit tests for repro.common.config."""

import math

import pytest

from repro.common.config import (
    CacheConfig,
    MachineConfig,
    NetworkConfig,
    TimetagResetPolicy,
    TpiConfig,
    default_machine,
    parameter_table,
)
from repro.common.errors import ConfigError


class TestCacheConfig:
    def test_default_geometry_matches_paper(self):
        cache = CacheConfig()
        assert cache.size_bytes == 64 * 1024
        assert cache.line_words == 4
        assert cache.line_bytes == 16
        assert cache.n_lines == 4096
        assert cache.n_sets == 4096  # direct-mapped

    def test_associativity_divides_lines(self):
        cache = CacheConfig(associativity=4)
        assert cache.n_sets == cache.n_lines // 4

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=48 * 1024)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0)
        with pytest.raises(ConfigError):
            CacheConfig(line_words=-1)


class TestTpiConfig:
    def test_default_is_8bit_two_phase(self):
        tpi = TpiConfig()
        assert tpi.timetag_bits == 8
        assert tpi.counter_modulus == 256
        assert tpi.phase_size == 128
        assert tpi.reset_policy is TimetagResetPolicy.TWO_PHASE
        assert tpi.reset_stall_cycles == 128

    @pytest.mark.parametrize("bits", [0, 17, -3])
    def test_rejects_bad_widths(self, bits):
        with pytest.raises(ConfigError):
            TpiConfig(timetag_bits=bits)

    @pytest.mark.parametrize("bits,phase", [(1, 1), (2, 2), (4, 8), (8, 128)])
    def test_phase_is_half_the_counter_space(self, bits, phase):
        assert TpiConfig(timetag_bits=bits).phase_size == phase


class TestNetworkConfig:
    def test_stage_count(self):
        net = NetworkConfig(switch_degree=4)
        assert net.stages(16) == 2
        assert net.stages(64) == 3
        assert net.stages(1024) == 5

    def test_stage_count_at_least_one(self):
        assert NetworkConfig().stages(2) == 1

    def test_rejects_degenerate_switch(self):
        with pytest.raises(ConfigError):
            NetworkConfig(switch_degree=1)

    def test_rejects_bad_max_load(self):
        with pytest.raises(ConfigError):
            NetworkConfig(max_load=1.5)


class TestMachineConfig:
    def test_defaults_match_figure8(self):
        m = default_machine()
        assert m.n_procs == 16
        assert m.hit_latency == 1
        assert m.base_miss_latency == 100
        assert m.tpi.timetag_bits == 8

    def test_with_replaces_fields(self):
        m = default_machine().with_(n_procs=64)
        assert m.n_procs == 64
        assert default_machine().n_procs == 16  # original untouched

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_procs=0)
        with pytest.raises(ConfigError):
            MachineConfig(base_miss_latency=0)
        for engine in ("warp", "gang"):
            with pytest.raises(ConfigError, match="unknown engine"):
                MachineConfig(engine=engine)

    def test_parameter_table_contains_key_rows(self):
        rows = dict(parameter_table(default_machine()))
        assert rows["number of processors"] == "16"
        assert rows["cache size"] == "64 KB, direct-mapped"
        assert rows["timetag size"] == "8-bits"
        assert rows["two-phase reset"] == "128 cycles"
        assert rows["cache line base miss latency"] == "100 CPU cycles"
