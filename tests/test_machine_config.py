"""MachineConfig validation: nonsensical machines fail at construction."""

import math

import pytest

from repro.kernel import DiskSpec, Kernel, MachineConfig
from repro.kernel.machine import NicSpec


class TestMachineConfigValidation:
    def test_defaults_are_valid(self):
        config = MachineConfig()
        assert config.ncpus == 8
        assert config.boot_kernel_pages == config.total_pages // 16

    @pytest.mark.parametrize("ncpus", [0, -1, -100])
    def test_bad_cpu_count(self, ncpus):
        with pytest.raises(ValueError):
            MachineConfig(ncpus=ncpus)

    @pytest.mark.parametrize("memory_mb", [0, -8])
    def test_bad_memory(self, memory_mb):
        with pytest.raises(ValueError):
            MachineConfig(memory_mb=memory_mb)

    def test_no_disks(self):
        with pytest.raises(ValueError):
            MachineConfig(disks=[])

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            MachineConfig(seed=-1)

    def test_negative_kernel_pages(self):
        with pytest.raises(ValueError):
            MachineConfig(kernel_pages=-5)

    def test_kernel_pages_swallow_machine(self):
        config_pages = MachineConfig(memory_mb=16).total_pages
        with pytest.raises(ValueError):
            MachineConfig(memory_mb=16, kernel_pages=config_pages)
        with pytest.raises(ValueError):
            MachineConfig(memory_mb=16, kernel_pages=config_pages + 1)

    def test_kernel_pages_at_limit_boots(self):
        config = MachineConfig(memory_mb=16, kernel_pages=10)
        kernel = Kernel(config)
        kernel.create_spu("u")
        kernel.boot()
        assert kernel.registry.kernel_spu.memory().used == 10

    def test_disk_spec_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(swap_sectors=-1)
        geometry = DiskSpec().geometry
        with pytest.raises(ValueError):
            DiskSpec(swap_sectors=geometry.total_sectors)

    def test_nic_spec_validation(self):
        with pytest.raises(ValueError, match="bandwidth_mbps"):
            NicSpec(bandwidth_mbps=0)
        with pytest.raises(ValueError, match="bandwidth_mbps"):
            NicSpec(bandwidth_mbps=-10.0)

    @pytest.mark.parametrize("kwargs, field_name", [
        ({"bandwidth_mbps": math.nan}, "bandwidth_mbps"),
        ({"bandwidth_mbps": math.inf}, "bandwidth_mbps"),
        ({"policy": "threshold", "threshold": math.nan}, "threshold"),
        ({"policy": "threshold", "threshold": -1.0}, "threshold"),
        ({"policy": "fair", "threshold": -1.0}, "threshold"),
        ({"policy": "wrr"}, "policy"),
    ])
    def test_nic_spec_rejects_bad_field(self, kwargs, field_name):
        with pytest.raises(ValueError, match=field_name):
            NicSpec(**kwargs)
