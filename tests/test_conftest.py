"""The root ``conftest.py``'s driver-memory probe."""
import os
import warnings

import pytest

import conftest

CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


@pytest.mark.skipif(
    not any(os.access(p, os.R_OK) for p in CGROUP_LIMITS), reason="no readable cgroup memory limit"
)
def test_driver_mem_closes_the_cgroup_file(monkeypatch):
    """Reading the cgroup limit leaves no file open: no ResourceWarning."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        mem = conftest._driver_mem()
    assert mem.endswith("g")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
