"""Flow-program cache: LRU behavior and launch-path reuse."""

import pytest

from repro.collectives.programs import FlowProgramCache


def test_compiles_once_per_key():
    cache = FlowProgramCache()
    calls = []

    def compile():
        calls.append(1)
        return ("program",)

    first = cache.get(("k",), compile)
    second = cache.get(("k",), compile)
    assert first is second
    assert len(calls) == 1
    assert cache.stats() == {"size": 1, "hits": 1, "misses": 1, "evictions": 0}


def test_distinct_keys_compile_separately():
    cache = FlowProgramCache()
    a = cache.get(("ring", 4), lambda: ("a",))
    b = cache.get(("ring", 8), lambda: ("b",))
    assert a == ("a",) and b == ("b",)
    assert cache.misses == 2


def test_lru_eviction_drops_oldest():
    cache = FlowProgramCache(maxsize=2)
    cache.get("a", lambda: 1)
    cache.get("b", lambda: 2)
    cache.get("a", lambda: 1)  # refresh a; b is now oldest
    cache.get("c", lambda: 3)  # evicts b
    assert cache.evictions == 1
    assert cache.get("a", lambda: 99) == 1  # still cached
    assert cache.get("b", lambda: 42) == 42  # recompiled
    assert len(cache) == 2


def test_cached_none_is_a_hit():
    cache = FlowProgramCache()
    cache.get("k", lambda: None)
    assert cache.get("k", lambda: "recompiled") is None
    assert cache.hits == 1


def test_clear_resets_entries_but_not_counters():
    cache = FlowProgramCache()
    cache.get("k", lambda: 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.misses == 1


def test_rejects_nonpositive_maxsize():
    with pytest.raises(ValueError):
        FlowProgramCache(maxsize=0)


def test_launcher_reuses_ring_program():
    """Two identical ring launches resolve the transfer program once."""
    from repro.baselines.nccl import NcclCommunicator
    from repro.cluster.specs import testbed_cluster

    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus, channels=1)

    comm.all_reduce(1024)
    cluster.sim.run()
    assert comm.program_cache.stats()["misses"] == 1
    comm.all_reduce(1024)
    cluster.sim.run()
    stats = comm.program_cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    # A different size is a different program.
    comm.all_reduce(2048)
    cluster.sim.run()
    assert comm.program_cache.stats()["misses"] == 2
