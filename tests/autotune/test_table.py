"""Tuning-table keying, bucketing, and hit/miss accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import TableEntry, TableKey, TuningTable, size_bucket

FP = "spine-leaf/spines2@50g/nic50g/hosts4[2x2x2x2]/racks2"


def entry(algorithm="ring", channels=2):
    return TableEntry(
        algorithm=algorithm,
        channels=channels,
        ring=(0, 1, 2, 3),
        chunk_bytes=65536,
        predicted_seconds=1.25e-4,
        candidates_evaluated=12,
    )


def key(bucket=16, kind="all_reduce"):
    return TableKey(kind=kind, world=4, bucket=bucket, fingerprint=FP)


def test_size_bucket_covers_half_open_power_of_two_ranges():
    assert size_bucket(1) == 0
    assert size_bucket(2) == 1
    assert size_bucket(1024) == 10
    assert size_bucket(1025) == 11
    with pytest.raises(ValueError):
        size_bucket(0)


@given(st.integers(1, 2**40))
@settings(max_examples=100, deadline=None)
def test_size_bucket_bounds(nbytes):
    k = size_bucket(nbytes)
    assert 2 ** (k - 1) < nbytes <= 2**k if k else nbytes == 1


def test_get_counts_hits_and_misses():
    table = TuningTable()
    table.put(key(), entry())
    assert table.get(key()) == entry()
    assert table.get(key(bucket=20)) is None
    assert table.stats() == {"size": 1, "hits": 1, "misses": 1}


def test_lookup_buckets_the_size():
    table = TuningTable()
    table.put(key(bucket=16), entry())
    # 40000 lands in (2^15, 2^16]
    assert table.lookup("all_reduce", 4, 40000, FP) == entry()
    assert table.lookup("all_reduce", 4, 70000, FP) is None
    assert table.lookup("all_gather", 4, 40000, FP) is None


def test_entry_signature_is_the_runtime_part():
    assert entry().signature() == ("ring", 2, (0, 1, 2, 3))


def test_iteration_is_sorted_by_encoded_key():
    table = TuningTable()
    table.put(key(bucket=26), entry())
    table.put(key(bucket=16), entry())
    buckets = [k.bucket for k, _ in table]
    assert buckets == sorted(buckets)
