"""Tuning-table keying, bucketing, and JSON persistence."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import (
    TABLE_FORMAT_VERSION,
    TableEntry,
    TableKey,
    TuningTable,
    size_bucket,
)

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


def test_key_encode_decode_round_trip():
    k = key()
    assert TableKey.decode(k.encode()) == k


def test_key_decode_keeps_fingerprint_intact():
    # fingerprints contain '/' and '[' freely; only '|' is structural
    k = TableKey(kind="all_gather", world=8, bucket=26, fingerprint=FP)
    decoded = TableKey.decode(k.encode())
    assert decoded.fingerprint == FP
    assert decoded.world == 8 and decoded.bucket == 26


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


def test_json_round_trip():
    table = TuningTable()
    table.put(key(bucket=16), entry("ring"))
    table.put(key(bucket=26), entry("halving_doubling", channels=1))
    table.put(key(bucket=16, kind="all_gather"), entry("tree"))
    restored = TuningTable.from_json(table.to_json())
    assert len(restored) == 3
    assert list(restored) == list(table)
    assert restored.to_json() == table.to_json()
    # hit/miss counters are runtime state, not persisted
    assert restored.stats()["hits"] == 0


def test_save_load_round_trip():
    # The persisted form is JSON text: every key and value survives it.
    table = TuningTable()
    table.put(key(), entry())
    restored = TuningTable.from_json(json.loads(json.dumps(table.to_json())))
    assert restored.get(key()) == entry()


def test_from_json_rejects_unknown_format_version():
    with pytest.raises(ValueError):
        TuningTable.from_json({"format_version": TABLE_FORMAT_VERSION + 1})
    with pytest.raises(ValueError):
        TuningTable.from_json({"entries": {}})


def test_iteration_is_sorted_by_encoded_key():
    table = TuningTable()
    table.put(key(bucket=26), entry())
    table.put(key(bucket=16), entry())
    buckets = [k.bucket for k, _ in table]
    assert buckets == sorted(buckets)
