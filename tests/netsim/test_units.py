"""Unit conversion tests."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim import units


def test_gbps_converts_bits_to_bytes():
    assert units.gbps(100) == 100e9 / 8


def test_gbps_50_is_6_25_gigabytes():
    assert units.gbps(50) == pytest.approx(6.25e9)


def test_gBps_is_decimal():
    assert units.gBps(1.0) == 1e9


def test_to_gBps_round_trip():
    assert units.to_gBps(units.gBps(3.5)) == pytest.approx(3.5)


def test_size_constants_are_binary():
    assert units.KB == 1024
    assert units.MB == 1024**2
    assert units.GB == 1024**3


def test_format_size_examples():
    assert units.format_size(32 * 1024) == "32KB"
    assert units.format_size(512 * 1024**2) == "512MB"
    assert units.format_size(1024**3) == "1GB"
    assert units.format_size(100) == "100B"


@given(st.sampled_from([1, 2, 32, 128, 512]), st.sampled_from(["KB", "MB", "GB"]))
def test_parse_format_round_trip(value, suffix):
    factor = {"KB": units.KB, "MB": units.MB, "GB": units.GB}[suffix]
    assert units.format_size(value * factor) == f"{value}{suffix}"


def test_time_constants():
    assert units.USEC == pytest.approx(1e-6)
    assert units.MSEC == pytest.approx(1e-3)
    assert units.SEC == 1.0

