"""Experiment harness plumbing: setups, report helpers."""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.experiments.report import Stat, cdf_points, format_table
from repro.experiments.setups import (
    multi_app_setups,
    naive_tenant_order,
    qos_setup,
    single_app_gpus,
)


def test_single_app_setups():
    cl = testbed_cluster()
    four = single_app_gpus(cl, "4gpu")
    assert len(four) == 4
    assert len({g.host_id for g in four}) == 4
    eight = single_app_gpus(cl, "8gpu")
    assert len(eight) == 8
    with pytest.raises(ValueError):
        single_app_gpus(cl, "16gpu")


def test_multi_app_setups_are_disjoint_and_complete():
    cl = testbed_cluster()
    for name, placements in multi_app_setups().items():
        used = []
        for p in placements:
            used.extend(p.gpus)
        assert len(used) == len(set(used)), name
        assert len(used) == 8, name  # every GPU used exactly once


def test_setup3_matches_qos_description():
    """A: 2 GPUs + 2 NICs per host; B and C one each (§6.4)."""
    placements = {p.app_id: p for p in qos_setup()}
    cl = testbed_cluster()
    a_hosts = [h for h, _ in placements["A"].gpus]
    assert len(placements["A"].gpus) == 4
    assert all(a_hosts.count(h) == 2 for h in set(a_hosts))
    for app in ("B", "C"):
        hosts = [h for h, _ in placements[app].gpus]
        assert len(hosts) == len(set(hosts)) == 2
    # every tenant spans both racks
    for p in qos_setup():
        racks = {cl.hosts[h].rack for h, _ in p.gpus}
        assert racks == {0, 1}


def test_naive_tenant_order_alternates_racks():
    cl = testbed_cluster()
    gpus = [cl.hosts[h].gpus[0] for h in range(4)]
    order = naive_tenant_order(cl, gpus)
    racks = [cl.rack_of(gpus[r]) for r in order]
    assert racks == [0, 1, 0, 1]


def test_naive_tenant_order_keeps_host_blocks():
    cl = testbed_cluster()
    gpus = [g for h in range(4) for g in cl.hosts[h].gpus]
    order = naive_tenant_order(cl, gpus)
    hosts = [gpus[r].host_id for r in order]
    for i in range(0, 8, 2):
        assert hosts[i] == hosts[i + 1]


# -- report helpers -------------------------------------------------------------
def test_stat_of_single_sample():
    s = Stat.of([4.0])
    assert (s.mean, s.lo, s.hi, s.n) == (4.0, 4.0, 4.0, 1)
    assert str(s) == "4"


def test_stat_interval_covers_extremes():
    s = Stat.of(list(range(101)))
    assert s.mean == pytest.approx(50.0)
    assert s.lo == pytest.approx(2.5)
    assert s.hi == pytest.approx(97.5)


def test_stat_requires_samples():
    with pytest.raises(ValueError):
        Stat.of([])


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "333" in lines[-1]


def test_cdf_points():
    pts = cdf_points([3.0, 1.0, 2.0])
    assert pts == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]


def test_ascii_cdf_renders_quantiles():
    from repro.experiments.report import ascii_cdf

    text = ascii_cdf({"OR": [1.0, 2.0, 3.0, 4.0]}, width=10)
    assert "OR:" in text
    assert "p100" in text and "4.00x" in text
    with pytest.raises(ValueError):
        ascii_cdf({})


def test_sparkline_scaling():
    from repro.experiments.report import sparkline

    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == " " and line[-1] == "@"
    assert sparkline([]) == ""
    assert sparkline([2.0, 2.0]) == "@@"
    assert len(sparkline(list(range(500)), width=60)) == 60
