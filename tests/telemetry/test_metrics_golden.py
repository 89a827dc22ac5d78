"""Every exported metric series, pinned against the pre-batching code.

``data/metrics_golden.json`` was captured at the commit *before* observers
became batch-first and metric updates moved to pre-bound label handles
(``python tests/telemetry/test_metrics_golden.py`` rewrites it); a
rewrite that deletes or adds series leaves every other series equal.  It
was rewritten once more when telemetry stopped scheduling a link-sampling
tick: the scenario's phases start earlier on the clock, and only four
duration ``sum`` fields moved, in their last digits.  One
scripted scenario touches every per-flow and per-collective update site —
collectives with payload, a mid-stream reconfiguration, a p2p transfer, a
gated flow, a cancelled flow, a failed flow — and the registry snapshot
must come out identical: same series names, label sets and values.
Wall-clock histograms measure the host, not the model, and are left out.
"""

import json
from pathlib import Path

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.core.transport import WindowSchedule
from repro.netsim.units import MB
from repro.telemetry import WALL_CLOCK_BUCKETS

GOLDEN = Path(__file__).parent / "data" / "metrics_golden.json"

def run_scenario() -> MccsDeployment:
    """The scripted scenario (its ids, and so its labels, are the
    deployment's own)."""
    cluster = testbed_cluster()
    dep = MccsDeployment(cluster, ecmp_seed=7)
    sim = cluster.sim
    gpus = list(cluster.gpus)
    alice = dep.connect("alice")
    bob = dep.connect("bob")
    a = alice.adopt_communicator(
        dep.create_communicator(
            "alice", gpus[:6], channels=2, datapath_tag="alice"
        ).comm_id
    )
    b = bob.adopt_communicator(
        dep.create_communicator(
            "bob", gpus[2:], channels=3, datapath_tag="bob"
        ).comm_id
    )

    # Collectives with payload, then a mid-stream reconfiguration.
    nbytes = 96 * 1024
    sends = [alice.alloc(gpu, nbytes) for gpu in gpus[:6]]
    recvs = [alice.alloc(gpu, nbytes) for gpu in gpus[:6]]
    for _ in range(3):
        alice.all_reduce(a, nbytes, send=sends, recv=recvs)
    alice.all_gather(a, 6 * MB)
    # Rank 5 hears of the new ring a millisecond late: the others hold
    # their launches at the barrier meanwhile.
    dep.reconfigure(
        a.comm_id, ring=[3, 1, 5, 0, 2, 4], delays=[0, 0, 0, 0, 0, 1e-3]
    )
    for _ in range(2):
        alice.all_reduce(a, 3 * MB)
    bob.reduce_scatter(b, 2 * MB)
    alice.send_recv(a, 0, 4, 1 * MB)
    dep.run()

    # A gated flow: bob's window is closed when he issues, opens later.
    now = sim.now
    dep.set_traffic_schedule(
        "bob", WindowSchedule(period=1.0, open_intervals=((0.5, 1.0),), t0=now)
    )
    bob.all_reduce(b, 4 * MB)
    alice.all_reduce(a, 4 * MB)
    dep.run(until=now + 0.25)
    dep.set_traffic_schedule("bob", None)
    dep.run()

    # A cancelled flow (plain background traffic torn down mid-flight) ...
    victim_op = alice.all_reduce(a, 32 * MB)
    bob.all_reduce(b, 32 * MB)
    dep.run(until=sim.now + 0.002)
    flows = sim.active_flows()
    stray = sim.add_flow(64 * MB, flows[0].path, job_id="bg")
    dep.run(until=sim.now + 0.001)
    sim.cancel_flow(stray)
    # ... and a failed one: a link under alice's in-flight collective goes
    # down; with no recovery armed the collective aborts and its surviving
    # flows are cancelled.
    alice_flow = next(f for f in sim.active_flows() if f.job_id == "alice")
    sim.fail_link(alice_flow.path[len(alice_flow.path) // 2])
    dep.run()
    assert victim_op.failed

    hub = dep.telemetry()
    hub.network.publish_perf_counters()
    hub.network.publish_program_cache()
    return dep


def model_snapshot(dep: MccsDeployment) -> dict:
    """``metrics.snapshot()`` minus the wall-clock histograms."""
    metrics = dep.telemetry().metrics
    wall = {
        name
        for name, hist in metrics.histograms().items()
        if hist.buckets == WALL_CLOCK_BUCKETS
    }
    snapshot = {
        name: entry
        for name, entry in metrics.snapshot().items()
        if name not in wall
    }
    return json.loads(json.dumps(snapshot))


def test_scenario_reproduces_the_golden_snapshot():
    snapshot = model_snapshot(run_scenario())
    golden = json.loads(GOLDEN.read_text())
    assert sorted(snapshot) == sorted(golden)
    for name in golden:
        assert snapshot[name] == golden[name], name


def test_scenario_covers_the_rare_paths():
    """The golden is only worth its name if the rare sites fired."""
    golden = json.loads(GOLDEN.read_text())

    def total(name):
        return sum(s["value"] for s in golden[name]["samples"])

    assert total("mccs_flows_cancelled_total") > 0
    assert total("mccs_flows_failed_total") > 0
    assert total("mccs_flow_preemptions_total") > 0
    assert total("mccs_collectives_aborted_total") > 0
    assert total("mccs_launches_held_total") > 0


if __name__ == "__main__":  # regenerate (run at the reference commit)
    GOLDEN.write_text(
        json.dumps(model_snapshot(run_scenario()), indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
