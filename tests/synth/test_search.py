"""Synthesizer search: beam, pareto front, registration, tuner adoption."""

import repro.synth.search as search
from repro.autotune import StrategyPlanner, estimate_seconds, topology_fingerprint
from repro.cluster.specs import large_cluster, multi_region_cluster, testbed_cluster
from repro.collectives.types import Collective
from repro.core.algorithms import AlgorithmContext, get_algorithm, unregister_algorithm
from repro.netsim.fabric import RegionSpec
from repro.netsim.units import KB, MB
from repro.synth import (
    Protocol,
    ScoredProgram,
    SynthAlgorithm,
    Synthesizer,
    placement_groups,
    ring_program,
    synthesize_and_register,
)


def _two_region_placement():
    cluster = multi_region_cluster(RegionSpec())
    gpus = [h.gpus[0] for h in cluster.hosts]
    return cluster, gpus


def _cost(cluster, gpus, program, size):
    """What the search charges ``program`` at ``size``: the planner's
    one estimate over the wrapped program, in one chunk."""
    return estimate_seconds(
        cluster, gpus, program.kind, size,
        algorithm=SynthAlgorithm(program), channels=program.channels,
        ring=tuple(range(len(gpus))), chunk_bytes=size,
    )


def _unregister_all(algos):
    for algo in algos:
        unregister_algorithm(algo.name)


def test_placement_groups_expose_region_partition():
    cluster, gpus = _two_region_placement()
    groups = placement_groups(cluster, gpus)
    assert groups["region"] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    # one gpu per host: the host grouping degenerates and is dropped
    assert "host" not in groups


def test_placement_groups_empty_on_flat_single_host():
    cluster = testbed_cluster()
    gpus = list(cluster.hosts[0].gpus[:4])  # all co-hosted
    groups = placement_groups(cluster, gpus)
    assert "host" not in groups  # single group swallows everyone


def test_search_generates_hierarchical_and_ring_families():
    cluster, gpus = _two_region_placement()
    synthesizer = Synthesizer(cluster, gpus)
    programs = synthesizer._generate(Collective.ALL_REDUCE)
    names = {p.name for p in programs}
    assert any(name.startswith("synth:ring.") for name in names)
    assert any(name.startswith("synth:hier-region.") for name in names)
    # protocols and channel counts are crossed in
    assert any(".ll128" in name for name in names)
    assert any(".c2." in name for name in names)


def test_search_returns_valid_pareto_front():
    cluster, gpus = _two_region_placement()
    synthesizer = Synthesizer(cluster, gpus)
    front = synthesizer.search(Collective.ALL_REDUCE)
    assert front
    assert synthesizer.candidates_generated > len(front)
    assert synthesizer.candidates_rejected == 0  # generators emit valid IR
    # pareto: nothing on the front dominates anything else on it
    for a in front:
        assert not any(b.dominates(a) for b in front if b is not a)
    # sorted by bandwidth-probe cost
    costs = [s.bandwidth_seconds for s in front]
    assert costs == sorted(costs)


def test_front_bandwidth_winner_is_hierarchical_on_two_regions():
    cluster, gpus = _two_region_placement()
    front = Synthesizer(cluster, gpus).search(Collective.ALL_REDUCE)
    assert "hier-region" in front[0].program.name
    # and the model agrees it beats the flat ring at bandwidth sizes
    flat = ring_program(Collective.ALL_REDUCE, len(gpus))
    assert front[0].bandwidth_seconds < _cost(cluster, gpus, flat, 64 * MB)


def test_beam_width_bounds_candidates_per_step_count(monkeypatch):
    cluster, gpus = _two_region_placement()
    monkeypatch.setattr(search, "BEAM_WIDTH", 1)
    synthesizer = Synthesizer(cluster, gpus)
    scored = [
        ScoredProgram(
            SynthAlgorithm(p),
            _cost(cluster, gpus, p, 64 * KB),
            _cost(cluster, gpus, p, 64 * MB),
        )
        for p in synthesizer._generate(Collective.ALL_REDUCE)
    ]
    kept = synthesizer._beam(scored)
    step_counts = [s.program.num_steps for s in kept]
    assert len(step_counts) == len(set(step_counts)) < len(scored)


def test_invalid_candidates_are_counted_not_raised(monkeypatch):
    cluster, gpus = _two_region_placement()
    synthesizer = Synthesizer(cluster, gpus)
    real = synthesizer._generate(Collective.ALL_REDUCE)
    # corrupt one candidate: drop rank 0's program entirely
    broken = real[0]
    object.__setattr__(
        broken, "rank_programs", ((),) + broken.rank_programs[1:]
    )
    monkeypatch.setattr(synthesizer, "_generate", lambda kind: real)
    front = synthesizer.search(Collective.ALL_REDUCE)
    assert synthesizer.candidates_rejected == 1
    assert all(s.program is not broken for s in front)


def test_synthesize_and_register_carries_topology_fingerprint(monkeypatch):
    cluster, gpus = _two_region_placement()
    monkeypatch.setattr(search, "MAX_PROGRAMS", 3)
    algos = synthesize_and_register(cluster, gpus)
    try:
        assert 1 <= len(algos) <= 3
        fingerprint = topology_fingerprint(cluster, gpus)
        assert all(a.fingerprint == fingerprint for a in algos)
        planner = StrategyPlanner(cluster)
        offered = planner.synth_algorithms(Collective.ALL_REDUCE, gpus)
        assert {a.name for a in algos} <= set(offered)
    finally:
        _unregister_all(algos)


def test_fingerprint_mismatch_keeps_programs_out_of_other_plans(monkeypatch):
    cluster, gpus = _two_region_placement()
    monkeypatch.setattr(search, "MAX_PROGRAMS", 2)
    algos = synthesize_and_register(cluster, gpus)
    try:
        from repro.experiments.setups import single_app_gpus

        other = testbed_cluster()
        other_gpus = single_app_gpus(other, "8gpu")
        planner = StrategyPlanner(other)
        assert planner.synth_algorithms(Collective.ALL_REDUCE, other_gpus) == []
        names = {
            s.candidate.algorithm
            for s in planner.plan(Collective.ALL_REDUCE, 1 * MB, other_gpus)
        }
        assert not any(n.startswith("synth:") for n in names)
    finally:
        _unregister_all(algos)


def test_planner_ranks_synthesized_schedule_first_across_sizes():
    """Acceptance criterion: a synthesized schedule strictly beats the
    best built-in on the two-region fabric at every probed size."""
    cluster, gpus = _two_region_placement()
    algos = synthesize_and_register(cluster, gpus)
    try:
        planner = StrategyPlanner(cluster)
        for size in (64 * KB, 1 * MB, 16 * MB, 64 * MB):
            ranked = planner.plan(Collective.ALL_REDUCE, size, gpus)
            assert ranked[0].candidate.algorithm.startswith("synth:")
            best_builtin = min(
                s.predicted_seconds
                for s in ranked
                if not s.candidate.algorithm.startswith("synth:")
            )
            assert ranked[0].predicted_seconds < best_builtin
    finally:
        _unregister_all(algos)


def test_autotuner_adopts_synthesized_schedule_through_barrier():
    """The tuner measures the synthesized schedule faster and installs it
    via the §4.2 reconfiguration barrier, with zero inconsistencies."""
    from repro.core.deployment import MccsDeployment

    cluster, gpus = _two_region_placement()
    algos = synthesize_and_register(cluster, gpus)
    try:
        deployment = MccsDeployment(cluster)
        tuner = deployment.enable_autotuning()
        comm = deployment.create_communicator(
            "A", gpus, datapath_tag="synth-tuner"
        )
        client = deployment.connect("A")
        shim = client.adopt_communicator(comm.comm_id)
        durations = []
        for _ in range(30):
            client.all_reduce(
                shim,
                16 * MB,
                on_complete=lambda inst, now: durations.append(
                    inst.duration()
                ),
            )
            deployment.run()
        assert comm.strategy.algorithm.startswith("synth:")
        assert tuner.retunes_applied(comm.comm_id) > 0
        sessions = deployment.reconfig.sessions
        assert sessions and all(s.barrier_enabled for s in sessions)
        assert comm.inconsistent_collectives == 0
        assert min(durations[-4:]) < durations[0]
    finally:
        _unregister_all(algos)


def test_protocol_choice_shifts_probe_costs():
    cluster, gpus = _two_region_placement()
    world = len(gpus)
    simple = ring_program(Collective.ALL_REDUCE, world)
    ll = ring_program(Collective.ALL_REDUCE, world, protocol=Protocol.LL)
    # LL halves effective bandwidth but quarters per-step latency
    assert _cost(cluster, gpus, ll, 64 * MB) > _cost(cluster, gpus, simple, 64 * MB)
    assert _cost(cluster, gpus, ll, 1 * KB) < _cost(cluster, gpus, simple, 1 * KB)


def test_registered_front_is_the_scored_algorithms(monkeypatch):
    """The search compiles each candidate once; registration hands the
    scored objects to the registry, so the winner's first launch reuses
    that plan instead of compiling again."""
    cluster, gpus = _two_region_placement()
    algos = synthesize_and_register(cluster, gpus)
    try:
        compiled = []
        monkeypatch.setattr(
            "repro.synth.lowering.compile_schedule",
            lambda *args: compiled.append(args),
        )
        winner = get_algorithm(algos[0].name)
        assert winner is algos[0]
        ctx = AlgorithmContext(
            Collective.ALL_REDUCE, 16 * MB, len(gpus), 0, 0, tuple(range(len(gpus))), 1
        )
        assert winner.plan(ctx)[0].steps == winner.program.num_steps
        assert compiled == []
    finally:
        _unregister_all(algos)


def test_second_placement_keeps_the_first_placements_programs():
    """Two placements of the same shape on different racks: B's search
    used to re-register A's names (``synth:hier-host.c1.simple/...``)
    with B's fingerprint, so A's plan lost half its programs."""
    cluster = large_cluster()
    a = [g for h in (0, 1, 4, 5) for g in cluster.hosts[h].gpus[:2]]
    b = [g for h in (8, 12, 16, 20) for g in cluster.hosts[h].gpus[:2]]
    assert topology_fingerprint(cluster, a) != topology_fingerprint(cluster, b)
    planner = StrategyPlanner(cluster)
    first = synthesize_and_register(cluster, a)
    second = synthesize_and_register(cluster, b)
    try:
        assert len(first) == 4
        offered = planner.synth_algorithms(Collective.ALL_REDUCE, a)
        assert sorted(offered) == sorted(algo.name for algo in first)
        fingerprint = topology_fingerprint(cluster, a)
        assert all(get_algorithm(n).fingerprint == fingerprint for n in offered)
        assert not {algo.name for algo in first} & {algo.name for algo in second}
    finally:
        _unregister_all(first + second)
