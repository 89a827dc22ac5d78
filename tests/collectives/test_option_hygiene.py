"""A value nobody sets is a constant, and it stays one.

Every field of a policy dataclass (``*Policy`` / ``*Config`` / ``*Model``
/ ``*Quota`` / ``Backoff``) and every keyword default of an ``__init__``
under ``src/repro`` is an independently settable value that tests and
benchmarks would have to cover.  These checks walk every call in
``src/``, ``benchmarks/`` and ``examples/`` and fail when such a value is
set by no product caller — it should be a module constant that tests
patch — or when one of the knobs and helpers deleted for that reason
grows back.  The planner and the synthesizer also ask an algorithm or a
fabric spec what it is through declared attributes, never by probing
with ``getattr``.  The experiments have one entry point, ``python -m
repro.experiments``: their ``main()`` takes no parameters (sweep sizes
are module constants) and returns its artifacts, which only
``report.write_json`` writes.  Each states its claims once, in a
``check(result)`` that ``main`` and tier-1 both call, never as an
``assert`` (which ``python -O`` strips).  A keyword parameter of a
public experiment function is passed by some caller (tier-1 counts: it
runs the figures at reduced scale through them), or it is a constant.
"""

import ast
import inspect
import pathlib
import re

from repro.experiments import ALL_FIGURES

from .test_data_plane_hygiene import SOURCES, TEXT, TREE, _relative

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
OPTION_CLASS = re.compile(r"(Policy|Config|Model|Quota)$|^Backoff$")

#: Every product tree: the package, the benchmarks and the examples.
PRODUCT = {
    **TREE,
    **{
        path: ast.parse(path.read_text())
        for folder in ("benchmarks", "examples")
        for path in sorted((ROOT / folder).rglob("*.py"))
    },
}

#: Dataclass fields only tests set today.  This list may only shrink.
UNSET_BY_PRODUCT_CODE = {
    "AdmissionPolicy.total_inflight",
    "AdmissionPolicy.default_class",
    "BreakerPolicy.half_open_probes",
    "CapacityModel.max_utilization",
    "TenantQuota.max_communicators",
    "Backoff.jitter",
}

#: ``__init__`` keyword defaults no product caller sets, kept on purpose.
#: This list may only shrink.
KEPT_INIT_DEFAULTS = {
    # a credential is never a constant in source
    "ServiceGateway.secret",
    # NCCL's own tuning knobs on the baseline (Demystifying NCCL)
    "NcclCommunicator.algorithm",
    "NcclCommunicator.channels",
}

RETIRED = re.compile(
    r"RecoveryPolicy|ElasticPolicy|AutotuneConfig|EpsilonGreedy|make_bandit"
    r"|configure_slo|set_slo_policy|control_latency="
    r"|estimate_program_seconds|beam_width|channel_options|chunk_options|mccs_latency"
    # knobs and behaviours with no product caller
    r"|SloPolicy|slo_violation|on_violation|p99_targets|strict_consistency"
    r"|max_dumps|snapshot_traces|gpus_per_comm|class_weights|pcie_gBps|gpu_memory"
    # helpers only tests reached
    r"|ClusterSpec|RandomSelector|ClosEcmpSelector|diurnal_arrivals"
    r"|bytes_to_gb|parse_size|chunk_for_step|ring_neighbors|bus_bandwidth"
    r"|effective_bandwidth|geometric_mean|bottleneck_rate|run_scale_workload"
    r"|temporarily_registered|register_program|registered_synth_algorithms"
    r"|\bis_valid\b|\btoposort\b|\brun_program\b|\bwith_ring\b|\bwith_routes\b"
    r"|\bwhen_all\b|\brate_of\b|\bhas_flow\b|\bvacate\b|\bstop_all\b|\blink_loads\b"
    r"|\brates_by_id\b|\bbottleneck_of\b|\bbottleneck_link_of\b|\bremove_observer\b"
    r"|\bhosts_of_leaf\b|\bhosts_of_region\b|\bsame_rack\b|\bintra_host_path\b"
    r"|\bfabric_paths\b|\bspine_links\b|\bout_links\b|\bdown_links\b|\bfind_flow\b"
    r"|\bnic_for_gpu\b|\bgpus_of_host\b|\bgpus_of_job\b|\bracks_spanned\b"
    r"|\bhosts_spanned\b|\branks_by_host\b|\ballocations_of\b|\blive_bytes\b"
    r"|\bschedule_of\b|\bbridge_wait\b|\bposition_of\b|\bconnection_path\b"
    r"|\binter_host_connections\b|\blink_series\b|\bevicted_samples\b"
    r"|\battached_comms\b|\bcurrent_strategy\b|\bring_edges_between_hosts\b"
    r"|\bedge_id\b|\bas_row\b|\bas_dict\b|\bfailed_ranks\b|\bCollectiveError\b"
    r"|resnet50_dp_trace|total_collective_bytes|total_compute_seconds"
    r"|total_memcpy_bytes|\bcollective_count\b|\.progress\(|def dec\(|\.gauges\(\)"
    # per-experiment artifact writers, replaced by ``--out``
    r"|MCCS_[A-Z]+_OUT|OUT_ENV|export_artifacts|trace_out"
    # the SLO store and the series that repeated others; the account is a
    # registry query
    r"|SloTracker|SLO_WINDOW|class_resolver|record_completion|record_shed"
    r"|record_deadline_miss|mccs_traces_total|mccs_traces_open|mccs_shed_total"
    r"|mccs_slo_"
    # the per-flow data-plane arena, rate recorder and slot map; a flow's
    # solver slot is its only slot and the tracer takes one rate hand-off
    # per recomputation
    r"|FlowArena|_BoundRecorder|_slot_of|on_rate_change|_attach"
    # journal ops and hooks no restart read back; the live deployment is
    # the one home of communicator state
    r"|strategy_descriptor|on_commit|_journal_commit|install_strategy"
    r"|collective_issued|\bmembership_change\b|\bservice_restart\b"
    r"|service_upgrade|_INFO_OPS"
    # the network sampler's ticker and per-link sample rings; a link's load
    # is the simulator's exact byte count, read on query
    r"|_start_ticker|sample_now|sampled_links|samples_taken|SAMPLE_INTERVAL"
    r"|MAX_SAMPLES|utilization_snapshot"
    # chaos generators only tests drove (the chaos state machine picks
    # faults and calls the public API); churn is ``change_membership``,
    # not a fault kind (lowercase ``rank_join``/``rank_leave`` stay
    # membership-change labels)
    r"|def random\(|DEFAULT_KIND_WEIGHTS|RANK_LEAVE|RANK_JOIN|\bchaos_\w+|_chaos_pick"
    r"|\.injected\b|link_candidates|host_candidates|tenant_candidates"
    r"|transient_fraction|clear_traffic_schedules|TABLE_FORMAT_VERSION"
    r"|TableKey\.decode"
    # cost terms the simulator never charges (chunk pipelining, NCCL
    # protocol factors, a per-step WAN RTT) and the tuning table the tuner
    # consulted only after planning: the planner's estimate is what a
    # launch is charged
    r"|CHUNK_SIZES|pipelined_seconds|wan_rtt_seconds|wan_step_count"
    r"|bandwidth_efficiency|latency_factor|TuningTable"
    # second ways through the resilience steps: one live upgrade (no
    # component choice), elasticity always armed, no joiner staging
    # buffers, no cross-notification of lost ranks; no program JSON
    r"|UPGRADE_COMPONENTS|STAGING_BYTES|enable_elasticity|\.rank_lost\(|PROGRAM_FORMAT_VERSION"
    # state only tests read: the in-flight change is what grow/shrink
    # returned, the generation is the service's, misses are a counter
    r"|def inflight\(|generation_before|generation_after|\.missed\b"
    # the causal tracer's second copy of the solver's link membership and
    # its per-flow record slot; co-tenants are read from the solver
    r"|\b_link_jobs\b|\b_occupy\b|\b_unoccupy\b|\b_recorder\b"
)

#: Every caller an experiment parameter may have: the product and tier-1.
CALLERS = {
    **PRODUCT,
    **{path: ast.parse(path.read_text()) for path in sorted((ROOT / "tests").rglob("*.py"))},
}

#: What only the one artifact writer may do under ``experiments/``.
ARTIFACT_IO = re.compile(r"os\.environ|\bopen\(|json\.dump")
MAIN_GUARD = re.compile(r"__name__\s*==\s*[\"']__main__[\"']")


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _option_classes():
    """Class name -> field names in declaration (= positional) order."""
    return {
        node.name: [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        for path in SOURCES
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.ClassDef)
        and OPTION_CLASS.search(node.name)
        and _is_dataclass(node)
    }


def _parameters(function, skip=0):
    """(positional parameters past the first ``skip``, parameters with a
    default) of a ``def``."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return positional, defaulted


def _init_signatures():
    """Class name -> (positional parameters, parameters with a default)
    of every ``__init__`` in scope."""
    return {
        cls.name: _parameters(item, skip=1)
        for path in SOURCES
        for cls in ast.walk(TREE[path])
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    }


def _experiment_keywords():
    """Function name -> (positional parameters, parameters with a default)
    of every public module-level function under ``experiments/``."""
    return {
        node.name: _parameters(node)
        for path in SOURCES
        if _relative(path).startswith("experiments/")
        for node in TREE[path].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _set_by_product(parameters, trees=PRODUCT):
    """``Class.parameter`` for every value a call in ``trees`` passes,
    given each callee's parameters in positional order."""
    passed = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            names = parameters.get(name)
            if names is None:
                continue
            passed.update(f"{name}.{p}" for p in names[: len(node.args)])
            passed.update(f"{name}.{kw.arg}" for kw in node.keywords)
    return passed


def test_every_option_field_is_set_by_a_product_caller():
    classes = _option_classes()
    assert {"AdmissionPolicy", "Backoff", "LatencyModel"} <= set(classes)
    declared = {
        f"{name}.{field}" for name, fields in classes.items() for field in fields
    }
    assert declared - _set_by_product(classes) == UNSET_BY_PRODUCT_CODE


def test_every_init_default_is_set_by_a_product_caller():
    signatures = _init_signatures()
    assert {"FlowSimulator", "ServiceGateway", "NcclCommunicator"} <= set(signatures)
    defaulted = {
        f"{name}.{p}" for name, (_, params) in signatures.items() for p in params
    }
    passed = _set_by_product({name: pos for name, (pos, _) in signatures.items()})
    assert defaulted - passed == KEPT_INIT_DEFAULTS


def test_every_experiment_keyword_is_passed_by_a_caller():
    signatures = _experiment_keywords()
    assert {"run_fig11", "run_fleet", "ascii_cdf"} <= set(signatures)
    defaulted = {
        f"{name}.{p}" for name, (_, params) in signatures.items() for p in params
    }
    passed = _set_by_product(
        {name: pos for name, (pos, _) in signatures.items()}, CALLERS
    )
    assert sorted(defaulted - passed) == []


def test_retired_knobs_stay_retired():
    offenders = [
        f"{_relative(path)}: {match.group(0)}"
        for path in SOURCES
        for match in RETIRED.finditer(TEXT[path])
    ]
    assert offenders == []


def test_no_duck_typed_probes_in_the_cost_model():
    offenders = [
        f"{_relative(path)}:{node.lineno}"
        for path in SOURCES
        if _relative(path).startswith(("autotune/", "synth/"))
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
    ]
    assert offenders == []


def test_experiments_have_one_entry_point_and_one_writer():
    writer = next(
        node
        for path in SOURCES
        if _relative(path) == "experiments/report.py"
        for node in TREE[path].body
        if isinstance(node, ast.FunctionDef) and node.name == "write_json"
    )
    offenders = []
    for path in SOURCES:
        module = _relative(path)
        if not module.startswith("experiments/"):
            continue
        for lineno, line in enumerate(TEXT[path].splitlines(), 1):
            if module == "experiments/report.py" and (
                writer.lineno <= lineno <= writer.end_lineno
            ):
                continue
            if ARTIFACT_IO.search(line) or (
                MAIN_GUARD.search(line) and module != "experiments/__main__.py"
            ):
                offenders.append(f"{module}:{lineno}: {line.strip()}")
    offenders += [
        f"{name}.main{inspect.signature(module.main)}"
        for name, module in ALL_FIGURES.items()
        if inspect.signature(module.main).parameters
    ]
    assert offenders == []


def test_experiments_state_their_claims_in_check():
    offenders = [
        f"{_relative(path)}:{node.lineno}: assert"
        for path in SOURCES
        if _relative(path).startswith("experiments/")
        for node in ast.walk(TREE[path])
        if isinstance(node, ast.Assert)
    ]
    defined = {
        _relative(path): {
            node.name for node in TREE[path].body if isinstance(node, ast.FunctionDef)
        }
        for path in SOURCES
    }
    offenders += [
        f"{name}: no check"
        for name, module in ALL_FIGURES.items()
        if "check" not in defined[f"experiments/{module.__name__.rsplit('.', 1)[1]}.py"]
    ]
    assert offenders == []
