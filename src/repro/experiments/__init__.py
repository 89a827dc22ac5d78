"""Experiment harness: one module per results figure of the paper.

Each module exposes a parameterized ``run_*`` API (used by the benchmarks
and tests) and a ``main()`` that prints the paper's rows at full scale and
returns its JSON artifacts by name.  ``python -m repro.experiments`` is the
one entry point: it runs the named experiments and writes their artifacts.
"""

from . import (
    fig02_breakdown,
    fig03_crossrack,
    fig06_single_app,
    fig07_reconfig,
    fig08_multi_app,
    fig09_qos,
    fig10_dynamic,
    fig11_simulation,
    fig_attribution,
    fig_autotune,
    fig_crashloop,
    fig_elastic,
    fig_failover,
    fig_fleet,
    fig_synth,
)

ALL_FIGURES = {
    "fig02": fig02_breakdown,
    "fig03": fig03_crossrack,
    "fig06": fig06_single_app,
    "fig07": fig07_reconfig,
    "fig08": fig08_multi_app,
    "fig09": fig09_qos,
    "fig10": fig10_dynamic,
    "fig11": fig11_simulation,
    "failover": fig_failover,
    "autotune": fig_autotune,
    "crashloop": fig_crashloop,
    "attribution": fig_attribution,
    "elastic": fig_elastic,
    "synth": fig_synth,
    "fleet": fig_fleet,
}

__all__ = ["ALL_FIGURES"]
