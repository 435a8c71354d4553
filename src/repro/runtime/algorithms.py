"""Algorithm registry: scenario -> coloring.

Each entry takes ``(instance, scenario)`` and returns a
:class:`~repro.core.coloring.Coloring`.  Oracles are constructed per call
from the scenario's ``oracle`` param (default: the BFS+spectral portfolio)
through the separator package's string-keyed registry
(:data:`repro.separators.REGISTRY`), so runs stay deterministic and worker
processes never need to pickle oracle objects.
"""

from __future__ import annotations

from ..baselines import (
    greedy_list_scheduling,
    kst_partition,
    multilevel_partition,
    recursive_bisection,
)
from ..core import DecompositionParams, min_max_partition
from ..core.kernels import REGISTRY as KERNEL_REGISTRY
from ..core.kernels import default_kernel
from ..separators import make_oracle
from .instances import Instance
from .scenario import Scenario

__all__ = [
    "ALGORITHMS",
    "KERNEL_ALGORITHMS",
    "ORACLE_ALGORITHMS",
    "resolved_kernel_name",
    "resolved_oracle_name",
    "run_algorithm",
]

#: algorithms that consume a splitting oracle (and thus record its name)
ORACLE_ALGORITHMS = frozenset({"minmax", "recursive-bisection", "kst"})

#: algorithms whose refinement runs FM pair passes (and thus record the
#: resolved kernel name) — minmax's final refine, the multilevel baseline's
#: uncoarsening refinement, and the streaming repairer
KERNEL_ALGORITHMS = frozenset({"minmax", "multilevel", "stream"})


def _oracle_for(scenario: Scenario):
    return make_oracle(
        scenario.param_dict.get("oracle", "best"), seed=scenario.algorithm_seed()
    )


def resolved_oracle_name(scenario: Scenario) -> str | None:
    """The registry name of the oracle a scenario resolves to, or ``None``
    for oracle-free algorithms.  Deterministic — safe to record in results."""
    if scenario.algorithm not in ORACLE_ALGORITHMS:
        return None
    return _oracle_for(scenario).name


def resolved_kernel_name(scenario: Scenario) -> str | None:
    """The FM-kernel registry name a scenario's refinement resolves to, or
    ``None`` for algorithms that never run pair passes.

    A ``kernel`` param wins; otherwise the default applies — the
    :data:`~repro.core.kernels.DEFAULT_KERNEL` constant unless a
    :func:`~repro.core.kernels.use_kernel` scope switched it.  Either way
    the name is fixed before the scenario runs, so it is safe to record in
    the deterministic result payload.
    """
    if scenario.algorithm not in KERNEL_ALGORITHMS:
        return None
    name = scenario.param_dict.get("kernel")
    if name is None:
        return default_kernel()
    name = str(name)
    if name not in KERNEL_REGISTRY:
        raise ValueError(
            f"unknown FM kernel {name!r}; known: {', '.join(sorted(KERNEL_REGISTRY))}"
        )
    return name


def _minmax(inst: Instance, s: Scenario):
    p = s.param_dict
    kwargs = {}
    if "p" in p or "refine" in p:
        kwargs["params"] = DecompositionParams(
            p=float(p.get("p", 2.0)), final_refine=bool(p.get("refine", True))
        )
    res = min_max_partition(
        inst.graph, s.k, weights=inst.weights, oracle=_oracle_for(s), **kwargs
    )
    return res.coloring


def _greedy(inst: Instance, s: Scenario):
    return greedy_list_scheduling(inst.graph, s.k, inst.weights)


def _recursive_bisection(inst: Instance, s: Scenario):
    return recursive_bisection(inst.graph, s.k, inst.weights, oracle=_oracle_for(s))


def _kst(inst: Instance, s: Scenario):
    eps = float(s.param_dict.get("eps", 0.0))
    return kst_partition(inst.graph, s.k, inst.weights, oracle=_oracle_for(s), eps=eps)


def _multilevel(inst: Instance, s: Scenario):
    imbalance = float(s.param_dict.get("imbalance", 0.05))
    return multilevel_partition(
        inst.graph, s.k, inst.weights, imbalance=imbalance, rng=s.algorithm_seed()
    )


def _stream(inst: Instance, s: Scenario):
    """Replay the scenario's mutation trace; returns the *final* coloring.

    Lazy import: :mod:`repro.stream` builds on the runtime registries, so a
    top-level import here would be circular.  The sweep engine intercepts
    ``algorithm="stream"`` before this dispatch to evaluate metrics on the
    final mutated graph (see :func:`repro.runtime.engine.run_scenario`).
    """
    from ..stream import stream_coloring

    return stream_coloring(inst, s)


ALGORITHMS = {
    "minmax": _minmax,
    "greedy": _greedy,
    "recursive-bisection": _recursive_bisection,
    "kst": _kst,
    "multilevel": _multilevel,
    "stream": _stream,
}


def run_algorithm(inst: Instance, scenario: Scenario):
    """Dispatch ``scenario.algorithm`` on ``inst`` and return its coloring."""
    if scenario.algorithm not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {scenario.algorithm!r} (have {sorted(ALGORITHMS)})"
        )
    return ALGORITHMS[scenario.algorithm](inst, scenario)
