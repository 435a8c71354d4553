"""Declarative scenario grids for the sweep engine.

A :class:`Scenario` pins down one experiment cell completely — graph family,
size, cost/weight distributions, ``k``, algorithm, seed, and any extra
algorithm parameters — so that running it is a pure function of the scenario
alone.  :class:`ScenarioGrid` expands a cartesian product of axis values into
an ordered scenario list; the order is the declaration order of the axes, so
a grid expands identically on every machine and in every process.

Seeding is derived, never ambient: every scenario gets an independent 64-bit
seed hashed from its *instance* spec (family, size, distributions, seed) so
that two scenarios sharing an instance spec see the same graph, while the
``seed`` axis still de-correlates repetitions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace

__all__ = ["Scenario", "ScenarioGrid", "derive_seed"]

#: Fields that determine the generated instance (graph + weights).  The
#: algorithm and ``k`` are deliberately excluded so scenarios that differ only
#: in those share a cache entry.
INSTANCE_FIELDS = ("family", "size", "costs", "weights", "seed")


def _canonical(obj) -> str:
    """Deterministic JSON encoding used for hashing and scenario ids."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(spec: dict, salt: str = "") -> int:
    """Derive a stable 63-bit seed from a spec dict (sha256, not ``hash()``)."""
    digest = hashlib.sha256((_canonical(spec) + salt).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Scenario:
    """One fully specified experiment cell."""

    family: str
    size: int
    k: int
    algorithm: str = "minmax"
    weights: str = "unit"
    costs: str = "unit"
    seed: int = 0
    #: extra keyword parameters for the family / distributions / algorithm,
    #: stored as a sorted tuple of (name, value) pairs so the dataclass stays
    #: hashable and its id canonical.
    params: tuple = ()

    def __post_init__(self):
        # rejected here, the one place every sweep cell, service request
        # and stream session is built, so bad input never reaches a batch
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # normalize unconditionally (dict, iterable of pairs, unsorted tuple)
        # so logically equal params always hash to the same scenario id
        object.__setattr__(self, "params", tuple(sorted(dict(self.params).items())))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def spec(self) -> dict:
        """The scenario as a plain, JSON-ready dict."""
        d = {
            "family": self.family,
            "size": self.size,
            "k": self.k,
            "algorithm": self.algorithm,
            "weights": self.weights,
            "costs": self.costs,
            "seed": self.seed,
        }
        if self.params:
            d["params"] = dict(self.params)
        return d

    def instance_spec(self) -> dict:
        """The sub-spec that determines the generated instance only."""
        d = {f: getattr(self, f) for f in INSTANCE_FIELDS}
        inst_params = {
            name: value for name, value in self.params if name in INSTANCE_PARAM_NAMES
        }
        if inst_params:
            d["params"] = inst_params
        return d

    def scenario_id(self) -> str:
        """Stable short content hash identifying this cell across runs."""
        return hashlib.sha256(_canonical(self.spec()).encode()).hexdigest()[:12]

    def instance_hash(self) -> str:
        """Content hash of the instance spec — the cache key."""
        return hashlib.sha256(_canonical(self.instance_spec()).encode()).hexdigest()[:16]

    def instance_seed(self) -> int:
        """Seed for instance generation (independent of algorithm and k)."""
        return derive_seed(self.instance_spec(), salt="instance")

    def algorithm_seed(self) -> int:
        """Seed for the algorithm run (depends on the full scenario)."""
        return derive_seed(self.spec(), salt="algorithm")

    def with_(self, **changes) -> "Scenario":
        return replace(self, **changes)


#: params that feed instance generation rather than the algorithm.
INSTANCE_PARAM_NAMES = frozenset(
    {"phi", "sigma", "alpha", "heavy", "ratio", "heavy_fraction", "scale", "low", "high",
     "degree", "path"}
)


@dataclass
class ScenarioGrid:
    """Cartesian product of scenario axes, expanded in declaration order.

    Every axis accepts either a single value or a list; ``params`` is a list
    of param dicts (each dict is one cell of the params axis).
    """

    family: list = field(default_factory=lambda: ["grid"])
    size: list = field(default_factory=lambda: [16])
    k: list = field(default_factory=lambda: [8])
    algorithm: list = field(default_factory=lambda: ["minmax"])
    weights: list = field(default_factory=lambda: ["unit"])
    costs: list = field(default_factory=lambda: ["unit"])
    seed: list = field(default_factory=lambda: [0])
    params: list = field(default_factory=lambda: [{}])

    def __post_init__(self):
        for name in ("family", "size", "k", "algorithm", "weights", "costs", "seed", "params"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)):
                setattr(self, name, [v])

    def scenarios(self) -> list[Scenario]:
        out = []
        for fam, size, k, algo, w, c, seed, params in itertools.product(
            self.family, self.size, self.k, self.algorithm,
            self.weights, self.costs, self.seed, self.params,
        ):
            out.append(
                Scenario(
                    family=fam, size=size, k=k, algorithm=algo,
                    weights=w, costs=c, seed=seed,
                    params=tuple(sorted(params.items())),
                )
            )
        ids = [s.scenario_id() for s in out]
        if len(set(ids)) != len(ids):
            raise ValueError("grid expands to duplicate scenarios")
        return out

    def __len__(self) -> int:
        return len(self.scenarios())

    def spec(self) -> dict:
        return {
            "family": list(self.family), "size": list(self.size), "k": list(self.k),
            "algorithm": list(self.algorithm), "weights": list(self.weights),
            "costs": list(self.costs), "seed": list(self.seed),
            "params": [dict(p) for p in self.params],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "ScenarioGrid":
        return cls(**spec)
