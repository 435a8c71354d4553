"""Tunable constants of the decomposition pipeline.

The paper's analysis fixes constants asymptotically (``M = 1/ε⁵``, ``2^r``
slack factors); for a usable library they are parameters with practical
defaults.  Every *unconditional* contract (Definition 1 strict balance,
Definition 3 splitting windows) is independent of these values — they only
move constant factors, which the experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DecompositionParams"]


@dataclass
class DecompositionParams:
    """Knobs for Theorem 4's pipeline (Propositions 7, 11, 12)."""

    #: Hölder exponent of the splittability regime (grids: d/(d−1)).
    p: float = 2.0
    #: scaling of the Definition 10 splitting-cost measure π (σ_p estimate);
    #: only the *relative* weighting against other measures matters.
    sigma_p: float = 1.0
    #: Lemma 9 heavy threshold is ``heavy_factor·‖Ψ‖_avg + slack·‖Ψ‖∞``
    #: with ``slack = heavy_slack_scale · 2^r`` — the paper uses factor 3.
    heavy_factor: float = 3.0
    heavy_slack_scale: float = 1.0
    #: cap on the ``2^r`` slack exponent (the paper treats r as O(1)).
    max_slack_exponent: int = 6
    #: §5 shrinking parameter ε (the paper's asymptotics want ε → 0; the
    #: shrink-and-conquer recursion works for any ε ∈ (0, 1/3)).
    epsilon: float = 0.25
    #: engage the shrink recursion only while ``‖w‖∞ ≤ shrink_threshold ·
    #: ‖w|W‖_avg`` (the paper's base-case condition with ε⁵ replaced by a
    #: practical constant); below it Lemma 15 is applied directly.
    shrink_threshold: float = 0.1
    #: hard cap on shrink recursion depth (defensive; Definition 13(c)
    #: guarantees geometric size decay so ~log(n) levels suffice).
    max_shrink_levels: int = 40
    #: run the final strictification (Proposition 12).  Disable only to
    #: reproduce the E10 ablation.
    strictify: bool = True
    #: run the shrink-and-conquer balance improvement (Proposition 11).
    improve_balance: bool = True
    #: seed Lemma 6's fold with a recursive-bisection coloring instead of
    #: the trivial one-class coloring.  Lemma 9 accepts arbitrary input
    #: colorings, so this is a quality heuristic inside the theory: the
    #: guarantees are unchanged, the constants improve.
    seed_with_bisection: bool = True
    #: run the balance-preserving pairwise FM post-pass (engineering
    #: refinement on top of the theory).  It never raises the total cut,
    #: but it can raise the maximum class boundary that Theorem 4 bounds.
    final_refine: bool = True
    #: FM post-pass rounds.
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        if not (self.p > 1.0):
            raise ValueError("p must be > 1")
        if not (0.0 < self.epsilon < 1.0 / 3.0):
            raise ValueError("epsilon must lie in (0, 1/3)")
        if self.heavy_factor < 2.0:
            raise ValueError("heavy_factor must be >= 2 for Claim 1 to hold")

    @property
    def q(self) -> float:
        """Hölder conjugate of ``p``."""
        return self.p / (self.p - 1.0)
