"""Lazy (CELF) marginal-gain greedy, under its historical name.

The placement objective is monotone submodular, so a candidate's marginal
gain can only shrink as RAPs are placed.  CELF (Leskovec et al., 2007)
exploits this: keep candidates in a max-heap keyed by a possibly *stale*
gain; on pop, if the entry is stale, recompute and push back.  The first
fresh pop is provably the true argmax.

:class:`~repro.algorithms.marginal_greedy.MarginalGainGreedy` already
selects this way, so ``lazy-greedy`` is the same algorithm registered
under its own name (result tables and benchmarks key on it), always
stopping once no site has positive gain.
"""

from __future__ import annotations

from .base import register
from .marginal_greedy import MarginalGainGreedy


@register("lazy-greedy")
class LazyGreedy(MarginalGainGreedy):
    """CELF-accelerated marginal-gain greedy."""

    name = "lazy-greedy"

    def __init__(self) -> None:
        super().__init__()
