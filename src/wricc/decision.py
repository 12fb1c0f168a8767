"""The icc criterion for restricted wreath products.

The verdict combines three structural oracles in Kleene three-valued
logic: (i) no nontrivial FC-element of Q fixes the carrier pointwise,
(ii) the base group is icc, (iii) every Q-orbit is infinite.  The group is
icc exactly when (i) holds together with (ii) or (iii).  The criterion's
hypotheses, D nontrivial and the carrier nonempty, hold for every G:
`WreathProduct` refuses any other.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotFreeAction
from .tri import Tri, tri_and, tri_not, tri_of, tri_or
from .wreath import WreathProduct


class IccVerdict(NamedTuple):
    answer: Tri
    cond_i: Tri
    cond_ii: Tri
    cond_iii: Tri
    reason: str
    corollary_used: bool = False


def _reason(ci: Tri, cii: Tri, ciii: Tri, answer: Tri) -> str:
    bits = f"(i)={ci} (ii)={cii} (iii)={ciii}"
    if answer is Tri.YES:
        return f"icc: condition (i) holds and (ii) or (iii) holds [{bits}]"
    if answer is Tri.NO:
        if ci is Tri.NO:
            return f"not icc: a nontrivial FC-element of Q fixes the carrier pointwise [{bits}]"
        return f"not icc: base not icc and some orbit is finite [{bits}]"
    return f"unknown: an oracle needed to decide is undetermined [{bits}]"


def decide_icc(G: WreathProduct) -> IccVerdict:
    """Apply the criterion directly; determined answers come only from the
    structural oracles, never from bounded searches."""
    cond_i = tri_not(G.omega.kernel_meets_fc()[0])
    cond_ii = G.D.icc_status().answer
    cond_iii = G.omega.all_orbits_infinite()
    answer = tri_and(cond_i, tri_or(cond_ii, cond_iii))
    return IccVerdict(answer, cond_i, cond_ii, cond_iii, _reason(cond_i, cond_ii, cond_iii, answer))


def decide_icc_free(G: WreathProduct) -> IccVerdict:
    """The free-action special case: icc iff the base is icc or Q is
    infinite.  Freeness gives (i), as only 1 fixes a point, and (iii), as
    each orbit is a copy of Q.  Must agree with decide_icc on every field."""
    free = G.omega.is_free_action()
    if free is not Tri.YES:
        raise NotFreeAction(f"the action is not (known) free: {free}")
    cond_ii = G.D.icc_status().answer
    cond_iii = tri_of(not G.Q.is_finite)
    answer = tri_or(cond_ii, cond_iii)
    reason = (
        f"free action: icc iff base icc or Q infinite "
        f"[base icc={cond_ii}, Q infinite={not G.Q.is_finite}]"
    )
    return IccVerdict(answer, Tri.YES, cond_ii, cond_iii, reason, corollary_used=True)
