"""Independent brute-force conjugacy-class explorer for wreath products.

Cross-checks verdicts and certificates: closure of {g} under conjugation
by the group's generators, organized in rounds, reported as a
`ClassReport`.  The generators generate G, so a closed report
(`exact-finite`) is the whole conjugacy class.  The closure steps with
products only; every member y is then re-derived from the member x and
the move (s, s^-1) that first reached it, through the conjugation law:
`_conjugate(x, s)` must give y.  By induction from g, every member is so
re-verified as a conjugate of g, in exact and truncated runs alike, with
no subsample.
It counts with `Closure.report()`, which sorts no round, only a closed
class once; the count, rounds and stop are those of sorted rounds.
`class_lower_bound` asks whether a class has more than `target` members:
one closure stops at `target + 1` conjugates, and for slowly growing
classes it is resumed with a larger round budget, so that only the newly
reached members are re-verified.  `wricc verify` and the
acceptance suite both check growth through it.

Operands are validated at the boundary only: `class_closure` validates
g, and the generators are built through the validating `zeta`.  So every
member and move is built by the group, and the law `_conjugate`, which
trusts its operands, checks them.
"""

from __future__ import annotations

import itertools

from . import groups
from .errors import CertificateBudget, PreconditionError, WriccError
from .groups import AT_LEAST, ClassReport, Closure, class_closure
from .wreath import WreathElement, WreathProduct

_ESCALATION_FACTOR = 4
_MAX_RADIUS = 512


def _verify(G: WreathProduct, bfs: Closure, checked: int) -> ClassReport:
    """Run `bfs` to its end and re-verify each member it reached past the
    first `checked`, which are g and the members an earlier run of it
    checked: the member y reached from x by the move (s, s^-1) must be
    s^-1 x s."""
    rep = bfs.report()
    conj = G._conjugate
    for y, (x, (s, _)) in itertools.islice(bfs.reached.items(), checked, None):
        if conj(x, s) != y:
            raise WriccError("oracle bookkeeping error: bad conjugator")
    return rep


def enumerate_class(
    G: WreathProduct, g: WreathElement, radius: int = 8, max_size: int = 10000
) -> ClassReport:
    """The class of g explored for at most `radius` rounds and `max_size`
    conjugates, each member re-verified as the module docstring says.  A
    `max_size` past the listing cap is refused before the closure starts,
    as `check_target` refuses a target."""
    if max_size > groups._FINITE_SET_CAP:
        raise CertificateBudget(
            f"enumerate_class: max_size of more than {groups._FINITE_SET_CAP} conjugates"
        )
    return _verify(G, class_closure(G, g, radius, max_size), 1)


def check_target(target: int) -> None:
    """Refuse a target below 1, which tests nothing, or past the listing
    cap, before any conjugate is built: the closure keeps `target + 1`."""
    if target < 1:
        raise PreconditionError("class_lower_bound: target must be at least 1")
    if target > groups._FINITE_SET_CAP:
        raise CertificateBudget(
            f"class_lower_bound: target of more than {groups._FINITE_SET_CAP} conjugates"
        )


def class_lower_bound(
    G: WreathProduct, g: WreathElement, target: int, radius: int = 8
) -> tuple[ClassReport, int]:
    """Count distinct verified conjugates of g, escalating the round budget
    while the class grows too slowly to reach `target`.

    One closure stops at `target + 1` conjugates, the least budget that
    answers "more than `target`?".  It starts with `radius` rounds; while
    the class is open below `target`, the budget is multiplied by 4,
    capped at 512, and the closure carries on from its saved frontier.
    Slow growth is expected: on the lamplighter, conjugating a pure
    translation {}@k by (psi, m) gives (lambda_{-m}((1 + t^k) psi), k), so
    its conjugates by words of length <= 8 are only 129.
    Returns the last report and the round budget it was run with; both
    equal those of `enumerate_class(G, g, radius, target + 1)` at that
    final budget.
    """
    check_target(target)
    if radius > _MAX_RADIUS:
        raise PreconditionError(f"class_lower_bound: radius exceeds {_MAX_RADIUS}")
    bfs = class_closure(G, g, radius, target + 1)
    rep = _verify(G, bfs, 1)
    while rep.status == AT_LEAST and rep.count < target and bfs.radius < _MAX_RADIUS:
        checked = len(bfs.reached)
        bfs.radius = min(bfs.radius * _ESCALATION_FACTOR, _MAX_RADIUS)
        rep = _verify(G, bfs, checked)
    return rep, bfs.radius
