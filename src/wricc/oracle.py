"""Independent brute-force conjugacy-class explorer for wreath products.

Cross-checks verdicts and certificates: closure of {g} under conjugation
by the group's generators, organized in rounds, reported as a
`ClassReport`.  The generators generate G, so a closed report
(`exact-finite`) is the whole conjugacy class.  The closure steps with
products only; every member is re-derived from the chain of moves that
first reached it: the product of those moves is a conjugator h with
g^h = member, re-verified through the conjugation law `_conjugate`.
Every member of an exact report is re-verified against its conjugator;
truncated runs re-verify a deterministic subsample (the first
_VERIFY_ALL + 1 found, counting g itself, then every _VERIFY_STRIDE-th)
to keep large enumerations affordable.
`class_lower_bound` asks whether a class has more than `target` members:
one closure stops at `target + 1` conjugates, and for slowly growing
classes it is resumed with a larger round budget, so that only the newly
reached members are rebuilt and re-verified.  `wricc verify` and the
acceptance suite both check growth through it.

Operands are validated at the boundary only: `class_closure` validates
g, and the generators are built through the validating `zeta`.  Every
conjugator is a product of generators, so it is built with `_multiply`
and checked with `_conjugate`, which trust their operands.
"""

from __future__ import annotations

from .errors import PreconditionError, WriccError
from .groups import AT_LEAST, ClassReport, Closure, class_closure
from .wreath import WreathElement, WreathProduct

_VERIFY_ALL = 256
_VERIFY_STRIDE = 64
_ESCALATION_FACTOR = 4
_MAX_RADIUS = 512


def _verify(G: WreathProduct, g: WreathElement, bfs: Closure, conjugators: dict) -> ClassReport:
    """Run `bfs` to its end and re-verify what it reached, extending
    `conjugators` (member -> h with g^h = member) to the new members.

    A parent comes before its children in `reached`, so its conjugator is
    known when a child's is built.  An earlier run of `bfs` was open, so
    it checked the sampled members it reached; if this run closes, the
    rest of them are checked now."""
    rep = bfs.report()
    closed = rep.stopped_by == "closed"
    mul, conj = G._multiply, G._conjugate
    for n, (y, how) in enumerate(bfs.reached.items()):
        sampled = n <= _VERIFY_ALL or n % _VERIFY_STRIDE == 0
        h = conjugators.get(y)
        known = h is not None
        if not known:
            # how = (parent, (s, s^-1)): y = s^-1 parent s, so h = h_parent s
            h = G.identity() if how is None else mul(conjugators[how[0]], how[1][0])
            conjugators[y] = h
        if (closed or sampled) and not (known and sampled) and conj(g, h) != y:
            raise WriccError("oracle bookkeeping error: bad conjugator")
    return rep


def enumerate_class(
    G: WreathProduct, g: WreathElement, radius: int = 8, max_size: int = 10000
) -> ClassReport:
    """The class of g explored for at most `radius` rounds and `max_size`
    conjugates, each member re-verified as the module docstring says."""
    return _verify(G, g, class_closure(G, g, radius, max_size), {})


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
    if target < 1:
        raise PreconditionError("class_lower_bound: target must be at least 1")
    if radius > _MAX_RADIUS:
        raise PreconditionError(f"class_lower_bound: radius exceeds {_MAX_RADIUS}")
    bfs = class_closure(G, g, radius, target + 1)
    conjugators = {}
    rep = _verify(G, g, bfs, conjugators)
    while rep.status == AT_LEAST and rep.count < target and bfs.radius < _MAX_RADIUS:
        bfs.radius = min(bfs.radius * _ESCALATION_FACTOR, _MAX_RADIUS)
        rep = _verify(G, g, bfs, conjugators)
    return rep, bfs.radius
