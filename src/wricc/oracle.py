"""Independent brute-force conjugacy-class explorer for wreath products.

Cross-checks verdicts and certificates: closure of {g} under conjugation
by the group's generators, organized in rounds, reported as a
`ClassReport`.  The generators generate G, so a closed report
(`exact-finite`) is the whole conjugacy class.  Every member is
re-derived from the chain of moves that first reached it: the product of
those moves is a conjugator h with g^h = member.  Every member of an
exact report is re-verified against its conjugator; truncated runs
re-verify a deterministic subsample (all of the first _VERIFY_ALL found,
then every _VERIFY_STRIDE-th) to keep large enumerations affordable.
`class_lower_bound` asks whether a class has more than `target` members:
it stops each enumeration at `target + 1` conjugates and escalates the
round budget for slowly growing classes.  `wricc verify` and the
acceptance suite both check growth through it.
"""

from __future__ import annotations

from .errors import PreconditionError, WriccError
from .groups import AT_LEAST, ClassReport, class_closure
from .wreath import WreathElement, WreathProduct

_VERIFY_ALL = 256
_VERIFY_STRIDE = 64
_ESCALATION_FACTOR = 4
_MAX_RADIUS = 512


def enumerate_class(
    G: WreathProduct, g: WreathElement, radius: int = 8, max_size: int = 10000
) -> ClassReport:
    bfs = class_closure(G, g, radius, max_size)
    rep = bfs.report()
    # overwrite each record with the conjugator h (g^h = y); a parent
    # comes before its children, so its record is already a conjugator
    found = bfs.reached
    for n, (y, how) in enumerate(found.items()):
        if how is None:
            h = G.identity()
        else:
            z, (s, _) = how
            h = G.multiply(found[z], s)
        found[y] = h
        if rep.stopped_by == "closed" or n <= _VERIFY_ALL or n % _VERIFY_STRIDE == 0:
            if G.conjugate(g, h) != y:
                raise WriccError("oracle bookkeeping error: bad conjugator")
    return rep


def class_lower_bound(
    G: WreathProduct, g: WreathElement, target: int, radius: int = 8
) -> tuple[ClassReport, int]:
    """Count distinct verified conjugates of g, escalating the round budget
    while the class grows too slowly to reach `target`.

    Each enumeration stops at `target + 1` conjugates, the least budget
    that answers "more than `target`?".  Starts at `radius` and multiplies
    it by 4, capped at 512 rounds, until the report reaches `target`,
    closes (`exact-finite`), or the cap has been tried.  Slow growth is
    expected: on the lamplighter, conjugating a pure translation {}@k by
    (psi, m) gives (lambda_{-m}((1 + t^k) psi), k), so its conjugates by
    words of length <= 8 are only 129.
    Returns the last report and the round budget it was run with.
    """
    if target < 1:
        raise PreconditionError("class_lower_bound: target must be at least 1")
    if radius > _MAX_RADIUS:
        raise PreconditionError(f"class_lower_bound: radius exceeds {_MAX_RADIUS}")
    rep = enumerate_class(G, g, radius, target + 1)
    while rep.status == AT_LEAST and rep.count < target and radius < _MAX_RADIUS:
        radius = min(radius * _ESCALATION_FACTOR, _MAX_RADIUS)
        rep = enumerate_class(G, g, radius, target + 1)
    return rep, radius
