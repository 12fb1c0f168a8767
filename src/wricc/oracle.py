"""Independent brute-force conjugacy-class explorer for wreath products.

Cross-checks verdicts and certificates: closure of {g} under conjugation
by the group's generators, organized in rounds, with a recorded
conjugating element for every member.  Every element of an exact report
is re-verified against its conjugator; truncated runs re-verify a
deterministic subsample (all of the first _VERIFY_ALL stored, then every
_VERIFY_STRIDE-th) to keep large enumerations affordable.
`class_lower_bound` escalates the round budget for slowly growing classes;
`wricc verify` and the acceptance suite both check growth through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, WriccError
from .wreath import WreathElement, WreathProduct

EXACT_FINITE_UNDER_GENS = "exact-finite-under-gens"
AT_LEAST = "at-least"

_VERIFY_ALL = 256
_VERIFY_STRIDE = 64
_ESCALATION_FACTOR = 4
_MAX_RADIUS = 512


@dataclass(frozen=True)
class WreathClassReport:
    """`exact-finite-under-gens` proves closure only under the listed
    generators; for an infinite group with a finite generator window this
    is not a claim about all of G, hence the retained window.

    `stopped_by` says why the enumeration ended: "closed" (no new
    conjugates), "radius" (the round budget ran out with the class still
    open) or "max_size" (the size budget filled)."""

    status: str
    elements: tuple | None
    count: int
    rounds_used: int
    window: tuple
    stopped_by: str


def enumerate_class(
    G: WreathProduct, g: WreathElement, radius: int = 8, max_size: int = 10000
) -> WreathClassReport:
    if radius <= 0 or max_size <= 0:
        raise PreconditionError("enumerate_class: budgets must be positive")
    G.validate(g)
    conjs = list(G.generators)
    for s in G.generators:
        inv = G.inverse(s)
        if inv not in conjs:
            conjs.append(inv)
    pairs = [(s, G.inverse(s)) for s in conjs]
    # element -> conjugating element h with g^h = element
    found = {g: G.identity()}
    frontier = [g]
    rounds = 0
    truncated = False
    while frontier and rounds < radius and not truncated:
        rounds += 1
        fresh = []
        for x in sorted(frontier, key=G.sort_key):
            hx = found[x]
            for s, sinv in pairs:
                y = G.multiply(G.multiply(sinv, x), s)
                if y not in found:
                    hy = G.multiply(hx, s)
                    n = len(found)
                    if n <= _VERIFY_ALL or n % _VERIFY_STRIDE == 0:
                        if G.conjugate(g, hy) != y:
                            raise WriccError("oracle bookkeeping error: bad conjugator")
                    found[y] = hy
                    fresh.append(y)
                    if len(found) >= max_size:
                        truncated = True
                        break
            if truncated:
                break
        frontier = fresh
    if not frontier and not truncated:
        for y, hy in found.items():
            if G.conjugate(g, hy) != y:
                raise WriccError("oracle bookkeeping error: bad conjugator")
        elems = tuple(sorted(found, key=G.sort_key))
        return WreathClassReport(
            EXACT_FINITE_UNDER_GENS, elems, len(found), rounds, G.window, "closed"
        )
    stopped_by = "max_size" if truncated else "radius"
    return WreathClassReport(AT_LEAST, None, len(found), rounds, G.window, stopped_by)


def class_lower_bound(
    G: WreathProduct,
    g: WreathElement,
    target: int,
    radius: int = 8,
    max_size: int = 10000,
) -> tuple[WreathClassReport, int]:
    """Count distinct verified conjugates of g, escalating the round budget
    while the class grows too slowly to reach `target`.

    Starts at `radius` and multiplies it by 4, capped at 512 rounds, until
    the report reaches `target`, closes (`exact-finite-under-gens`), or the
    cap has been tried.  Slow growth is expected: on the lamplighter,
    conjugating a pure translation {}@k by (psi, m) gives
    (lambda_{-m}((1 + t^k) psi), k), so its conjugates by words of length
    <= 8 are only 129.
    Returns the last report and the round budget it was run with.
    """
    if radius > _MAX_RADIUS:
        raise PreconditionError(f"class_lower_bound: radius exceeds {_MAX_RADIUS}")
    rep = enumerate_class(G, g, radius, max_size)
    while rep.status == AT_LEAST and rep.count < target and radius < _MAX_RADIUS:
        radius = min(radius * _ESCALATION_FACTOR, _MAX_RADIUS)
        rep = enumerate_class(G, g, radius, max_size)
    return rep, radius
