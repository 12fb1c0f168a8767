"""Machine-checkable certificates for icc verdicts.

Non-icc verdicts get a finite conjugation-invariant set of nontrivial
elements; icc verdicts get a deterministic, restartable stream of
conjugators whose conjugates are pairwise distinct.  The dispatcher
mirrors the case analysis of the criterion's proof.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import CertificateBudget, PreconditionError, WriccError
from .groups import EXACT_FINITE, class_enum_bounded
from .tri import Tri
from .wreath import WreathElement, WreathProduct, support

_FINITE_SET_CAP = 1_000_000


@dataclass(frozen=True)
class FiniteClassCertificate:
    base: WreathElement
    elements: frozenset
    provenance: str  # "condition-i" | "finite-orbit"
    size_formula: str


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str = "ok"
    counterexample: tuple | None = None

    def __bool__(self):
        return self.ok


class InfiniteFamilyCertificate:
    """An indexed stream of conjugators with pairwise-distinct conjugates.

    Generation is stateless: `members` re-derives the stream from scratch,
    so prefixes are restartable and deterministic.  When a closed form is
    attached (the g_d family) every emission is self-checked against an
    independent conjugation.
    """

    def __init__(
        self,
        group: WreathProduct,
        base: WreathElement,
        family_kind: str,
        dedup: bool,
        stream,
        dedup_key=None,
        closed_form=None,
        seed_conjugator: WreathElement | None = None,
    ):
        self.group = group
        self.base = base
        self.family_kind = family_kind
        self.dedup = dedup
        self.seed_conjugator = seed_conjugator
        self._stream = stream
        self._dedup_key = dedup_key
        self._closed_form = closed_form

    def members(self, count: int, search_budget: int = 20000):
        """Yield up to `count` pairs (conjugator, conjugate)."""
        seen = set()
        emitted = 0
        skipped = 0
        for inner in self._stream():
            if self.seed_conjugator is not None:
                h = self.group.multiply(self.seed_conjugator, inner)
            else:
                h = inner
            conj = self.group.conjugate(self.base, h)
            if self._closed_form is not None:
                expect = self._closed_form(inner)
                if expect != conj:
                    raise WriccError(
                        f"{self.family_kind}: closed form disagrees with conjugation"
                    )
            key = self._dedup_key(conj) if self._dedup_key is not None else conj
            if key in seen:
                if not self.dedup:
                    raise WriccError(f"{self.family_kind}: unexpected duplicate conjugate")
                skipped += 1
                if skipped > search_budget:
                    raise CertificateBudget(
                        f"{self.family_kind}: no fresh conjugate within {search_budget} draws"
                    )
                continue
            seen.add(key)
            skipped = 0
            yield (h, conj)
            emitted += 1
            if emitted >= count:
                return
        raise CertificateBudget(
            f"{self.family_kind}: conjugator stream exhausted after {emitted} members"
        )

    def take(self, count: int):
        return list(self.members(count))


# ---------------------------------------------------------------------------
# finite certificates
# ---------------------------------------------------------------------------


def cert_condition_i(
    G: WreathProduct, q0, radius: int = 8, max_size: int = 10000
) -> FiniteClassCertificate:
    """The finite invariant set {(eps, x) : x conjugate to q0 in Q} for a
    nontrivial FC-element q0 of Q fixing the carrier pointwise."""
    Q = G.Q
    Q.validate(q0)
    if q0 == Q.identity():
        raise PreconditionError("q0 must be nontrivial")
    if not Q.fc_contains(q0):
        raise PreconditionError("q0 must lie in FC(Q)")
    if G.omega.fixes_all_points(q0) is Tri.NO:
        raise PreconditionError("q0 must fix the carrier pointwise")
    rep = class_enum_bounded(Q, q0, radius, max_size)
    if rep.status != EXACT_FINITE:
        raise CertificateBudget(
            "class of q0 did not close within the configured budget"
        )
    elems = frozenset(WreathElement((), x) for x in rep.elements)
    return FiniteClassCertificate(
        base=WreathElement((), q0),
        elements=elems,
        provenance="condition-i",
        size_formula=f"|q0^Q| = {len(elems)}",
    )


def cert_finite_orbit(G: WreathProduct, xi=None, orbit=None) -> FiniteClassCertificate:
    """All maps with nonempty support inside a finite orbit and values in a
    finite invariant subset of the base; size (|xi|+1)^|O| - 1."""
    if xi is None:
        xi = G.D.finite_invariant_set_example()
    if orbit is None:
        orbit = G.omega.finite_orbit_example()
        if orbit is None:
            raise PreconditionError("no finite orbit available")
    xi = frozenset(xi)
    if not xi or G.D.identity() in xi:
        raise PreconditionError("xi must be a nonempty set of nontrivial elements")
    for x in xi:
        G.D.validate(x)
    orbit = tuple(orbit)
    for y in orbit:
        G.omega.validate_point(y)
    # the set must be closed under every generator's action
    pts = set(orbit)
    for s in G.Q.generators:
        for y in orbit:
            if G.omega.act(s, y) not in pts:
                raise PreconditionError("orbit is not closed under the action")
    # the size can have more digits than Python will convert to a string:
    # a logarithm test rejects huge sizes before the number is built, and
    # the exact test decides the cases near the cap
    too_big = CertificateBudget(
        f"certificate would have ({len(xi)}+1)^{len(orbit)} - 1 elements, "
        f"more than {_FINITE_SET_CAP}"
    )
    if len(orbit) * math.log2(len(xi) + 1) > math.log2(_FINITE_SET_CAP + 1) + 1:
        raise too_big
    size = (len(xi) + 1) ** len(orbit) - 1
    if size > _FINITE_SET_CAP:
        raise too_big
    one = G.Q.identity()
    values = [None] + sorted(xi, key=G.D.sort_key)
    members = []
    for choice in itertools.product(values, repeat=len(orbit)):
        items = [(y, d) for y, d in zip(orbit, choice) if d is not None]
        if items:
            members.append(WreathElement(G._canon(items), one))
    assert len(members) == size
    return FiniteClassCertificate(
        base=members[0],
        elements=frozenset(members),
        provenance="finite-orbit",
        size_formula=f"(|xi|+1)^|O| - 1 = ({len(xi)}+1)^{len(orbit)} - 1 = {size}",
    )


# ---------------------------------------------------------------------------
# infinite families
# ---------------------------------------------------------------------------


def family_q_translation(G: WreathProduct, g: WreathElement) -> InfiniteFamilyCertificate:
    """Conjugate by (eps, q_n): the acting part alone already has an
    infinite class when it lies outside FC(Q)."""
    G.validate(g)
    if G.Q.fc_contains(g.q):
        raise PreconditionError("q-translation family requires q outside FC(Q)")

    def stream():
        return (WreathElement((), qn) for qn in G.Q.ball_stream())

    return InfiniteFamilyCertificate(
        G, g, "q-translation", dedup=True, stream=stream, dedup_key=lambda c: c.q
    )


def family_lambda_translation(
    G: WreathProduct, g: WreathElement, seed_conjugator: WreathElement | None = None
) -> InfiniteFamilyCertificate:
    """Translate a nonempty support through an infinite orbit; distinctness
    is read off the conjugates' supports."""
    G.validate(g)
    probe = G.conjugate(g, seed_conjugator) if seed_conjugator is not None else g
    if not probe.phi:
        raise PreconditionError("lambda-translation family requires phi != eps")
    if not any(G.omega.orbit_infinite(y) is Tri.YES for y in support(probe.phi)):
        raise PreconditionError("no support point lies in a known-infinite orbit")

    def stream():
        return (WreathElement((), qn) for qn in G.Q.ball_stream())

    return InfiniteFamilyCertificate(
        G,
        g,
        "lambda-translation",
        dedup=True,
        stream=stream,
        dedup_key=lambda c: support(c.phi),
        seed_conjugator=seed_conjugator,
    )


def family_gd(G: WreathProduct, g: WreathElement, y) -> InfiniteFamilyCertificate:
    """Conjugators (zeta_d^y, 1) for distinct d; the conjugates differ at
    the point q.y, so no dedup is needed.  Every emission is checked
    against the closed forms for this family."""
    G.validate(g)
    G.omega.validate_point(y)
    qy = G.omega.act(g.q, y)
    if qy == y:
        raise PreconditionError("y must be moved by the acting part of g")
    if G.D.is_finite:
        raise PreconditionError("the g_d family needs an infinite base group")
    D = G.D
    phi = g.phi
    c = G.map_value(phi, y)
    phi0 = tuple(item for item in phi if item[0] != y)

    def closed_form(inner: WreathElement) -> WreathElement:
        d = inner.phi[0][1] if inner.phi else D.identity()
        dinv = D.inverse(d)
        if c == D.identity():
            head = G.pointwise_mul(phi, G.zeta(dinv, y))
        else:
            head = G.pointwise_mul(phi0, G.zeta(D.multiply(dinv, c), y))
        return WreathElement(G.pointwise_mul(head, G.zeta(d, qy)), g.q)

    def stream():
        return (
            WreathElement(G.zeta(dn, y), G.Q.identity()) for dn in D.ball_stream()
        )

    return InfiniteFamilyCertificate(
        G, g, "g_d", dedup=False, stream=stream, closed_form=closed_form
    )


def family_value_conjugation(
    G: WreathProduct, g: WreathElement, x0
) -> InfiniteFamilyCertificate:
    """Conjugate the value at a support point through its (infinite) class
    in an icc base group; dedup on that value."""
    G.validate(g)
    if g.q != G.Q.identity():
        raise PreconditionError("value-conjugation family requires q = 1")
    if not g.phi:
        raise PreconditionError("value-conjugation family requires phi != eps")
    if x0 not in support(g.phi):
        raise PreconditionError("x0 must lie in the support of phi")
    if G.D.icc_status().answer is not Tri.YES:
        raise PreconditionError("value-conjugation family requires an icc base group")
    D = G.D

    def stream():
        return (
            WreathElement(G.zeta(en, x0), G.Q.identity()) for en in D.ball_stream()
        )

    return InfiniteFamilyCertificate(
        G,
        g,
        "value-conjugation",
        dedup=True,
        stream=stream,
        dedup_key=lambda conj: G.map_value(conj.phi, x0),
    )


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def find_moved_point(G: WreathProduct, q, budget: int = 10000):
    """First carrier point (in stream order) not fixed by q."""
    for i, y in enumerate(G.omega.points_stream()):
        if G.omega.act(q, y) != y:
            return y
        if i >= budget:
            break
    raise CertificateBudget(f"no point moved by {q!r} within {budget} probes")


def witness(G: WreathProduct, verdict, g: WreathElement | None = None):
    """Produce the certificate matching a decided verdict.

    No: a finite invariant set (condition-(i) style when (i) fails,
    otherwise the finite-orbit map set).  Yes: an infinite family for the
    supplied nontrivial element, chosen by the proof's case order.
    """
    if verdict.answer is Tri.UNKNOWN:
        raise PreconditionError("no certificate for an Unknown verdict")

    if verdict.answer is Tri.NO:
        if verdict.cond_i is Tri.NO:
            tri, q0 = G.omega.kernel_meets_fc()
            assert tri is Tri.YES and q0 is not None
            return cert_condition_i(G, q0)
        return cert_finite_orbit(G)

    if g is None or g == G.identity():
        raise PreconditionError("a nontrivial element is required for a Yes verdict")
    G.validate(g)
    q = g.q
    if not G.Q.fc_contains(q):
        return family_q_translation(G, g)
    if verdict.cond_iii is Tri.YES:
        if g.phi:
            return family_lambda_translation(G, g)
        # phi = eps, q in FC(Q) and q != 1: seed with (zeta_d^y, 1) where
        # q moves y, then translate the now-nonempty support.
        y = find_moved_point(G, q)
        d = G.D.first_nontrivial()
        seed = WreathElement(G.zeta(d, y), G.Q.identity())
        gprime = G.conjugate(g, seed)
        qy = G.omega.act(q, y)
        expected = G.pointwise_mul(G.zeta(G.D.inverse(d), y), G.zeta(d, qy))
        if gprime.phi != expected or not gprime.phi:
            raise WriccError("seeded conjugate does not have the expected support")
        return family_lambda_translation(G, g, seed_conjugator=seed)
    if verdict.cond_ii is Tri.YES:
        if q != G.Q.identity():
            return family_gd(G, g, find_moved_point(G, q))
        return family_value_conjugation(G, g, g.phi[0][0])
    raise PreconditionError("verdict does not match any certificate construction")


def predicted_invariant_sets(G: WreathProduct):
    """For a finite wreath product: finite conjugation-invariant sets that
    jointly cover every nontrivial conjugacy class.

    One finite-orbit style set holds all (phi, 1) with phi != eps (values
    range over the nontrivial base elements, a union of classes); each
    nontrivial class C of the acting group contributes the full slab
    {(phi, p) : p in C}.
    """
    if not G.is_finite:
        raise PreconditionError("predicted invariant sets require a finite group")
    xi = frozenset(d for d in G.D.elements() if d != G.D.identity())
    pts = tuple(sorted(G.omega.points(), key=G.omega.point_key))
    sets = []
    one = G.Q.identity()
    values = [None] + sorted(xi, key=G.D.sort_key)
    base_slab = []
    for choice in itertools.product(values, repeat=len(pts)):
        items = [(y, d) for y, d in zip(pts, choice) if d is not None]
        if items:
            base_slab.append(WreathElement(G._canon(items), one))
    sets.append(frozenset(base_slab))
    all_phis = [g.phi for g in base_slab] + [()]
    remaining = {q for q in G.Q.elements() if q != one}
    while remaining:
        q = min(remaining, key=G.Q.sort_key)
        rep = class_enum_bounded(G.Q, q, G.Q.order() + 1, G.Q.order() + 1)
        assert rep.status == EXACT_FINITE
        cls = set(rep.elements)
        remaining -= cls
        sets.append(
            frozenset(
                WreathElement(phi, p) for phi in all_phis for p in cls
            )
        )
    return sets


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _sampled_conjugators(G: WreathProduct, radius: int, count: int, seed: int):
    rng = random.Random(seed)
    gens = list(G.generators)
    gens += [G.inverse(s) for s in G.generators]
    for _ in range(count):
        h = G.identity()
        for _ in range(rng.randint(1, radius)):
            h = G.multiply(h, rng.choice(gens))
        yield h


def verify_finite_certificate(
    G: WreathProduct,
    cert: FiniteClassCertificate,
    sample_radius: int = 3,
    sample_count: int = 500,
    seed: int = 0,
) -> VerificationResult:
    """Seeded sampled closure check: conjugating every member by every
    sampled generator-ball conjugator must land in the set."""
    S = cert.elements
    if not S:
        return VerificationResult(False, "certificate set is empty")
    if cert.base not in S:
        return VerificationResult(False, "base element missing from the set", (cert.base,))
    ident = G.identity()
    if ident in S:
        return VerificationResult(False, "identity element in the set", (ident,))
    if cert.base == ident:
        return VerificationResult(False, "base element is the identity", (ident,))
    for h in _sampled_conjugators(G, sample_radius, sample_count, seed):
        for s in S:
            c = G.conjugate(s, h)
            if c not in S:
                return VerificationResult(
                    False, "set not closed under a sampled conjugator", (s, h, c)
                )
    return VerificationResult(True)


def verify_infinite_certificate(
    G: WreathProduct, cert: InfiniteFamilyCertificate, N: int = 100
) -> VerificationResult:
    """Recompute and compare the first N deduped conjugates; they must be
    pairwise distinct and consistent with their recorded conjugators."""
    if N < 2:
        raise PreconditionError("N must be at least 2")
    try:
        prefix = cert.take(N)
    except (CertificateBudget, WriccError) as e:
        return VerificationResult(False, f"stream failed: {e}")
    if len(prefix) < N:
        return VerificationResult(False, f"stream exhausted after {len(prefix)} members")
    seen = {}
    for h, conj in prefix:
        again = G.conjugate(cert.base, h)
        if again != conj:
            return VerificationResult(
                False, "recorded conjugate does not match recomputation", (h, conj, again)
            )
        if conj in seen:
            return VerificationResult(
                False, "duplicate conjugate in the prefix", (seen[conj], h, conj)
            )
        seen[conj] = h
    return VerificationResult(True)
