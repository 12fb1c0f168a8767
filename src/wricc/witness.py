"""Machine-checkable certificates for icc verdicts.

Non-icc verdicts get a finite conjugation-invariant set of nontrivial
elements.  An explicit set (condition (i)) is checked exactly: closed
under conjugation by every generator of G.  The finite-orbit set S(O, xi)
is a value, its data the orbit O and the value set xi; it is checked by
the two premises of its invariance lemma (see `OrbitMaps`), without
listing its (|xi|+1)^|O| - 1 members.  Icc verdicts get an infinite
family of conjugators with pairwise distinct conjugates, as data: a
kind, a base, a point and a seed.  Each kind is one row of `_KINDS`:
the premise of its distinctness lemma, whether it takes a point and a
seed, and the conjugators the lemma walks.  A family is fitted to its
row when it is made, and nothing that draws from it or verifies it
checks it again.  The dispatcher mirrors the case analysis of the
criterion's proof.

A conjugator is valid as it is built: from ball elements that
`Group.ball_stream` validated, or by the group's arithmetic from a
valid start; a seeded one is validated once per member.  The verifier
trusts `members` for validity, as it trusts the arithmetic, and checks
against products every conjugate: built from the lemma's closed form for
g_d and lambda-translation, whose base is conjugated by its seed once,
read off the class walk for the other kinds.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from typing import NamedTuple

from . import groups
from .errors import CertificateBudget, PreconditionError, WriccError
from .groups import finite_class
from .tri import Tri
from .wreath import WreathElement, WreathProduct, support

# sizes of more bits are printed as a bound: by default Python, and so
# `json`, refuses to convert an int of more than 4,300 digits to a string
_PRINTED_SIZE_BITS = 128


def format_size(n: int) -> int | str:
    """n itself, or a lower bound in words when n is too long to print."""
    return n if n.bit_length() <= _PRINTED_SIZE_BITS else f"at least 2^{n.bit_length() - 1}"


class OrbitMaps:
    """S(O, xi): every (phi, 1) with phi != eps, its support inside a
    finite orbit O and its values in a finite set xi of nontrivial
    elements of D.  It is a value: the group, O and xi are its data, which
    `==` and `hash` read without listing a member.  It owns its size, read
    off the formula (|xi|+1)^|O| - 1, a membership test in O(|supp phi|)
    and its listing, which builds each map canonical with no sort, one at
    a time, so a reader takes as many as it needs.

    Invariance lemma.  Let O be closed under every generator of Q, and xi
    under conjugation by every generator of D.  Then S(O, xi) is closed
    under conjugation by every generator of G, so it is G-invariant.
    Every member has q = 1, and so does each conjugate.  Conjugation by
    (eps, s) moves the support by s^-1, inside O.  Conjugation by zeta_d
    at y changes only the value at y: it sends x to d^-1 x d, in
    d^-1 xi d, which is inside xi (and e stays e).  A finite set that is
    closed under an injective map is also closed under that map's
    inverse, and the generators generate G.
    """

    def __init__(self, group: WreathProduct, orbit, xi):
        """Refuse data that is not S(O, xi) of some O and xi, before the
        size is read: O must be a nonempty tuple of distinct valid points,
        xi a nonempty set of valid nontrivial elements of D (a validation
        error keeps its type).  That O and xi are closed is the lemma's
        premise, which the verifier checks (`_verify_orbit_maps`)."""
        self.group = group
        self.orbit = tuple(orbit)
        if not self.orbit:
            raise PreconditionError("the orbit O is empty")
        for y in self.orbit:
            group.omega.validate_point(y)
        self.points = frozenset(self.orbit)
        if len(self.points) != len(self.orbit):
            raise PreconditionError("the orbit lists a point twice")
        self.xi = frozenset(xi)
        if not self.xi or group.D.identity() in self.xi:
            raise PreconditionError("xi must be a nonempty set of nontrivial elements")
        for x in self.xi:
            group.D.validate(x)
        self.size = (len(self.xi) + 1) ** len(self.orbit) - 1
        self.formula = f"({len(self.xi)}+1)^{len(self.orbit)} - 1"
        self._one = group.Q.identity()

    def __eq__(self, other):
        if not isinstance(other, OrbitMaps):
            return NotImplemented
        return (self.group, self.orbit, self.xi) == (other.group, other.orbit, other.xi)

    def __hash__(self):
        return hash((self.group, self.orbit, self.xi))

    def first(self) -> WreathElement:
        """The certificate's base, found without listing: the last point of
        O, in the order O was given, carrying the least value of xi."""
        d = min(self.xi, key=self.group.D.sort_key)
        return WreathElement(((self.orbit[-1], d),), self._one)

    def __contains__(self, x) -> bool:
        """q = 1, phi nonempty and canonical, every point in O and every
        value in xi."""
        if not isinstance(x, tuple):
            return False
        try:
            phi, q = x
            if q != self._one or type(phi) is not tuple or not phi:
                return False
            points, xi = self.points, self.xi
            for y, d in phi:
                if y not in points or d not in xi:
                    return False
        except (TypeError, ValueError):  # not a pair (phi, q) of that shape
            return False
        key = self.group.omega.point_key
        keys = [key(y) for y, _ in phi]
        return all(a < b for a, b in zip(keys, keys[1:]))

    def __iter__(self):
        """The members in the group's `sort_key` order, built as they are
        read: a depth-first walk over O in `point_key` order, each point
        taking xi in `sort_key` order, so that a map comes before its
        extensions."""
        one = self._one
        pts = sorted(self.orbit, key=self.group.omega.point_key)
        values = sorted(self.xi, key=self.group.D.sort_key)

        def walk(start, items):
            for i in range(start, len(pts)):
                for d in values:
                    grown = (*items, (pts[i], d))
                    yield WreathElement(grown, one)
                    yield from walk(i + 1, grown)

        return walk(0, ())

    def __repr__(self):
        return f"OrbitMaps(|O|={len(self.orbit)}, |xi|={len(self.xi)})"


class FiniteClassCertificate(NamedTuple):
    base: WreathElement
    elements: frozenset | OrbitMaps
    provenance: str  # "condition-i" | "finite-orbit"
    size_formula: str

    @property
    def size(self) -> int:
        """The number of members; S(O, xi) reads it off its formula."""
        S = self.elements
        return S.size if isinstance(S, OrbitMaps) else len(S)


class VerificationResult(NamedTuple):
    ok: bool
    reason: str = "ok"
    counterexample: tuple | None = None

    def __bool__(self):
        return self.ok


class _Family(NamedTuple):
    group: WreathProduct
    base: WreathElement
    family_kind: str
    point: object = None
    seed_conjugator: WreathElement | None = None


class InfiniteFamilyCertificate(_Family):
    """An infinite family of conjugators with pairwise-distinct conjugates,
    which its `family_kind` fixes (`_KINDS`).  Each `members` call starts a
    new walk, so prefixes are restartable and deterministic.  Families
    compare and hash by their data.  Every way of making one, `_replace`
    and `_make` too, runs `_check`."""

    __slots__ = ()

    def __new__(cls, group, base, family_kind, point=None, seed_conjugator=None):
        self = super().__new__(cls, group, base, family_kind, point, seed_conjugator)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # a NamedTuple's `_make`, which `_replace` calls, skips `__new__`
        return cls(*iterable)

    def _check(self):
        """Refuse a family that does not fit its kind.  In order: an
        unknown kind; a base, seed or point that fails validation (the
        error keeps its type); a seed the kind does not take, then a
        missing or an extra point; the premise.  The message is
        `premise: <kind>: <reason>`."""
        G, kind, g = self.group, self.family_kind, self.base
        y, seed = self.point, self.seed_conjugator
        if kind not in _KINDS:
            raise PreconditionError(f"premise: {kind}: unknown family kind")
        premise, point, seeded = _KINDS[kind][:3]
        try:
            G.validate(g)
            if seed is not None:
                G.validate(seed)
            if y is not None:
                G.omega.validate_point(y)
        except WriccError as e:
            raise type(e)(f"premise: {kind}: {e}") from None
        if seed is not None and not seeded:
            reason = "takes no seed"
        elif (y is None) == point:
            reason = "needs a point" if point else "takes no point"
        else:
            reason = premise(G, g, y, seed)
        if reason is not None:
            raise PreconditionError(f"premise: {kind}: {reason}")

    def members(self, count: int):
        """Yield the first `count` pairs (conjugator, conjugate), each valid
        and conjugated or walked as its kind does (see the module
        docstring).  The kind's lemma makes the conjugates distinct, so a
        repeat is a fault."""
        check_prefix(count)
        kind = self.family_kind
        # one hash per conjugate: it is fresh iff adding it grows the set
        seen = set()
        add = seen.add
        conjugators = _KINDS[kind][3]
        for h, conj in conjugators(self.group, self.base, self.point, self.seed_conjugator):
            n = len(seen)
            add(conj)
            if len(seen) == n:
                raise WriccError(f"{kind}: unexpected duplicate conjugate")
            yield (h, conj)
            if n + 1 == count:
                return
        raise CertificateBudget(f"{kind}: conjugator stream exhausted after {len(seen)} members")

    def take(self, count: int):
        """The first `count` members."""
        return list(self.members(count))


def check_prefix(count: int) -> None:
    """Refuse a prefix of no member, or of more members than the listing
    cap, before any member is built."""
    if count < 1:
        raise PreconditionError("a certificate prefix needs at least 1 member")
    if count > groups._FINITE_SET_CAP:
        raise CertificateBudget(
            f"a certificate prefix of more than {groups._FINITE_SET_CAP} members"
        )


# ---------------------------------------------------------------------------
# finite certificates
# ---------------------------------------------------------------------------


def cert_condition_i(G: WreathProduct, q0) -> FiniteClassCertificate:
    """The finite invariant set {(eps, x) : x conjugate to q0 in Q} for a
    nontrivial FC-element q0 of Q fixing the carrier pointwise.  q0 in
    FC(Q) makes the class finite, so it is closed exactly, up to the
    listing cap (`finite_class`)."""
    Q = G.Q
    Q.validate(q0)
    if q0 == Q.identity():
        raise PreconditionError("q0 must be nontrivial")
    if not Q.fc_contains(q0):
        raise PreconditionError("q0 must lie in FC(Q)")
    if G.omega.fixes_all_points(q0) is Tri.NO:
        raise PreconditionError("q0 must fix the carrier pointwise")
    elems = frozenset(WreathElement((), x) for x in finite_class(Q, q0, "q0"))
    return FiniteClassCertificate(
        base=WreathElement((), q0),
        elements=elems,
        provenance="condition-i",
        size_formula=f"|q0^Q| = {len(elems)}",
    )


def cert_finite_orbit(G: WreathProduct) -> FiniteClassCertificate:
    """S(O, xi) for the carrier's finite orbit O and the base's finite
    invariant set xi, as data (`OrbitMaps`): nothing is listed, so no size
    is too large.  Other data make an `OrbitMaps` directly, and the
    verifier (`_verify_orbit_maps`) names the premise that they fail."""
    xi = G.D.finite_invariant_set_example()
    orbit = G.omega.finite_orbit_example()
    if orbit is None:
        raise PreconditionError("no finite orbit available")
    S = OrbitMaps(G, orbit, xi)
    formula = f"(|xi|+1)^|O| - 1 = {S.formula}"
    if S.size.bit_length() <= _PRINTED_SIZE_BITS:
        formula += f" = {S.size}"
    return FiniteClassCertificate(
        base=S.first(),
        elements=S,
        provenance="finite-orbit",
        size_formula=formula,
    )


# ---------------------------------------------------------------------------
# infinite families
# ---------------------------------------------------------------------------


def _class_walk(G: WreathProduct, g: WreathElement, y, seed):
    """(h, h^-1 g h) for h = (eps, c), c walking q's class in Q or, at a
    point y, h = (zeta(c, y), 1), c walking phi(y)'s class in D, in
    `class_closure`'s order.  The start's c is 1; a member reached from z
    by the move (s, s^-1) is v = s^-1 z s = c^-1 x c for c z's times s:
    one product per member, each once, so the conjugates are distinct and
    read off v: (lambda(c^-1) phi, v), moved by `_move`, or phi with v at y."""
    new, phi, one = tuple.__new__, g.phi, G.Q.identity()
    if y is None:
        H, x, inv, move = G.Q, g.q, G.Q._inverse, G._move

        def member(c, v):
            return new(WreathElement, ((), c)), new(WreathElement, (move(phi, inv(c)), v))
    else:
        H, x, zeta = G.D, G._map_value(phi, y), G._zeta
        i = support(phi).index(y)
        head, tail = phi[:i], phi[i + 1:]

        def member(c, v):
            h = new(WreathElement, (zeta(c, y), one))
            return h, new(WreathElement, (head + ((y, v),) + tail, one))
    bfs = groups.class_closure(H, x)
    reached, mul = bfs.reached, H._multiply
    by = {x: H.identity()}
    yield member(by[x], x)
    for fresh in bfs:
        for v in fresh:
            z, (s, _) = reached[v]
            c = by[v] = mul(by[z], s)
            yield member(c, v)


def _q_translation(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators (eps, c), c walking q's class in Q.  Premise: q is not
    in FC(Q).  Lemma: the acting part of the conjugate is c^-1 q c, a new
    member of q's class each time, which the premise makes infinite."""
    return "q lies in FC(Q)" if G.Q.fc_contains(g.q) else None


def _lambda_translation(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators s * (eps, q) for q in Q's ball, s the seed if any,
    skipping each whose conjugate's support repeats an earlier one.
    Premise: s^-1 g s has phi != eps and a support point in an infinite
    orbit.  Lemma: the supports are the translates of that finite support,
    infinitely many.  The skips need no budget: infinite orbits lie only
    on regular parts, where Q acts freely, so at most |supp| elements of
    Q fix a support as a set, and each support recurs at most that often."""
    if seed is not None:
        g = G._conjugate(g, seed)
    if not g.phi:
        return "phi = eps after the seed"
    if not any(G.omega._orbit_infinite(x) is Tri.YES for x in support(g.phi)):
        return "no support point lies in a known-infinite orbit"
    return None


def _lambda_conjugators(G: WreathProduct, g: WreathElement, y, seed):
    """The lemma's members: for g' = s^-1 g s = (phi', q'), conjugated
    once, the conjugate by s * (eps, c) = (s.phi, s.q c) is
    (lambda(c^-1) phi', c^-1 q' c); a seeded conjugator is validated."""
    new, move, validate = tuple.__new__, G._move, G.validate
    qmul, qinv = G.Q._multiply, G.Q._inverse
    phi, q = g if seed is None else G._conjugate(g, seed)
    supports = set()
    for c in G.Q.ball_stream():
        cinv = qinv(c)
        f = move(phi, cinv)
        key = support(f)
        if key not in supports:
            supports.add(key)
            h = new(WreathElement, ((), c) if seed is None else (seed.phi, qmul(seed.q, c)))
            if seed is not None:
                validate(h)
            yield h, new(WreathElement, (f, qmul(qmul(cinv, q), c)))


def _gd(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators (zeta(d, y), 1) for d in D's ball.  Premise: D is
    infinite and q moves y.  Lemma: the conjugate is phi with d^-1 phi(y)
    at y and phi(q.y) d at q.y != y, a new one for each d."""
    if G.D.is_finite:
        return "D is finite"
    return "q fixes the point" if G.omega._act(g.q, y) == y else None


def _gd_conjugators(G: WreathProduct, g: WreathElement, y, seed):
    """The lemma's members, spliced: phi without y and q.y is cut into
    slices A, B, C at the two points' canonical places, and the conjugate
    by (zeta(d, y), 1) is A, u = d^-1 phi(y) at y, B, w = phi(q.y) d at
    q.y, C, the two points in their order and a value e left out: no
    `_conjugate`, dict or sort.  The verifier checks it by products."""
    D, phi, q = G.D, g.phi, g.q
    qy, key = G.omega._act(q, y), G._item_key
    c, b = G._map_value(phi, y), G._map_value(phi, qy)
    rest = tuple(item for item in phi if item[0] != y and item[0] != qy)
    ky, kqy = key((y, c)), key((qy, b))
    swap = kqy < ky
    lo, hi = sorted(bisect_left(rest, k, key=key) for k in (ky, kqy))
    A, B, C = rest[:lo], rest[lo:hi], rest[hi:]
    new, one, e, zeta = tuple.__new__, G.Q.identity(), D.identity(), G._zeta
    mul, inv = D._multiply, D._inverse
    for d in D.ball_stream():
        u, w = mul(inv(d), c), mul(b, d)
        U = ((y, u),) if u != e else ()
        W = ((qy, w),) if w != e else ()
        f = (A + W + B + U + C) if swap else (A + U + B + W + C)
        yield new(WreathElement, (zeta(d, y), one)), new(WreathElement, (f, q))


def _value_conjugation(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators (zeta(d, y), 1), d walking phi(y)'s class in D.  Premise:
    D is icc, q = 1 and y is in supp phi.  Lemma: the conjugate changes
    only phi(y), to d^-1 phi(y) d, each time a new member of its class."""
    if g.q != G.Q.identity():
        return "q != 1"
    if y not in support(g.phi):
        return "the point is not in supp phi"
    if G.D.icc_status().answer is not Tri.YES:
        return "D is not known to be icc"
    return None


# kind -> (premise, needs a point, may take a seed, conjugators).  A
# premise reads a base, point and seed that the family's construction
# validated and fitted to the row, and returns the reason it fails on G,
# or None; its docstring states the lemma.  The conjugators yield the
# pairs (h, h^-1 g h): walked, or built from the lemma.
_KINDS = {
    "q-translation": (_q_translation, False, False, _class_walk),
    "lambda-translation": (_lambda_translation, False, True, _lambda_conjugators),
    "g_d": (_gd, True, False, _gd_conjugators),
    "value-conjugation": (_value_conjugation, True, False, _class_walk),
}


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def find_moved_point(G: WreathProduct, q):
    """First carrier point (in stream order) not fixed by q, which the
    kernel rule must say moves one: the stream reaches every point."""
    if G.omega.fixes_all_points(q) is not Tri.NO:
        raise PreconditionError("q must move a carrier point")
    act = G.omega._act
    for y in G.omega.points_stream():
        if act(q, y) != y:
            return y


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
        return InfiniteFamilyCertificate(G, g, "q-translation")
    if verdict.cond_iii is Tri.YES:
        if g.phi:
            return InfiniteFamilyCertificate(G, g, "lambda-translation")
        # phi = eps, q in FC(Q) and q != 1: seed with (zeta_d^y, 1) where
        # q moves y, which gives the support {y, q.y}, then translate it
        y = find_moved_point(G, q)
        seed = WreathElement(G.zeta(G.D.first_nontrivial(), y), G.Q.identity())
        return InfiniteFamilyCertificate(G, g, "lambda-translation", seed_conjugator=seed)
    if verdict.cond_ii is Tri.YES:
        if q != G.Q.identity():
            return InfiniteFamilyCertificate(G, g, "g_d", find_moved_point(G, q))
        return InfiniteFamilyCertificate(G, g, "value-conjugation", g.phi[0][0])
    raise PreconditionError("verdict does not match any certificate construction")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_finite_certificate(
    G: WreathProduct, cert: FiniteClassCertificate
) -> VerificationResult:
    """S(O, xi) is checked by the premises of its invariance lemma (see
    `OrbitMaps`), in O(|O| |Q gens| + |xi| |D gens|).

    An explicit set is checked by exact closure: conjugating every member
    by every generator of G must land in the set.  That proves
    G-invariance: conjugation by s is injective, so it maps a finite set
    closed under it onto the set, and so does its inverse; the generators
    generate G.  Each member is validated once, a member that fails named,
    and the |gens| * |S| conjugations trust them and the generators, which
    `zeta` built."""
    S = cert.elements
    if isinstance(S, OrbitMaps):
        return _verify_orbit_maps(G, S, cert.base)
    if not S:
        return VerificationResult(False, "certificate set is empty")
    if cert.base not in S:
        return VerificationResult(False, "base element missing from the set", (cert.base,))
    ident = G.identity()
    if ident in S:
        return VerificationResult(False, "identity element in the set", (ident,))
    for x in S:
        try:
            G.validate(x)
        except WriccError:
            return VerificationResult(False, f"set holds {x!r}, not an element of G", (x,))
    conj = G._conjugate
    for s in G.generators:
        for x in S:
            c = conj(x, s)
            if c not in S:
                return VerificationResult(
                    False,
                    f"set not closed under conjugation by the generator {G.format_element(s)}",
                    (x, s, c),
                )
    return VerificationResult(True)


def _verify_orbit_maps(G: WreathProduct, S: OrbitMaps, base) -> VerificationResult:
    """The premises of the invariance lemma, each failure named: O is
    closed under every generator of Q, and xi under conjugation by every
    generator of D.  Then the base must be a member.  That O and xi are
    nonempty and valid, and that e is not in xi, `OrbitMaps` checked when
    S was made."""
    if S.group != G:
        return VerificationResult(False, "certificate is over another group")
    Q, D = G.Q, G.D
    act = G.omega._act
    for s in Q.generators:
        for y in S.orbit:
            z = act(s, y)
            if z not in S.points:
                return VerificationResult(
                    False,
                    f"orbit O not closed under the generator {Q.format_element(s)} of Q",
                    (y, s, z),
                )
    values = sorted(S.xi, key=D.sort_key)
    for t in D.generators:
        for x in values:
            c = D._conjugate(x, t)
            if c not in S.xi:
                return VerificationResult(
                    False,
                    f"xi not closed under conjugation by the generator {D.format_element(t)} of D",
                    (x, t, c),
                )
    if base not in S:
        return VerificationResult(False, "base element missing from the set", (base,))
    return VerificationResult(True)


def verify_infinite_certificate(
    G: WreathProduct, cert: InfiniteFamilyCertificate, N: int = 100
) -> VerificationResult:
    """The first N members, drawn through `members`: pairwise distinct
    conjugates, each consistent with its recorded conjugator.  The premise
    was checked when the family was made, and the conjugators' validity
    is trusted (see the module docstring).  Each conjugate is recomputed
    from the product definition h^-1 * base * h, not with `_conjugate` or
    the walk that `members` used, so every member also checks those;
    it is compared as stored.  The inverse-free test h * conj == base * h
    would not do: the product canonicalises conj, so it would accept an
    unsorted map, which the distinctness test could count twice.

    The cyclic garbage collector is paused while the prefix is drawn and
    checked, and the caller's setting is restored on every return and
    exception.  Members, conjugators and products are tuples that hold no
    reference cycle, so reference counting frees them; the collector would
    only rescan the prefix, about three tracked objects per member, and
    free nothing.  The pause is process-wide while the call runs, and
    `wricc` starts no thread."""
    if N < 2:
        raise PreconditionError("N must be at least 2")
    check_prefix(N)
    if cert.group != G:
        return VerificationResult(False, "certificate is over another group")
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            prefix = list(cert.members(N))
        except WriccError as e:
            return VerificationResult(False, f"stream failed: {e}")
        if len(prefix) < N:
            return VerificationResult(False, f"stream exhausted after {len(prefix)} members")
        base = cert.base
        mul, inv = G._multiply, G._inverse
        # one hash per conjugate: it is fresh iff setdefault grows the dict
        seen = {}
        for i, (h, conj) in enumerate(prefix):
            again = mul(mul(inv(h), base), h)
            if again != conj:
                return VerificationResult(
                    False, "recorded conjugate does not match recomputation", (h, conj, again)
                )
            first = seen.setdefault(conj, h)
            if len(seen) == i:
                return VerificationResult(
                    False, "duplicate conjugate in the prefix", (first, h, conj)
                )
        return VerificationResult(True)
    finally:
        if enabled:
            gc.enable()
