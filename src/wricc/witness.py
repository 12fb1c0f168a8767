"""Machine-checkable certificates for icc verdicts.

Non-icc verdicts get a finite conjugation-invariant set of nontrivial
elements.  An explicit set (condition (i)) is checked exactly: closed
under conjugation by every generator of G.  The finite-orbit set S(O, xi)
is a value, its data the orbit O and the value set xi; it is checked by
the two premises of its invariance lemma (see `OrbitMaps`), without
listing its (|xi|+1)^|O| - 1 members.  Icc verdicts get an infinite
family of conjugators with pairwise distinct conjugates, as data: a
kind, a base, a point and a seed.  Each kind is one row of
`_KINDS`: whether it takes a point and a seed, the premise that makes
the family infinite (its distinctness lemma's hypothesis), the key that
tells its conjugates apart and, for g_d, a closed form.  A family is
fitted to its row when it is made, so one that does not fit cannot be
built, and nothing that draws from it or verifies it checks it again.
The dispatcher mirrors the case analysis of the criterion's proof.

A conjugator is validated where it is built: its ball element by
`Group.ball_stream`, once per handle; a seeded conjugator by `members`,
once per member.  The verifier trusts `members` for validity, as it
trusts the group's arithmetic, and checks every conjugate it yields
against products.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from . import groups
from .errors import CertificateBudget, PreconditionError, WriccError
from .groups import finite_class
from .tri import Tri
from .wreath import WreathElement, WreathProduct, support

# sizes of more bits are written without their value; by default Python
# refuses to convert an int of more than 4,300 digits to a string
_PRINTED_SIZE_BITS = 128
# conjugators an infinite family may draw in a row without a fresh conjugate
_SEARCH_BUDGET = 20000


def format_size(n: int) -> str:
    """n in decimal, or a lower bound when n is too long to print."""
    return str(n) if n.bit_length() <= _PRINTED_SIZE_BITS else f"at least 2^{n.bit_length() - 1}"


class OrbitMaps:
    """S(O, xi): every (phi, 1) with phi != eps, its support inside a
    finite orbit O and its values in a finite set xi of nontrivial
    elements of D.  It is a value: the group, O and xi are its data, which
    `==` and `hash` read without listing a member.  It owns its size, read
    off the formula (|xi|+1)^|O| - 1, a membership test in O(|supp phi|)
    and its listing, which refuses more than `groups._FINITE_SET_CAP`
    members before it builds one.

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
        return WreathElement(self.group._canon([(self.orbit[-1], d)]), self._one)

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
        """The members in the group's `sort_key` order, refused past the cap
        before any is built: a depth-first walk over O in `point_key` order,
        each point taking xi in `sort_key` order, so that a map comes
        before its extensions."""
        if self.size > groups._FINITE_SET_CAP:
            raise CertificateBudget(
                f"certificate would have {self.formula} elements, "
                f"more than {groups._FINITE_SET_CAP}"
            )
        one, canon = self._one, self.group._canon
        pts = sorted(self.orbit, key=self.group.omega.point_key)
        values = sorted(self.xi, key=self.group.D.sort_key)

        def walk(start, items):
            for i in range(start, len(pts)):
                for d in values:
                    grown = [*items, (pts[i], d)]
                    yield WreathElement(canon(grown), one)
                    yield from walk(i + 1, grown)

        return walk(0, ())

    def __repr__(self):
        return f"OrbitMaps(|O|={len(self.orbit)}, |xi|={len(self.xi)})"


@dataclass(frozen=True)
class FiniteClassCertificate:
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


@dataclass(frozen=True)
class InfiniteFamilyCertificate:
    """An infinite family of conjugators with pairwise-distinct conjugates.
    Without a `point` the conjugators are (eps, q) for q in Q's ball
    stream; with one they are (zeta(d, point), 1) for d in D's.  A
    `seed_conjugator` s turns each conjugator h into s * h.  The
    `family_kind` fixes the rest (`_KINDS`).  Each `members` call starts
    a new `Group.ball_stream`, so prefixes are restartable and
    deterministic.  Families compare and hash by their data."""

    group: WreathProduct
    base: WreathElement
    family_kind: str
    point: object = None
    seed_conjugator: WreathElement | None = None

    def __post_init__(self):
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
        """Yield up to `count` pairs (conjugator, conjugate), skipping a
        conjugate whose key an earlier one has.  Every conjugator yielded
        is valid: an unseeded one, (eps, q) or (zeta(d, y), 1), is built
        from a ball element that `Group.ball_stream` validated, the point
        and Q's identity; a seeded one, s * h, is validated as it is
        built."""
        check_prefix(count)
        kind = self.family_kind
        G, g, seed, y = self.group, self.base, self.seed_conjugator, self.point
        key_of, formula_of = _KINDS[kind][3:]
        # each conjugator is built in C, as the wreath kernels build
        new = tuple.__new__
        if y is None:
            hs = (new(WreathElement, ((), q)) for q in G.Q.ball_stream())
        else:
            one, zeta = G.Q.identity(), G._zeta
            hs = (new(WreathElement, (zeta(d, y), one)) for d in G.D.ball_stream())
        if seed is not None:
            hs = _validated_products(G, seed, hs)
        key = key_of(G, y) if key_of else None
        formula = formula_of(G, g, y) if formula_of else None
        conjugate = G._conjugate
        # one hash per conjugate: a key is fresh iff adding it grows the set
        seen = set()
        add = seen.add
        emitted = skipped = 0
        for h in hs:
            conj = conjugate(g, h)
            if formula is not None and formula(h) != conj:
                raise WriccError(f"{kind}: closed form disagrees with conjugation")
            add(key(conj) if key is not None else conj)
            if len(seen) == emitted:
                if key is None:
                    raise WriccError(f"{kind}: unexpected duplicate conjugate")
                skipped += 1
                if skipped > _SEARCH_BUDGET:
                    raise CertificateBudget(f"{kind}: no fresh conjugate in {_SEARCH_BUDGET} draws")
                continue
            skipped = 0
            yield (h, conj)
            emitted += 1
            if emitted >= count:
                return
        raise CertificateBudget(f"{kind}: conjugator stream exhausted after {emitted} members")

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


def _validated_products(G: WreathProduct, s: WreathElement, hs):
    """s * h for each h of `hs`, each validated as it is built."""
    multiply, validate = G._multiply, G.validate
    for h in hs:
        sh = multiply(s, h)
        validate(sh)
        yield sh


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


def cert_finite_orbit(G: WreathProduct, xi=None, orbit=None) -> FiniteClassCertificate:
    """S(O, xi) for a finite orbit O and a finite invariant subset xi of
    the base, as data (`OrbitMaps`, which validates O and xi): nothing is
    listed, so no size is too large.  That O is closed under the action is
    the verifier's check (`_verify_orbit_maps`), which names the failure."""
    if xi is None:
        xi = G.D.finite_invariant_set_example()
    if orbit is None:
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


def _q_translation(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators (eps, q_n).  Premise: q is not in FC(Q).  Lemma: the
    acting part of the conjugate, q_n^-1 q q_n, runs through q's class in
    Q, which the premise makes infinite."""
    return "q lies in FC(Q)" if G.Q.fc_contains(g.q) else None


def _lambda_translation(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators s * (eps, q_n), s the seed if any.  Premise: s^-1 g s
    has phi != eps and a support point in an infinite orbit.  Lemma: the
    conjugates' supports are the translates of that finite support,
    infinitely many when it meets an infinite orbit."""
    if seed is not None:
        g = G._conjugate(g, seed)
    if not g.phi:
        return "phi = eps after the seed"
    if not any(G.omega._orbit_infinite(x) is Tri.YES for x in support(g.phi)):
        return "no support point lies in a known-infinite orbit"
    return None


def _gd(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators (zeta(d, y), 1).  Premise: D is infinite and q moves y.
    Lemma: the conjugate is phi with d^-1 phi(y) at y and phi(q.y) d at
    q.y != y, so each of D's infinitely many d gives a new conjugate, and
    a repeat is a fault."""
    if G.D.is_finite:
        return "D is finite"
    return "q fixes the point" if G.omega._act(g.q, y) == y else None


def _gd_formula(G: WreathProduct, g: WreathElement, y):
    """The g_d lemma's member for the conjugator (zeta(d, y), 1), on D's
    unchecked arithmetic: g and y are valid and d comes from D's ball.
    The group's `_canon` makes the map canonical."""
    D, phi, q = G.D, g.phi, g.q
    c, qy, e = G._map_value(phi, y), G.omega._act(q, y), D.identity()
    dmul, dinv, canon, new = D._multiply, D._inverse, G._canon, tuple.__new__

    def formula(h: WreathElement) -> WreathElement:
        d = h.phi[0][1] if h.phi else e
        acc = dict(phi)
        acc[y] = dmul(dinv(d), c)
        acc[qy] = dmul(acc[qy], d) if qy in acc else d
        return new(WreathElement, (canon(acc.items()), q))

    return formula


def _value_conjugation(G: WreathProduct, g: WreathElement, y, seed) -> str | None:
    """Conjugators (zeta(d, y), 1).  Premise: D is icc, q = 1 and y is in
    supp phi.  Lemma: the conjugate changes only the value at y, to
    d^-1 phi(y) d, which runs through the infinite class of phi(y)."""
    if g.q != G.Q.identity():
        return "q != 1"
    if y not in support(g.phi):
        return "the point is not in supp phi"
    if G.D.icc_status().answer is not Tri.YES:
        return "D is not known to be icc"
    return None


# kind -> (premise, needs a point, may take a seed, key, closed form).  A
# premise reads a base, point and seed that the family's construction
# validated and fitted to the row, and returns the reason it fails on G,
# or None; its docstring states the lemma.  key(G, y) tells conjugates apart (None: a repeat is a
# fault), and formula(G, g, y) checks each member (g_d only).
_KINDS = {
    "q-translation": (_q_translation, False, False, lambda G, y: itemgetter(1), None),
    "lambda-translation": (
        _lambda_translation, False, True, lambda G, y: lambda c: support(c.phi), None
    ),
    "g_d": (_gd, True, False, None, _gd_formula),
    "value-conjugation": (
        _value_conjugation, True, False, lambda G, y: lambda c: G._map_value(c.phi, y), None
    ),
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
    """The first N deduped conjugates, drawn through `members`: pairwise
    distinct and consistent with their recorded conjugators.  The premise
    that makes the family infinite is not evaluated here: the family was
    checked against its kind when it was made.

    The conjugators are not validated again: the verifier trusts `members`
    for their validity (the ball stream and `members` validate them as
    they are built), as it trusts the group's arithmetic.  Each conjugate
    is recomputed from the product definition h^-1 * base * h, not with
    `_conjugate`, which `members` used: so every member also checks the
    conjugation law against products.  The recorded conjugate is compared
    with that canonical recomputation as stored.  The inverse-free test
    h * conj == base * h would not do: the product canonicalises conj, so
    it accepts conj with its map unsorted, and the distinctness test could
    then count one element twice."""
    if N < 2:
        raise PreconditionError("N must be at least 2")
    check_prefix(N)
    if cert.group != G:
        return VerificationResult(False, "certificate is over another group")
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
            return VerificationResult(False, "duplicate conjugate in the prefix", (first, h, conj))
    return VerificationResult(True)
