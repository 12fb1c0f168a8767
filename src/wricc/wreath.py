"""Exact arithmetic in the restricted wreath product of a base group over a
Q-set: finitely supported maps, the coordinate-permuting action, products,
inverses, conjugation, and a generating set: zeta_d at one point of each
orbit for every generator d of D, then the generators of Q.

A finitely supported map is stored canonically as a tuple of (point, value)
pairs sorted by the carrier's point order, never containing an identity
value.  An element is a `WreathElement`, a named tuple (phi, q), so that
building, hashing and comparing elements runs in C.  All values are
immutable and hashable.

The public `multiply`, `inverse` and `conjugate` (from `Group`) validate
each operand in depth once; `_multiply`, `_inverse` and `_conjugate` trust
their operands and call the unchecked arithmetic of D, Q and the carrier,
bound once per handle.  Each of the three moves each point by the
action, multiplies or inverts its value, sorts the result once, and
builds the element in C.  A map of fewer than two points is already
sorted, so it is not sorted again; two points that the action sends to
one are a `KindMismatch`.  The map a kernel moves (phi2, the inverted
phi, psi) nearly always has at most one point, as every generator, g_d
and seed conjugator has, so a map of one point is moved as one pair,
with no list and no collapse check: one point meets no other moved
point.  A product splices that pair into phi1 at the place `bisect_left`
finds for it: it replaces or deletes the value of a point of phi1, or
goes in as a new point, with no dict and no sort.  A longer map takes
the general path, and the collapse check lives in two places only: the
product merges phi1, its values on the left, into the dict that its
check builds, and the other kernels move the map with `_move`, which
checks and sorts it.  When the carrier declares that its points sort
natively (`QSet.native_order`), maps sort by the point itself, read in C
by `operator.itemgetter`, and by the carrier's `point_key` otherwise;
the integers' product and inverse are the C builtins `operator.add` and
`operator.neg`, and a regular carrier acts through Q's product with no
frame of its own.  Conjugation follows its own law, not the product of
three factors, so the certificate verifier and the oracle, which
recompute conjugates as products, check it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import itemgetter
from typing import NamedTuple

from . import groups
from ._parsing import split_top, strip_outer
from .errors import CertificateBudget, EmptyOmega, KindMismatch, ParseError, PreconditionError
from .errors import TrivialD, Unsupported, UnsupportedQKind
from .groups import Group, IccStatus
from .qsets import QSet
from .tri import Tri


_COLLAPSED = "duplicate support point: the action is not injective"


class WreathElement(NamedTuple):
    """A pair (phi, q): a finitely-supported map as a canonical tuple of
    (point, value) pairs, and an element of the acting group.  A bare
    tuple compares equal to it but is not an element: `validate` rejects
    it."""

    phi: tuple
    q: object


# builds a WreathElement in C, without the named tuple's Python-level __new__
_new = tuple.__new__


def support(f: tuple) -> tuple:
    """The support of a canonical finitely-supported map: its stored keys."""
    return tuple(map(itemgetter(0), f))


class WreathProduct(Group):
    """Handle for D wr_Omega Q, also usable in the D position of an
    enclosing wreath product (its FC element is its certificate's base).
    Every G is built here, so the criterion's hypotheses are checked here:
    D is nontrivial and the carrier nonempty.  A Q that holds a wreath
    product, which has no FC rule, at any depth is refused too."""

    is_trivial = False  # D != 1 at a point of a nonempty carrier

    def __init__(self, D: Group, Q: Group, omega: QSet):
        if omega.Q != Q:
            raise PreconditionError("omega must be a Q-set for the given Q")
        if "wreath" in Q.kind:  # a product's kind holds its factors' kinds
            raise UnsupportedQKind("wreath products cannot act, even as factors (no FC rule)")
        if D.is_trivial:
            raise TrivialD("D must be nontrivial")
        if next(iter(omega.points_stream()), None) is None:
            raise EmptyOmega("the carrier must be nonempty")
        self.D = D
        self.Q = Q
        self.omega = omega
        self.kind = f"wreath({D.kind}; {Q.kind}; {omega.carrier_kind})"
        self._e = D.identity()
        # the sort key of a (point, value) pair: the point itself, read in
        # C, when the carrier's points sort natively
        if omega.native_order:
            self._item_key = itemgetter(0)
        else:
            point_key = omega.point_key
            self._item_key = lambda yd: point_key(yd[0])
        # the unchecked arithmetic the kernels call, bound once
        self._act = omega._act
        self._dmul, self._dinv = D._multiply, D._inverse
        self._qmul, self._qinv = Q._multiply, Q._inverse

    # ---- canonical maps ---------------------------------------------------

    def _canon(self, items) -> tuple:
        e = self._e
        kept = [(y, d) for y, d in items if d != e]
        kept.sort(key=self._item_key)
        for (a, _), (b, _) in zip(kept, kept[1:]):
            if a == b:
                raise KindMismatch(f"duplicate support point {a!r}")
        return tuple(kept)

    def zeta(self, d, y) -> tuple:
        """The map sending y to d and everything else to the identity."""
        self.D.validate(d)
        self.omega.validate_point(y)
        return self._zeta(d, y)

    def _zeta(self, d, y) -> tuple:
        """`zeta` for a value and a point already validated."""
        return () if d == self._e else ((y, d),)

    def _map_value(self, f: tuple, y):
        """f(y) for a map the group built."""
        for p, d in f:
            if p == y:
                return d
        return self.D.identity()

    # ---- group interface ---------------------------------------------------

    def identity(self):
        return _new(WreathElement, ((), self.Q.identity()))

    def _multiply(self, g1: WreathElement, g2: WreathElement) -> WreathElement:
        """(phi1, q1)(phi2, q2) = (phi1 * lambda(q1) phi2, q1 q2), in one
        pass over phi2: each point is moved by q1 and its value multiplied
        into a copy of phi1.  Operands are canonical, so an empty map on
        either side needs no merge.  A phi2 of one point meets no other
        moved point, so it needs no collapse check: it is spliced into
        phi1 at its `bisect_left` place by the sort key, where it replaces
        or deletes the value of the same point or goes in as a new point,
        and phi1's order stands with no sort.  A longer phi2 keeps
        the dict its collapse check builds, and phi1 merges into it, its
        values on the left (D may be nonabelian)."""
        phi1, q1 = g1
        phi2, q2 = g2
        q = self._qmul(q1, q2)
        if not phi2:
            return _new(WreathElement, (phi1, q))
        act = self._act
        if len(phi2) == 1:
            ((y, d),) = phi2
            item = (act(q1, y), d)
            if not phi1:
                return _new(WreathElement, ((item,), q))
            key = self._item_key
            i = bisect_left(phi1, key(item), key=key)
            if i == len(phi1) or phi1[i][0] != item[0]:
                return _new(WreathElement, (phi1[:i] + (item,) + phi1[i:], q))
            d = self._dmul(phi1[i][1], d)
            if d == self._e:
                return _new(WreathElement, (phi1[:i] + phi1[i + 1 :], q))
            return _new(WreathElement, (phi1[:i] + ((item[0], d),) + phi1[i + 1 :], q))
        moved = [(act(q1, y), d) for y, d in phi2]
        acc = dict(moved)
        if len(acc) < len(moved):
            raise KindMismatch(_COLLAPSED)
        if phi1:
            mul, e = self._dmul, self._e
            for y, d in phi1:
                if y in acc:
                    d = mul(d, acc[y])
                    if d == e:
                        del acc[y]
                        continue
                acc[y] = d
            moved = list(acc.items())
        if len(moved) > 1:
            moved.sort(key=self._item_key)
        return _new(WreathElement, (tuple(moved), q))

    def _inverse(self, g: WreathElement) -> WreathElement:
        """(phi, q)^-1 = (lambda(q^-1) phi^-1, q^-1); a phi of one point
        is moved as one pair, a longer one by `_move`."""
        phi, q = g
        qinv = self._qinv(q)
        if not phi:
            return _new(WreathElement, ((), qinv))
        act, dinv = self._act, self._dinv
        if len(phi) == 1:
            ((y, d),) = phi
            return _new(WreathElement, (((act(qinv, y), dinv(d)),), qinv))
        return _new(WreathElement, (self._move([(y, dinv(d)) for y, d in phi], qinv), qinv))

    def _conjugate(self, x: WreathElement, y: WreathElement) -> WreathElement:
        """y^-1 x y for x = (phi, q) and y = (psi, p), in one pass over
        each map.  From y^-1 = (lambda(p^-1) psi^-1, p^-1) and the product
        law (phi1, q1)(phi2, q2) = (phi1 * lambda(q1) phi2, q1 q2):

            y^-1 x = (lambda(p^-1) psi^-1 * lambda(p^-1) phi, p^-1 q)
            y^-1 x y = (lambda(p^-1) psi^-1 * lambda(p^-1) phi
                        * lambda(p^-1 q) psi, p^-1 q p)
                     = (lambda(p^-1)[psi^-1 * phi * lambda(q) psi], p^-1 q p),

        as lambda is an action by automorphisms of the pointwise product.
        So the values are multiplied pointwise, left to right (D may be
        nonabelian), in one dict: psi^-1, then phi, then psi moved by q.
        A psi of one point is merged as one pair, with no collapse check,
        as it meets no other moved point of psi; a longer psi is moved by q
        with `_move`.  An empty psi leaves (lambda(p^-1) phi, p^-1 q p).
        Either map is moved by p^-1 with `_move`, which drops the
        identities and sorts once."""
        phi, q = x
        psi, p = y
        qmul = self._qmul
        pinv = self._qinv(p)
        r = qmul(qmul(pinv, q), p)
        if psi:
            act, dinv, mul = self._act, self._dinv, self._dmul
            if len(psi) == 1:
                ((w, c),) = psi
                acc = {w: dinv(c)}
                moved = ((act(q, w), c),)
            else:
                acc = {z: dinv(d) for z, d in psi}
                moved = self._move(psi, q)
            for z, d in phi:
                acc[z] = mul(acc[z], d) if z in acc else d
            for z, d in moved:
                acc[z] = mul(acc[z], d) if z in acc else d
            phi = acc.items()
        return _new(WreathElement, (self._move(phi, pinv), r))

    def _move(self, f, p) -> tuple:
        """lambda(p) f as a canonical map, for the pairs f of a map that may
        hold identities, which are dropped.  A map of one point is moved as
        one pair; two points that p sends to one are a `KindMismatch`."""
        act, e = self._act, self._e
        if len(f) == 1:
            ((z, d),) = f
            return ((act(p, z), d),) if d != e else ()
        moved = [(act(p, z), d) for z, d in f if d != e]
        if len(moved) > 1:
            if len(dict(moved)) < len(moved):
                raise KindMismatch(_COLLAPSED)
            moved.sort(key=self._item_key)
        return tuple(moved)

    def validate(self, x):
        if not isinstance(x, WreathElement):
            raise KindMismatch(f"{self.kind}: bad payload {x!r}")
        self.Q.validate(x.q)
        self._validate_map(x.phi)

    def _validate_map(self, phi):
        """Check that phi is a canonical map: sorted, valid entries, no
        stored identity."""
        if not isinstance(phi, tuple):
            raise KindMismatch(f"{self.kind}: phi must be a tuple")
        validate_point, validate_value = self.omega.validate_point, self.D.validate
        point_key, e = self.omega.point_key, self._e
        prev_key = None
        for item in phi:
            if not isinstance(item, tuple) or len(item) != 2:
                raise KindMismatch(f"{self.kind}: bad phi entry {item!r}")
            y, d = item
            validate_point(y)
            validate_value(d)
            if d == e:
                raise KindMismatch(f"{self.kind}: stored identity value at {y!r}")
            key = point_key(y)
            if prev_key is not None and not prev_key < key:
                raise KindMismatch(f"{self.kind}: phi keys not strictly sorted")
            prev_key = key

    @property
    def generators(self):
        """zeta(d, y) at each orbit representative y, for each generator d
        of D, then Q's generators.  They generate G: a map is a product of
        maps zeta(d, x) with d a generator, and of their inverses; and for
        x = q.y, zeta(d, x) = (eps, q) zeta(d, y) (eps, q)^-1, with (eps, q)
        a word in Q's generators.  A set of more than the listing cap is
        refused before anything is built."""
        reps, dgens = self.omega.orbit_representatives(), self.D.generators
        count = len(reps) * len(dgens) + len(self.Q.generators)
        if count > groups._FINITE_SET_CAP:
            raise CertificateBudget(
                f"{self.kind}: the generating set has {count} elements, "
                f"more than {groups._FINITE_SET_CAP}"
            )
        gens = [WreathElement(self.zeta(d, y), self.Q.identity()) for y in reps for d in dgens]
        gens += [WreathElement((), s) for s in self.Q.generators]
        return tuple(gens)

    @property
    def is_finite(self):
        return self.D.is_finite and self.Q.is_finite and self.omega.is_finite_carrier

    def order(self):
        if not self.is_finite:
            raise Unsupported("infinite wreath product has no order")
        npts = len(list(self.omega.points()))
        return self.D.order() ** npts * self.Q.order()

    def elements(self):
        """In sort_key order: the maps sorted, and for each map the acting
        parts in the order Q yields them."""
        if not self.is_finite:
            raise Unsupported("cannot enumerate an infinite wreath product")
        pts = sorted(self.omega.points(), key=self.omega.point_key)
        delems = list(self.D.elements())
        values = itertools.product(delems, repeat=len(pts))
        maps = sorted((self._canon(zip(pts, v)) for v in values), key=self._map_key)
        qelems = list(self.Q.elements())
        for phi in maps:
            for q in qelems:
                yield WreathElement(phi, q)

    def _map_key(self, phi: tuple):
        return tuple((self.omega.point_key(y), self.D.sort_key(d)) for y, d in phi)

    def sort_key(self, x: WreathElement):
        return (self._map_key(x.phi), self.Q.sort_key(x.q))

    # ---- property oracles ----------------------------------------------------

    def icc_status(self) -> IccStatus:
        from .decision import decide_icc

        v = decide_icc(self)
        return IccStatus(v.answer, "criterion-derived", v.reason)

    def fc_contains(self, x):
        raise Unsupported("no FC rule for wreath products used as acting groups")

    def fc_nontrivial_element(self):
        """On a No verdict, the base of the group's own certificate, which
        lies in a finite invariant set; on a Yes verdict FC is trivial."""
        from .decision import decide_icc
        from .witness import witness

        v = decide_icc(self)
        if v.answer is Tri.YES:
            return None
        if v.answer is Tri.UNKNOWN:
            raise Unsupported(f"{self.kind}: no FC element for an Unknown verdict")
        return witness(self, v).base

    # ---- streams / literals ----------------------------------------------------

    def random_element(self, rng):
        items = {}
        for _ in range(rng.randint(0, 2)):
            y = self.omega.random_point(rng)
            d = self.D.random_element(rng)
            for _ in range(8):
                if d != self.D.identity():
                    break
                d = self.D.random_element(rng)
            if d != self.D.identity():
                items[y] = d
        return WreathElement(self._canon(items.items()), self.Q.random_element(rng))

    def random_nontrivial_element(self, rng):
        for _ in range(64):
            g = self.random_element(rng)
            if g != self.identity():
                return g
        raise PreconditionError("could not sample a nontrivial element")

    def format_element(self, x):
        body = ", ".join(
            f"{self.omega.format_point(y)}:{self.D.format_element(d)}" for y, d in x.phi
        )
        return "{" + body + "}@" + self.Q.format_element(x.q)

    def parse_element(self, text):
        pieces = split_top(text.strip(), "@")
        if len(pieces) != 2:
            raise ParseError(f"wreath literal must look like {{y:d, ...}}@q: {text!r}")
        inner = strip_outer(pieces[0], "{", "}")
        items = []
        if inner:
            for entry in split_top(inner, ","):
                kv = split_top(entry, ":")
                if len(kv) != 2:
                    raise ParseError(f"bad map entry {entry!r}")
                y = self.omega.parse_point(kv[0])
                d = self.D.parse_element(kv[1])
                items.append((y, d))
        q = self.Q.parse_element(pieces[1])
        g = WreathElement(self._canon(items), q)
        self.validate(g)
        return g
