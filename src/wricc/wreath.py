"""Exact arithmetic in the restricted wreath product of a base group over a
Q-set: finitely supported maps, the coordinate-permuting action, products,
inverses, conjugation, and single-point generators.

A finitely supported map is stored canonically as a tuple of (point, value)
pairs sorted by the carrier's point order, never containing an identity
value.  All values are immutable and hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._parsing import split_top, strip_outer
from .errors import KindMismatch, ParseError, PreconditionError, Unsupported
from .groups import Group, IccStatus
from .qsets import QSet
from .tri import Tri


@dataclass(frozen=True)
class WreathElement:
    """A pair (phi, q): a finitely-supported map as a canonical tuple of
    (point, value) pairs, and an element of the acting group."""

    phi: tuple
    q: object


def support(f: tuple) -> tuple:
    """The support of a canonical finitely-supported map: its stored keys."""
    return tuple(y for y, _ in f)


class WreathProduct(Group):
    """Handle for D wr_Omega Q.  Also usable as a catalog base group (in
    the D position of an enclosing wreath product); FC membership is then
    unsupported, so it is rejected in the Q position."""

    kind = "wreath"

    def __init__(self, D: Group, Q: Group, omega: QSet, window: tuple | None = None):
        if omega.Q != Q:
            raise PreconditionError("omega must be a Q-set for the given Q")
        self.D = D
        self.Q = Q
        self.omega = omega
        if window is None:
            window = (omega.default_window_point(),)
        for y in window:
            omega.validate_point(y)
        self.window = tuple(window)
        self.kind = f"wreath({D.kind}; {Q.kind}; {omega.carrier_kind})"
        self._e = D.identity()
        point_key = omega.point_key
        self._item_key = lambda yd: point_key(yd[0])

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
        if d == self.D.identity():
            return ()
        return ((y, d),)

    def pointwise_mul(self, f: tuple, g: tuple) -> tuple:
        """(fg)(x) = f(x) g(x); at shared keys the left factor's value is
        multiplied by the right factor's (D may be nonabelian)."""
        acc = {y: d for y, d in f}
        for y, d in g:
            acc[y] = self.D.multiply(acc[y], d) if y in acc else d
        return self._canon(acc.items())

    def pointwise_inv(self, f: tuple) -> tuple:
        return tuple((y, self.D.inverse(d)) for y, d in f)

    def lambda_act(self, q, f: tuple) -> tuple:
        """Translate the support: each support point y moves to q.y, values
        unchanged."""
        self.Q.validate(q)
        return self._canon((self.omega.act(q, y), d) for y, d in f)

    def map_value(self, f: tuple, y):
        for p, d in f:
            if p == y:
                return d
        return self.D.identity()

    # ---- group interface ---------------------------------------------------

    def identity(self):
        return WreathElement((), self.Q.identity())

    def _multiply(self, g1: WreathElement, g2: WreathElement) -> WreathElement:
        """(phi1, q1)(phi2, q2) = (phi1 * lambda(q1) phi2, q1 q2), with one
        canonicalisation: move phi2's support into a copy of phi1 and
        multiply the values at shared points.  Operands are canonical, so an
        empty map on either side needs no merge."""
        q1, q2 = g1.q, g2.q
        Q = self.Q
        Q.validate(q1)
        Q.validate(q2)
        q = Q._multiply(q1, q2)
        if not g2.phi:
            return WreathElement(g1.phi, q)
        act = self.omega.act
        moved = {act(q1, y): d for y, d in g2.phi}
        if len(moved) != len(g2.phi):
            raise KindMismatch("duplicate support point: the action is not injective")
        if not g1.phi:
            return WreathElement(tuple(sorted(moved.items(), key=self._item_key)), q)
        acc = dict(g1.phi)
        e = self._e
        mul = self.D.multiply
        for y, d in moved.items():
            if y in acc:
                d = mul(acc[y], d)
                if d == e:
                    del acc[y]
                    continue
            acc[y] = d
        return WreathElement(tuple(sorted(acc.items(), key=self._item_key)), q)

    def _inverse(self, g: WreathElement) -> WreathElement:
        qinv = self.Q.inverse(g.q)
        return WreathElement(self.lambda_act(qinv, self.pointwise_inv(g.phi)), qinv)

    # arithmetic only checks for a handle mismatch; the deep canonical-form
    # check stays in validate (used at parse/API boundaries) so that BFS
    # enumeration is not quadratic in element size
    def multiply(self, a, b):
        if not isinstance(a, WreathElement) or not isinstance(b, WreathElement):
            raise KindMismatch(f"{self.kind}: bad payload")
        return self._multiply(a, b)

    def inverse(self, a):
        if not isinstance(a, WreathElement):
            raise KindMismatch(f"{self.kind}: bad payload")
        return self._inverse(a)

    def validate(self, x):
        if not isinstance(x, WreathElement):
            raise KindMismatch(f"{self.kind}: bad payload {x!r}")
        self.Q.validate(x.q)
        if not isinstance(x.phi, tuple):
            raise KindMismatch(f"{self.kind}: phi must be a tuple")
        e = self.D.identity()
        prev_key = None
        for item in x.phi:
            if not isinstance(item, tuple) or len(item) != 2:
                raise KindMismatch(f"{self.kind}: bad phi entry {item!r}")
            y, d = item
            self.omega.validate_point(y)
            self.D.validate(d)
            if d == e:
                raise KindMismatch(f"{self.kind}: stored identity value at {y!r}")
            key = self.omega.point_key(y)
            if prev_key is not None and not prev_key < key:
                raise KindMismatch(f"{self.kind}: phi keys not strictly sorted")
            prev_key = key

    @property
    def generators(self):
        gens = [
            WreathElement(self.zeta(d, y), self.Q.identity())
            for y in self.window
            for d in self.D.generators
        ]
        gens += [WreathElement((), s) for s in self.Q.generators]
        return tuple(gens)

    @property
    def is_finite(self):
        return self.D.is_finite and self.Q.is_finite and self.omega.is_finite_carrier

    @property
    def is_trivial(self):
        return self.D.is_trivial and self.Q.is_trivial

    def order(self):
        if not self.is_finite:
            raise Unsupported("infinite wreath product has no order")
        npts = len(list(self.omega.points()))
        return self.D.order() ** npts * self.Q.order()

    def elements(self):
        if not self.is_finite:
            raise Unsupported("cannot enumerate an infinite wreath product")
        pts = sorted(self.omega.points(), key=self.omega.point_key)
        delems = list(self.D.elements())
        for q in self.Q.elements():
            for values in itertools.product(delems, repeat=len(pts)):
                yield WreathElement(self._canon(zip(pts, values)), q)

    def sort_key(self, x: WreathElement):
        return (
            tuple(
                (self.omega.point_key(y), self.D.sort_key(d)) for y, d in x.phi
            ),
            self.Q.sort_key(x.q),
        )

    def descriptor(self):
        return (
            "wreath",
            self.D.descriptor(),
            self.Q.descriptor(),
            self.omega.descriptor(),
            tuple(self.omega.point_key(y) for y in self.window),
        )

    def describe(self):
        return self.kind

    # ---- property oracles ----------------------------------------------------

    def icc_status(self) -> IccStatus:
        from .decision import decide_icc

        v = decide_icc(self)
        return IccStatus(v.answer, "criterion-derived", v.reason)

    def fc_contains(self, x):
        raise Unsupported("no FC rule for wreath products used as acting groups")

    def fc_nontrivial_element(self):
        raise Unsupported("no FC rule for wreath products used as acting groups")

    def finite_invariant_set_example(self):
        from .decision import decide_icc
        from .witness import witness

        v = decide_icc(self)
        if v.answer is not Tri.NO:
            raise PreconditionError("wreath: only available for a No icc verdict")
        cert = witness(self, v)
        return frozenset(cert.elements)

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
