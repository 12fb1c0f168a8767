"""Countable Q-sets with action evaluation and the structural oracles the
wreath-product icc criterion consumes.

A carrier gives only its structural rules: the action `_act`, whether the
orbit of a point is infinite (`_orbit_infinite`), the kernel, one
representative of each orbit, a finite orbit and freeness, each read off
the carrier's kind, never found by search.  `QSet` derives the rest once
for all kinds: `fixes_all_points` and `kernel_meets_fc` from the kernel
description, `all_orbits_infinite` from finiteness and the orbit
representatives, and `points` from `points_stream`.

The public methods validate once: `act` checks the acting element and the
point, `orbit_infinite` the point and `fixes_all_points` the element, then
each runs the carrier's rule, which trusts them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from . import groups
from ._parsing import split_top, strip_outer
from .errors import (
    CertificateBudget,
    EmptyOmega,
    KindMismatch,
    ParseError,
    PreconditionError,
    Unsupported,
)
from .groups import Group, SymmetricGroup
from .tri import Tri, tri_and

# kernel descriptions: ("trivial",) | ("full",) | ("nZ", n)


class QSet(ABC):
    Q: Group
    # no equality of its own: a wreath product's kind spells out this one
    carrier_kind: str
    # do points already sort by `point_key` in native Python order?  A
    # carrier that says so lets the wreath kernels sort maps with no key
    # frame
    native_order: bool = False

    def act(self, q, x):
        self.Q.validate(q)
        self.validate_point(x)
        return self._act(q, x)

    @abstractmethod
    def _act(self, q, x):
        ...

    @abstractmethod
    def validate_point(self, x) -> None:
        ...

    @abstractmethod
    def point_key(self, x):
        ...

    @abstractmethod
    def points_stream(self):
        """Deterministic (possibly infinite) enumeration of the carrier."""
        ...

    is_finite_carrier: bool

    def points(self):
        """Every point of a finite carrier, in `points_stream` order."""
        if not self.is_finite_carrier:
            raise Unsupported(f"{self.carrier_kind}: infinite carrier")
        return self.points_stream()

    # ---- oracles -------------------------------------------------------

    def all_orbits_infinite(self) -> Tri:
        """Is every orbit infinite?  One point of each orbit decides it,
        and a finite carrier has finite orbits only."""
        if self.is_finite_carrier:
            return Tri.NO
        return tri_and(*(self._orbit_infinite(y) for y in self.orbit_representatives()))

    @abstractmethod
    def finite_orbit_example(self):
        """One finite orbit as a tuple of its points, or None.  It is a
        single orbit, so its length is the orbit size of each of its points,
        which the containment check of `wricc verify` reads."""
        ...

    def _listed_orbit(self, size: int, points) -> tuple:
        """The points of a finite orbit as a tuple, refused before any is
        listed when `size` (its size, or a number past the cap for it)
        passes the listing cap, which the refusal names instead."""
        if size > groups._FINITE_SET_CAP:
            raise CertificateBudget(
                f"{self.carrier_kind}: a finite orbit of more than "
                f"{groups._FINITE_SET_CAP} points"
            )
        return tuple(points)

    def kernel_meets_fc(self) -> tuple:
        """(Tri, q0): YES comes with a concrete q0 != 1 lying in FC(Q) and
        fixing the carrier pointwise; NO asserts condition (i) holds.
        Read off `kernel_description`."""
        desc = self.kernel_description()
        if desc is None:
            return (Tri.UNKNOWN, None)
        if desc[0] == "trivial":
            return (Tri.NO, None)
        if desc[0] == "full":
            try:
                w = self.Q.fc_nontrivial_element()
            except Unsupported:
                return (Tri.UNKNOWN, None)
            return (Tri.YES, w) if w is not None else (Tri.NO, None)
        return (Tri.YES, desc[1])

    @abstractmethod
    def is_free_action(self) -> Tri:
        ...

    @abstractmethod
    def kernel_description(self):
        """The kernel of the action, as a tuple described above, or None
        when no rule knows it."""
        ...

    def fixes_all_points(self, q) -> Tri:
        """Does q act trivially?  Read off `kernel_description`."""
        self.Q.validate(q)
        desc = self.kernel_description()
        if desc is None:
            return Tri.UNKNOWN
        if desc[0] == "trivial":
            fixes = q == self.Q.identity()
        elif desc[0] == "full":
            fixes = True
        else:
            fixes = q % desc[1] == 0
        return Tri.YES if fixes else Tri.NO

    def orbit_infinite(self, x) -> Tri:
        self.validate_point(x)
        return self._orbit_infinite(x)

    @abstractmethod
    def _orbit_infinite(self, x) -> Tri:
        """Is the orbit of the valid point x infinite?"""
        ...

    # ---- misc ------------------------------------------------------------

    @abstractmethod
    def orbit_representatives(self):
        """One point of each orbit, in a fixed order, sized so that its length
        is known without listing it.  Every carrier of the catalog has
        finitely many orbits."""
        ...

    @abstractmethod
    def random_point(self, rng):
        ...

    @abstractmethod
    def format_point(self, x) -> str:
        ...

    @abstractmethod
    def parse_point(self, text: str):
        ...


class RegularQSet(QSet):
    """Omega = Q acting on itself by left translation."""

    def __init__(self, Q: Group):
        self.Q = Q
        self.carrier_kind = f"regular over {Q.kind}"
        self.native_order = Q.native_order

    @property
    def _act(self):
        """Q's own product, so that acting runs no frame of the carrier's;
        a property, so that a subclass's `_act` still overrides it."""
        return self.Q._multiply

    def validate_point(self, x):
        self.Q.validate(x)

    def point_key(self, x):
        return self.Q.sort_key(x)

    def points_stream(self):
        return self.Q.ball_stream()

    @property
    def is_finite_carrier(self):
        return self.Q.is_finite

    def finite_orbit_example(self):
        if self.Q.is_finite:
            return self._listed_orbit(self.Q._capped_order(), self.Q.elements())
        return None

    def kernel_description(self):
        return ("trivial",)

    def is_free_action(self):
        return Tri.YES

    def _orbit_infinite(self, x):
        return Tri.NO if self.Q.is_finite else Tri.YES

    def orbit_representatives(self):
        return (self.Q.identity(),)

    def random_point(self, rng):
        return self.Q.random_element(rng)

    def format_point(self, x):
        return self.Q.format_element(x)

    def parse_point(self, text):
        return self.Q.parse_element(text)


class _IntPointQSet(QSet):
    """A finite carrier whose points are the integers 0..size-1: what the
    trivial, int-mod and natural carriers share.  The orbit answers are
    those of a transitive action; the trivial carrier overrides them."""

    size: int
    is_finite_carrier = True
    native_order = True

    def validate_point(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.size:
            raise KindMismatch(f"{self.carrier_kind}: bad point {x!r}")

    def point_key(self, x):
        return x

    def points_stream(self):
        return iter(range(self.size))

    def finite_orbit_example(self):
        return self._listed_orbit(self.size, range(self.size))

    def orbit_representatives(self):
        return (0,)

    def _orbit_infinite(self, x):
        return Tri.NO

    def random_point(self, rng):
        return rng.randrange(self.size)

    def format_point(self, x):
        return str(x)

    def parse_point(self, text):
        try:
            v = int(text.strip())
        except ValueError:
            raise ParseError(f"{self.carrier_kind}: bad point literal {text!r}")
        self.validate_point(v)
        return v


class IntModQSet(_IntPointQSet):
    """Omega = Z/n with Q = Z acting by translation; kernel = nZ."""

    def __init__(self, Q: Group, n: int):
        if Q.kind != "integers":
            raise PreconditionError("int-mod carrier requires Q = integers")
        if n < 1:
            raise EmptyOmega("int-mod carrier must have n >= 1")
        self.Q = Q
        self.size = n
        self.carrier_kind = f"int-mod({n})"

    def _act(self, q, x):
        return (x + q) % self.size

    def kernel_description(self):
        return ("nZ", self.size)

    def is_free_action(self):
        return Tri.NO  # q = n fixes every residue


class TrivialQSet(_IntPointQSet):
    """Q fixes every one of `size` points; the kernel is all of Q."""

    def __init__(self, Q: Group, size: int):
        if size < 1:
            raise EmptyOmega("trivial carrier must be nonempty")
        self.Q = Q
        self.size = size
        self.carrier_kind = f"trivial({size})"

    def _act(self, q, x):
        return x

    def finite_orbit_example(self):
        return (0,)

    def orbit_representatives(self):
        # a range, so that its length is known without listing it
        return range(self.size)

    def kernel_description(self):
        return ("full",)

    def is_free_action(self):
        return Tri.YES if self.Q.is_trivial else Tri.NO


class NaturalQSet(_IntPointQSet):
    """symmetric(n) permuting {0..n-1}: a permutation's image tuple is its
    action, and the action is faithful and transitive."""

    def __init__(self, Q: Group):
        if not isinstance(Q, SymmetricGroup):
            raise PreconditionError("natural action requires a symmetric group")
        self.Q = Q
        self.size = Q.n
        self.carrier_kind = f"natural({Q.n})"

    def _act(self, q, x):
        return q[x]

    def kernel_description(self):
        return ("trivial",)

    def is_free_action(self):
        # a transposition of two points fixes any third
        return Tri.YES if self.size <= 2 else Tri.NO


def _interleave(streams):
    alive = [iter(s) for s in streams]
    while alive:
        nxt = []
        for it in alive:
            try:
                yield next(it)
                nxt.append(it)
            except StopIteration:
                pass
        alive = nxt


class _TaggedReps:
    """The parts' orbit representatives, tagged with the part's index; the
    length is summed from the parts' without listing them."""

    def __init__(self, parts):
        self.parts = parts

    def __len__(self):
        return sum(len(part.orbit_representatives()) for part in self.parts)

    def __iter__(self):
        for i, part in enumerate(self.parts):
            yield from ((i, p) for p in part.orbit_representatives())


def _intersect_kernels(a, b):
    if a is None or b is None:
        return None
    if a[0] == "trivial" or b[0] == "trivial":
        return ("trivial",)
    if a[0] == "full":
        return b
    if b[0] == "full":
        return a
    return ("nZ", math.lcm(a[1], b[1]))


class DisjointUnionQSet(QSet):
    """Disjoint union of carriers over the same Q; points are (part, point).

    The key negative-test family: mixed finite/infinite orbit structure
    with kernel = intersection of the part kernels.
    """

    def __init__(self, parts: tuple):
        if not parts:
            raise EmptyOmega("union carrier needs at least one part")
        q0 = parts[0].Q
        for p in parts[1:]:
            if p.Q != q0:
                raise PreconditionError("union parts must share the same Q")
        self.parts = tuple(parts)
        self.Q = q0
        self.carrier_kind = "union(" + ", ".join(p.carrier_kind for p in parts) + ")"
        # points are (part, point) pairs, keyed by (part, the part's key)
        self.native_order = all(p.native_order for p in self.parts)
        # each part's action, looked up once: a part's own `_act`
        # override is what gets bound
        self._part_acts = tuple(p._act for p in self.parts)

    def _act(self, q, x):
        i, p = x
        return (i, self._part_acts[i](q, p))

    def validate_point(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not isinstance(x[0], int)
            or isinstance(x[0], bool)
            or not 0 <= x[0] < len(self.parts)
        ):
            raise KindMismatch(f"{self.carrier_kind}: bad point {x!r}")
        self.parts[x[0]].validate_point(x[1])

    def point_key(self, x):
        i, p = x
        return (i, self.parts[i].point_key(p))

    def points_stream(self):
        def tagged(i, part):
            return ((i, p) for p in part.points_stream())

        return _interleave([tagged(i, part) for i, part in enumerate(self.parts)])

    @property
    def is_finite_carrier(self):
        return all(p.is_finite_carrier for p in self.parts)

    def finite_orbit_example(self):
        for i, part in enumerate(self.parts):
            orb = part.finite_orbit_example()
            if orb is not None:
                return tuple((i, p) for p in orb)
        return None

    def all_orbits_infinite(self):
        """From the parts' answers, so that a finite part answers NO without
        listing its orbit representatives."""
        return tri_and(*(p.all_orbits_infinite() for p in self.parts))

    def kernel_description(self):
        desc = self.parts[0].kernel_description()
        for p in self.parts[1:]:
            desc = _intersect_kernels(desc, p.kernel_description())
        return desc

    def is_free_action(self):
        return tri_and(*(p.is_free_action() for p in self.parts))

    def _orbit_infinite(self, x):
        i, p = x
        return self.parts[i]._orbit_infinite(p)

    def orbit_representatives(self):
        return _TaggedReps(self.parts)

    def random_point(self, rng):
        i = rng.randrange(len(self.parts))
        return (i, self.parts[i].random_point(rng))

    def format_point(self, x):
        i, p = x
        return f"({i}; {self.parts[i].format_point(p)})"

    def parse_point(self, text):
        inner = strip_outer(text, "(", ")")
        pieces = split_top(inner, ";")
        if len(pieces) != 2:
            raise ParseError(f"{self.carrier_kind}: bad point literal {text!r}")
        try:
            i = int(pieces[0])
        except ValueError:
            raise ParseError(f"{self.carrier_kind}: bad part index in {text!r}")
        if not 0 <= i < len(self.parts):
            raise ParseError(f"{self.carrier_kind}: part index out of range in {text!r}")
        return (i, self.parts[i].parse_point(pieces[1]))
