"""Countable Q-sets with action evaluation and the structural oracles the
wreath-product icc criterion consumes.

Orbit infinitude, action freeness and the kernel/FC overlap are answered
per carrier kind by a structural rule, never by search; bounded search
(orbit_bounded) only produces evidence, not verdicts.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ._parsing import split_top, strip_outer
from .errors import (
    EmptyOmega,
    KindMismatch,
    ParseError,
    PreconditionError,
    Unsupported,
)
from .groups import Group, SymmetricGroup
from .tri import Tri, tri_and

ORBIT_EXACT = "exact-finite"
ORBIT_EXCEEDS = "exceeds-budget"

# kernel descriptions: ("trivial",) | ("full",) | ("nZ", n) | ("explicit", frozenset)


@dataclass(frozen=True)
class OrbitReport:
    status: str  # ORBIT_EXACT | ORBIT_EXCEEDS
    points: tuple
    budget: int


class QSet(ABC):
    Q: Group
    carrier_kind: str

    @abstractmethod
    def act(self, q, x):
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
        raise Unsupported(f"{self.carrier_kind}: infinite carrier")

    # ---- oracles -------------------------------------------------------

    @abstractmethod
    def all_orbits_infinite(self) -> Tri:
        ...

    def finite_orbit_example(self):
        """A finite orbit as a tuple of points, or None."""
        return None

    @abstractmethod
    def kernel_meets_fc(self) -> tuple:
        """(Tri, q0): YES comes with a concrete q0 != 1 lying in FC(Q) and
        fixing the carrier pointwise; NO asserts condition (i) holds."""
        ...

    @abstractmethod
    def is_free_action(self) -> Tri:
        ...

    def kernel_description(self):
        return None

    @abstractmethod
    def fixes_all_points(self, q) -> Tri:
        ...

    @abstractmethod
    def orbit_infinite(self, x) -> Tri:
        ...

    # ---- misc ------------------------------------------------------------

    @abstractmethod
    def descriptor(self) -> tuple:
        ...

    def __eq__(self, other):
        return isinstance(other, QSet) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def describe(self) -> str:
        return self.carrier_kind

    def default_window_point(self):
        ...

    def random_point(self, rng):
        ...

    def format_point(self, x) -> str:
        ...

    def parse_point(self, text: str):
        ...


def orbit_bounded(S: QSet, x, budget: int) -> OrbitReport:
    """BFS over generator actions; ExactFinite iff the closure stabilizes
    within `budget` points."""
    if budget <= 0:
        raise PreconditionError("orbit_bounded: budget must be positive")
    S.validate_point(x)
    movers = list(S.Q.generators)
    for s in S.Q.generators:
        inv = S.Q.inverse(s)
        if inv not in movers:
            movers.append(inv)
    seen = {x}
    frontier = [x]
    while frontier:
        fresh = []
        for p in sorted(frontier, key=S.point_key):
            for s in movers:
                y = S.act(s, p)
                if y not in seen:
                    if len(seen) >= budget:
                        return OrbitReport(
                            ORBIT_EXCEEDS, tuple(sorted(seen, key=S.point_key)), budget
                        )
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return OrbitReport(ORBIT_EXACT, tuple(sorted(seen, key=S.point_key)), budget)


class RegularQSet(QSet):
    """Omega = Q acting on itself by left translation."""

    def __init__(self, Q: Group):
        self.Q = Q
        self.carrier_kind = f"regular over {Q.kind}"

    def act(self, q, x):
        self.Q.validate(q)
        self.Q.validate(x)
        return self.Q._multiply(q, x)

    def validate_point(self, x):
        self.Q.validate(x)

    def point_key(self, x):
        return self.Q.sort_key(x)

    def points_stream(self):
        return self.Q.ball_stream()

    @property
    def is_finite_carrier(self):
        return self.Q.is_finite

    def points(self):
        return self.Q.elements()

    def all_orbits_infinite(self):
        return Tri.NO if self.Q.is_finite else Tri.YES

    def finite_orbit_example(self):
        if self.Q.is_finite:
            return tuple(sorted(self.Q.elements(), key=self.Q.sort_key))
        return None

    def kernel_meets_fc(self):
        return (Tri.NO, None)

    def kernel_description(self):
        return ("trivial",)

    def is_free_action(self):
        return Tri.YES

    def fixes_all_points(self, q):
        return Tri.YES if q == self.Q.identity() else Tri.NO

    def orbit_infinite(self, x):
        return Tri.NO if self.Q.is_finite else Tri.YES

    def descriptor(self):
        return ("regular", self.Q.descriptor())

    def default_window_point(self):
        return self.Q.identity()

    def random_point(self, rng):
        return self.Q.random_element(rng)

    def format_point(self, x):
        return self.Q.format_element(x)

    def parse_point(self, text):
        return self.Q.parse_element(text)


class IntModQSet(QSet):
    """Omega = Z/n with Q = Z acting by translation; kernel = nZ."""

    def __init__(self, Q: Group, n: int):
        if Q.descriptor() != ("integers",):
            raise PreconditionError("int-mod carrier requires Q = integers")
        if n < 1:
            raise EmptyOmega("int-mod carrier must have n >= 1")
        self.Q = Q
        self.n = n
        self.carrier_kind = f"int-mod({n})"

    def act(self, q, x):
        self.Q.validate(q)
        self.validate_point(x)
        return (x + q) % self.n

    def validate_point(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n:
            raise KindMismatch(f"int-mod({self.n}): bad point {x!r}")

    def point_key(self, x):
        return x

    def points_stream(self):
        return iter(range(self.n))

    is_finite_carrier = True

    def points(self):
        return iter(range(self.n))

    def all_orbits_infinite(self):
        return Tri.NO

    def finite_orbit_example(self):
        return tuple(range(self.n))

    def kernel_meets_fc(self):
        return (Tri.YES, self.n)

    def kernel_description(self):
        return ("nZ", self.n)

    def is_free_action(self):
        return Tri.NO  # q = n fixes every residue

    def fixes_all_points(self, q):
        return Tri.YES if q % self.n == 0 else Tri.NO

    def orbit_infinite(self, x):
        return Tri.NO

    def descriptor(self):
        return ("int-mod", self.n)

    def default_window_point(self):
        return 0

    def random_point(self, rng):
        return rng.randrange(self.n)

    def format_point(self, x):
        return str(x)

    def parse_point(self, text):
        try:
            v = int(text.strip())
        except ValueError:
            raise ParseError(f"int-mod({self.n}): bad point literal {text!r}")
        self.validate_point(v)
        return v


class TrivialQSet(QSet):
    """Q fixes every one of `size` points; the kernel is all of Q."""

    def __init__(self, Q: Group, size: int):
        if size < 1:
            raise EmptyOmega("trivial carrier must be nonempty")
        self.Q = Q
        self.size = size
        self.carrier_kind = f"trivial({size})"

    def act(self, q, x):
        self.Q.validate(q)
        self.validate_point(x)
        return x

    def validate_point(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.size:
            raise KindMismatch(f"trivial({self.size}): bad point {x!r}")

    def point_key(self, x):
        return x

    def points_stream(self):
        return iter(range(self.size))

    is_finite_carrier = True

    def points(self):
        return iter(range(self.size))

    def all_orbits_infinite(self):
        return Tri.NO

    def finite_orbit_example(self):
        return (0,)

    def kernel_meets_fc(self):
        try:
            w = self.Q.fc_nontrivial_element()
        except Unsupported:
            return (Tri.UNKNOWN, None)
        if w is None:
            return (Tri.NO, None)
        return (Tri.YES, w)

    def kernel_description(self):
        return ("full",)

    def is_free_action(self):
        return Tri.YES if self.Q.is_trivial else Tri.NO

    def fixes_all_points(self, q):
        return Tri.YES

    def orbit_infinite(self, x):
        return Tri.NO

    def descriptor(self):
        return ("trivial", self.size, self.Q.descriptor())

    def default_window_point(self):
        return 0

    def random_point(self, rng):
        return rng.randrange(self.size)

    def format_point(self, x):
        return str(x)

    def parse_point(self, text):
        try:
            v = int(text.strip())
        except ValueError:
            raise ParseError(f"trivial({self.size}): bad point literal {text!r}")
        self.validate_point(v)
        return v


class FiniteExplicitQSet(QSet):
    """Finite Q acting on {0..size-1} via per-generator image tables; the
    full element-to-permutation map is closed off at construction, so the
    kernel stays exactly computable."""

    def __init__(self, Q: Group, size: int, gen_action: dict, label: str = "finite-explicit"):
        if not Q.is_finite:
            raise PreconditionError("finite-explicit carriers require finite Q")
        if size < 1:
            raise EmptyOmega("finite-explicit carrier must be nonempty")
        self.Q = Q
        self.size = size
        self.carrier_kind = f"{label}({size})"
        self._label = label
        ident = tuple(range(size))
        for s in Q.generators:
            tab = gen_action.get(s)
            if tab is None or sorted(tab) != list(range(size)):
                raise PreconditionError("finite-explicit: missing/invalid generator table")
        perms = {Q.identity(): ident}
        frontier = [Q.identity()]
        while frontier:
            fresh = []
            for e in frontier:
                pe = perms[e]
                for s in Q.generators:
                    es = Q.multiply(e, s)
                    if es not in perms:
                        ps = gen_action[s]
                        # act(e*s, i) = act(e, act(s, i))
                        perms[es] = tuple(pe[ps[i]] for i in range(size))
                        fresh.append(es)
            frontier = fresh
        if len(perms) != Q.order():
            raise PreconditionError("finite-explicit: generators do not generate Q")
        self._perms = perms
        self._gen_action = {s: tuple(gen_action[s]) for s in Q.generators}

    @classmethod
    def natural(cls, Q: SymmetricGroup):
        """The natural action of symmetric(n) on {0..n-1}."""
        if not isinstance(Q, SymmetricGroup):
            raise PreconditionError("natural action requires a symmetric group")
        return cls(Q, Q.n, {s: s for s in Q.generators}, label="natural")

    def act(self, q, x):
        self.validate_point(x)
        try:
            return self._perms[q][x]
        except KeyError:
            raise KindMismatch(f"{self.carrier_kind}: bad acting element {q!r}")

    def validate_point(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.size:
            raise KindMismatch(f"{self.carrier_kind}: bad point {x!r}")

    def point_key(self, x):
        return x

    def points_stream(self):
        return iter(range(self.size))

    is_finite_carrier = True

    def points(self):
        return iter(range(self.size))

    def all_orbits_infinite(self):
        return Tri.NO

    def finite_orbit_example(self):
        return orbit_bounded(self, 0, self.size + 1).points

    def _kernel(self):
        ident = tuple(range(self.size))
        ker = [q for q, p in self._perms.items() if p == ident]
        return sorted(ker, key=self.Q.sort_key)

    def kernel_meets_fc(self):
        # FC(Q) = Q for finite Q, so this is just kernel nontriviality.
        ker = self._kernel()
        nontriv = [q for q in ker if q != self.Q.identity()]
        if nontriv:
            return (Tri.YES, nontriv[0])
        return (Tri.NO, None)

    def kernel_description(self):
        return ("explicit", frozenset(self._kernel()))

    def is_free_action(self):
        e = self.Q.identity()
        for q, p in self._perms.items():
            if q == e:
                continue
            if any(p[i] == i for i in range(self.size)):
                return Tri.NO
        return Tri.YES

    def fixes_all_points(self, q):
        ident = tuple(range(self.size))
        return Tri.YES if self._perms.get(q) == ident else Tri.NO

    def orbit_infinite(self, x):
        return Tri.NO

    def descriptor(self):
        return (
            "finite-explicit",
            self.size,
            self.Q.descriptor(),
            tuple(sorted(self._gen_action.items())),
        )

    def default_window_point(self):
        return 0

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


def _intersect_kernels(a, b):
    if a is None or b is None:
        return None
    if a[0] == "trivial" or b[0] == "trivial":
        return ("trivial",)
    if a[0] == "full":
        return b
    if b[0] == "full":
        return a
    if a[0] == "nZ" and b[0] == "nZ":
        return ("nZ", math.lcm(a[1], b[1]))
    if a[0] == "explicit" and b[0] == "explicit":
        return ("explicit", a[1] & b[1])
    return None


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

    def act(self, q, x):
        i, p = self._split(x)
        return (i, self.parts[i].act(q, p))

    def _split(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not isinstance(x[0], int)
            or not 0 <= x[0] < len(self.parts)
        ):
            raise KindMismatch(f"{self.carrier_kind}: bad point {x!r}")
        return x

    def validate_point(self, x):
        i, p = self._split(x)
        self.parts[i].validate_point(p)

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

    def points(self):
        for i, part in enumerate(self.parts):
            for p in part.points():
                yield (i, p)

    def all_orbits_infinite(self):
        return tri_and(*(p.all_orbits_infinite() for p in self.parts))

    def finite_orbit_example(self):
        for i, part in enumerate(self.parts):
            orb = part.finite_orbit_example()
            if orb is not None:
                return tuple((i, p) for p in orb)
        return None

    def kernel_meets_fc(self):
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
        if desc[0] == "nZ":
            return (Tri.YES, desc[1])
        nontriv = sorted(
            (q for q in desc[1] if q != self.Q.identity()), key=self.Q.sort_key
        )
        # FC(Q) = Q for the finite Q an explicit kernel comes from
        if nontriv:
            return (Tri.YES, nontriv[0])
        return (Tri.NO, None)

    def kernel_description(self):
        desc = self.parts[0].kernel_description()
        for p in self.parts[1:]:
            desc = _intersect_kernels(desc, p.kernel_description())
        return desc

    def is_free_action(self):
        return tri_and(*(p.is_free_action() for p in self.parts))

    def fixes_all_points(self, q):
        return tri_and(*(p.fixes_all_points(q) for p in self.parts))

    def orbit_infinite(self, x):
        i, p = self._split(x)
        return self.parts[i].orbit_infinite(p)

    def descriptor(self):
        return ("union", tuple(p.descriptor() for p in self.parts))

    def default_window_point(self):
        return (0, self.parts[0].default_window_point())

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
