"""Catalog of base groups usable as the D or Q factor of a wreath product.

Element payloads are plain hashable Python values interpreted by their
handle: ints for the integers and cyclic groups, image tuples for
symmetric/finite-explicit groups, reduced words (tuples of signed 1-based
generator indices) for free groups, component tuples for direct products.
Equality of elements is structural equality of canonical payloads.

Property oracles (finiteness, FC membership, icc status) are declared per
kind rather than computed from presentations; each declared fact carries a
one-line justification.
"""

from __future__ import annotations

import itertools
import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ._parsing import split_top, strip_outer
from .errors import KindMismatch, ParseError, PreconditionError, Unsupported
from .tri import Tri

EXACT_FINITE = "exact-finite"
AT_LEAST = "at-least"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class IccStatus:
    answer: Tri
    provenance: str  # "declared" | "computed" | "criterion-derived"
    justification: str


@dataclass(frozen=True)
class ClassReport:
    """Result of a bounded conjugacy-class closure.

    `exact-finite` means the closure under conjugation by the listed
    generators stabilized; for an infinite ambient group this proves
    invariance only under the generated subgroup, flagged by
    `generated_subgroup_only`.
    """

    status: str  # EXACT_FINITE | AT_LEAST | BUDGET_EXHAUSTED
    elements: tuple | None
    count: int
    rounds_used: int
    generated_subgroup_only: bool


class Group(ABC):
    kind: str

    # ---- arithmetic --------------------------------------------------

    @abstractmethod
    def identity(self):
        ...

    @abstractmethod
    def _multiply(self, a, b):
        ...

    @abstractmethod
    def _inverse(self, a):
        ...

    def multiply(self, a, b):
        self.validate(a)
        self.validate(b)
        return self._multiply(a, b)

    def inverse(self, a):
        self.validate(a)
        return self._inverse(a)

    def conjugate(self, x, y):
        """y^-1 x y in canonical form."""
        return self.multiply(self.multiply(self.inverse(y), x), y)

    @abstractmethod
    def validate(self, x) -> None:
        ...

    @property
    @abstractmethod
    def generators(self) -> tuple:
        ...

    # ---- structure ---------------------------------------------------

    is_finite: bool
    is_trivial: bool

    def order(self) -> int:
        raise Unsupported(f"{self.kind}: infinite group has no order")

    def elements(self):
        """All elements in canonical enumeration order (finite kinds only)."""
        raise Unsupported(f"{self.kind}: cannot enumerate an infinite group")

    @abstractmethod
    def sort_key(self, x):
        ...

    @abstractmethod
    def descriptor(self) -> tuple:
        ...

    def __eq__(self, other):
        return isinstance(other, Group) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def describe(self) -> str:
        return self.kind

    # ---- property oracles ---------------------------------------------

    @abstractmethod
    def icc_status(self) -> IccStatus:
        ...

    @abstractmethod
    def fc_contains(self, x) -> bool:
        """Does x have a finite conjugacy class?"""
        ...

    def fc_nontrivial_element(self):
        """Some FC element != 1, or None when FC is trivial."""
        raise Unsupported(f"{self.kind}: no FC rule")

    def finite_invariant_set_example(self) -> frozenset:
        """A nonempty finite conjugation-invariant set of nontrivial
        elements; available whenever the group is nontrivial and not icc."""
        raise PreconditionError(f"{self.kind}: no finite invariant set available")

    # ---- streams -------------------------------------------------------

    def ball_stream(self):
        """Deterministic generator-ball enumeration: BFS over the Cayley
        graph from the identity, each round sorted by sort_key.  Infinite
        for infinite groups, exhaustive for finite ones."""
        e = self.identity()
        conjs = list(self.generators)
        for s in self.generators:
            inv = self.inverse(s)
            if inv not in conjs:
                conjs.append(inv)
        seen = {e}
        yield e
        frontier = [e]
        while frontier:
            fresh = []
            for x in frontier:
                for s in conjs:
                    y = self.multiply(x, s)
                    if y not in seen:
                        seen.add(y)
                        fresh.append(y)
            fresh.sort(key=self.sort_key)
            yield from fresh
            frontier = fresh

    def first_nontrivial(self):
        e = self.identity()
        for x in self.ball_stream():
            if x != e:
                return x
        raise PreconditionError(f"{self.kind}: trivial group")

    def random_element(self, rng):
        raise Unsupported(f"{self.kind}: no random element strategy")

    # ---- literals -------------------------------------------------------

    def format_element(self, x) -> str:
        raise Unsupported(f"{self.kind}: no element formatter")

    def parse_element(self, text: str):
        raise Unsupported(f"{self.kind}: no element parser")


def class_enum_bounded(G: Group, x, radius: int, max_size: int) -> ClassReport:
    """BFS closure of {x} under conjugation by generators and their
    inverses, up to `radius` rounds and `max_size` elements."""
    if radius <= 0 or max_size <= 0:
        raise PreconditionError("class_enum_bounded: budgets must be positive")
    G.validate(x)
    caveat = not G.is_finite
    conjs = list(G.generators)
    for s in G.generators:
        inv = G.inverse(s)
        if inv not in conjs:
            conjs.append(inv)
    seen = {x}
    frontier = [x]
    rounds = 0
    while frontier and rounds < radius:
        rounds += 1
        fresh = []
        for e in sorted(frontier, key=G.sort_key):
            for s in conjs:
                c = G.conjugate(e, s)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
                    if len(seen) >= max_size:
                        return ClassReport(AT_LEAST, None, len(seen), rounds, caveat)
        frontier = fresh
    if not frontier:
        elems = tuple(sorted(seen, key=G.sort_key))
        return ClassReport(EXACT_FINITE, elems, len(seen), rounds, caveat)
    return ClassReport(BUDGET_EXHAUSTED, None, len(seen), rounds, caveat)


class _FiniteGroupMixin:
    """Shared declared facts for finite kinds: fc_contains is constantly
    true and icc is No (every class has at most |G| elements)."""

    is_finite = True

    def icc_status(self):
        return IccStatus(Tri.NO, "declared", "finite group: all classes are finite")

    def fc_contains(self, x):
        self.validate(x)
        return True

    def fc_nontrivial_element(self):
        if self.is_trivial:
            return None
        return self.first_nontrivial()

    def finite_invariant_set_example(self):
        if self.is_trivial:
            raise PreconditionError("trivial group: no nontrivial invariant set")
        e = self.identity()
        x = next(a for a in self.elements() if a != e)
        rep = class_enum_bounded(self, x, radius=self.order() + 1, max_size=self.order() + 1)
        assert rep.status == EXACT_FINITE
        return frozenset(rep.elements)


class IntegersGroup(Group):
    kind = "integers"
    is_finite = False
    is_trivial = False

    def identity(self):
        return 0

    def _multiply(self, a, b):
        return a + b

    def _inverse(self, a):
        return -a

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool):
            raise KindMismatch(f"integers: bad payload {x!r}")

    @property
    def generators(self):
        return (1,)

    def sort_key(self, x):
        return x

    def descriptor(self):
        return ("integers",)

    def icc_status(self):
        return IccStatus(Tri.NO, "declared", "infinite abelian: every class is a singleton")

    def fc_contains(self, x):
        self.validate(x)
        return True

    def fc_nontrivial_element(self):
        return 1

    def finite_invariant_set_example(self):
        return frozenset({1})

    def random_element(self, rng):
        return rng.randint(-20, 20)

    def format_element(self, x):
        return str(x)

    def parse_element(self, text):
        try:
            return int(text.strip())
        except ValueError:
            raise ParseError(f"integers: bad literal {text!r}")


class CyclicGroup(_FiniteGroupMixin, Group):
    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("cyclic: order must be >= 1")
        self.n = n
        self.kind = f"cyclic({n})"

    @property
    def is_trivial(self):
        return self.n == 1

    def identity(self):
        return 0

    def _multiply(self, a, b):
        return (a + b) % self.n

    def _inverse(self, a):
        return (-a) % self.n

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n:
            raise KindMismatch(f"cyclic({self.n}): bad payload {x!r}")

    @property
    def generators(self):
        return (1,) if self.n > 1 else ()

    def order(self):
        return self.n

    def elements(self):
        return iter(range(self.n))

    def sort_key(self, x):
        return x

    def descriptor(self):
        return ("cyclic", self.n)

    def random_element(self, rng):
        return rng.randrange(self.n)

    def format_element(self, x):
        return str(x)

    def parse_element(self, text):
        try:
            return int(text.strip()) % self.n
        except ValueError:
            raise ParseError(f"cyclic({self.n}): bad literal {text!r}")


def _perm_mul(a, b):
    # apply b first, then a
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


class SymmetricGroup(_FiniteGroupMixin, Group):
    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("symmetric: degree must be >= 1")
        self.n = n
        self.kind = f"symmetric({n})"

    @property
    def is_trivial(self):
        return self.n == 1

    def identity(self):
        return tuple(range(self.n))

    def _multiply(self, a, b):
        return _perm_mul(a, b)

    def _inverse(self, a):
        return _perm_inv(a)

    def validate(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != self.n
            or sorted(x) != list(range(self.n))
        ):
            raise KindMismatch(f"symmetric({self.n}): bad payload {x!r}")

    @property
    def generators(self):
        if self.n < 2:
            return ()
        swap = (1, 0) + tuple(range(2, self.n))
        if self.n == 2:
            return (swap,)
        cycle = tuple(range(1, self.n)) + (0,)
        return (swap, cycle)

    def order(self):
        return math.factorial(self.n)

    def elements(self):
        return itertools.permutations(range(self.n))

    def sort_key(self, x):
        return x

    def descriptor(self):
        return ("symmetric", self.n)

    def random_element(self, rng):
        return tuple(rng.sample(range(self.n), self.n))

    def format_element(self, x):
        return "[" + ",".join(str(i) for i in x) + "]"

    def parse_element(self, text):
        inner = strip_outer(text, "[", "]")
        try:
            x = tuple(int(t) for t in inner.split(",")) if inner else ()
        except ValueError:
            raise ParseError(f"symmetric({self.n}): bad literal {text!r}")
        self.validate(x)
        return x


class CayleyTableGroup(_FiniteGroupMixin, Group):
    """Finite group given by an explicit Cayley table; elements are stored
    as the permutations of {0..n-1} induced by left multiplication (the
    regular representation), so equality stays structural."""

    def __init__(self, perms: frozenset, gens: tuple, name: str = "finite-cayley"):
        self._perms = perms
        self._gens = gens
        self.kind = name
        self._sorted = tuple(sorted(perms))

    @classmethod
    def from_table(cls, table, generator_indices, name="finite-cayley"):
        n = len(table)
        perms = frozenset(tuple(row) for row in table)
        if len(perms) != n:
            raise PreconditionError("cayley table has repeated rows")
        for row in table:
            if sorted(row) != list(range(n)):
                raise PreconditionError("cayley table row is not a permutation")
        gens = tuple(tuple(table[i]) for i in generator_indices)
        return cls(perms, gens, name)

    @property
    def is_trivial(self):
        return len(self._perms) == 1

    def identity(self):
        return tuple(range(len(self._sorted[0])))

    def _multiply(self, a, b):
        return _perm_mul(a, b)

    def _inverse(self, a):
        return _perm_inv(a)

    def validate(self, x):
        if x not in self._perms:
            raise KindMismatch(f"{self.kind}: bad payload {x!r}")

    @property
    def generators(self):
        return self._gens

    def order(self):
        return len(self._perms)

    def elements(self):
        return iter(self._sorted)

    def sort_key(self, x):
        return x

    def descriptor(self):
        return ("finite-cayley", self._sorted, self._gens)

    def random_element(self, rng):
        return rng.choice(self._sorted)

    def format_element(self, x):
        return "[" + ",".join(str(i) for i in x) + "]"

    def parse_element(self, text):
        inner = strip_outer(text, "[", "]")
        try:
            x = tuple(int(t) for t in inner.split(",")) if inner else ()
        except ValueError:
            raise ParseError(f"{self.kind}: bad literal {text!r}")
        self.validate(x)
        return x


_WORD_TOKEN = re.compile(r"([a-z])(?:\^(-?\d+))?\Z")


def _reduce_concat(u, v):
    """Concatenate two freely reduced words, cancelling at the boundary."""
    u = list(u)
    i = 0
    while u and i < len(v) and u[-1] == -v[i]:
        u.pop()
        i += 1
    return tuple(u) + tuple(v[i:])


class FreeGroup(Group):
    """Free group of given rank; words are tuples of signed 1-based
    generator indices, kept freely reduced."""

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise PreconditionError("free: rank must be in 1..26")
        self.rank = rank
        self.kind = f"free({rank})"

    is_finite = False
    is_trivial = False

    def identity(self):
        return ()

    def _multiply(self, a, b):
        return _reduce_concat(a, b)

    def _inverse(self, a):
        return tuple(-g for g in reversed(a))

    def validate(self, x):
        if not isinstance(x, tuple):
            raise KindMismatch(f"{self.kind}: bad payload {x!r}")
        for g in x:
            if not isinstance(g, int) or g == 0 or abs(g) > self.rank:
                raise KindMismatch(f"{self.kind}: bad letter {g!r}")
        for a, b in zip(x, x[1:]):
            if a == -b:
                raise KindMismatch(f"{self.kind}: word not freely reduced: {x!r}")

    @property
    def generators(self):
        return tuple((i,) for i in range(1, self.rank + 1))

    def sort_key(self, x):
        return (len(x), x)

    def descriptor(self):
        return ("free", self.rank)

    def icc_status(self):
        if self.rank >= 2:
            return IccStatus(Tri.YES, "declared", "nonabelian free group")
        return IccStatus(Tri.NO, "declared", "free of rank 1 = infinite cyclic")

    def fc_contains(self, x):
        self.validate(x)
        if self.rank == 1:
            return True
        return x == ()

    def fc_nontrivial_element(self):
        return (1,) if self.rank == 1 else None

    def finite_invariant_set_example(self):
        if self.rank >= 2:
            raise PreconditionError("free group of rank >= 2 is icc")
        return frozenset({(1,)})

    def random_element(self, rng):
        length = rng.randint(0, 6)
        letters = [g for g in range(-self.rank, self.rank + 1) if g != 0]
        w = []
        for _ in range(length):
            choices = [g for g in letters if not (w and g == -w[-1])]
            w.append(rng.choice(choices))
        return tuple(w)

    def format_element(self, x):
        if not x:
            return "1"
        parts = []
        for g, run in itertools.groupby(x):
            k = len(list(run))
            letter = chr(ord("a") + abs(g) - 1)
            exp = k if g > 0 else -k
            parts.append(letter if exp == 1 else f"{letter}^{exp}")
        return "*".join(parts)

    def parse_element(self, text):
        text = text.strip()
        if text == "1":
            return ()
        w = ()
        for tok in text.split("*"):
            m = _WORD_TOKEN.match(tok.strip())
            if not m:
                raise ParseError(f"{self.kind}: bad word token {tok!r}")
            idx = ord(m.group(1)) - ord("a") + 1
            if idx > self.rank:
                raise ParseError(f"{self.kind}: generator {m.group(1)!r} out of rank")
            exp = int(m.group(2)) if m.group(2) else 1
            letter = idx if exp > 0 else -idx
            w = _reduce_concat(w, (letter,) * abs(exp))
        return w


class DirectProductGroup(Group):
    def __init__(self, factors: tuple):
        if not factors:
            raise PreconditionError("product: needs at least one factor")
        self.factors = tuple(factors)
        self.kind = "product(" + ", ".join(f.kind for f in self.factors) + ")"

    @property
    def is_finite(self):
        return all(f.is_finite for f in self.factors)

    @property
    def is_trivial(self):
        return all(f.is_trivial for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    # validate() has checked every component, so the factors skip it
    def _multiply(self, a, b):
        return tuple(f._multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def _inverse(self, a):
        return tuple(f._inverse(x) for f, x in zip(self.factors, a))

    def validate(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise KindMismatch(f"{self.kind}: bad payload {x!r}")
        for f, c in zip(self.factors, x):
            f.validate(c)

    def _embed(self, i, x):
        return tuple(
            x if j == i else f.identity() for j, f in enumerate(self.factors)
        )

    @property
    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for s in f.generators:
                gens.append(self._embed(i, s))
        return tuple(gens)

    def order(self):
        return math.prod(f.order() for f in self.factors)

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def sort_key(self, x):
        return tuple(f.sort_key(c) for f, c in zip(self.factors, x))

    def descriptor(self):
        return ("product", tuple(f.descriptor() for f in self.factors))

    def icc_status(self):
        if self.is_trivial:
            return IccStatus(Tri.NO, "computed", "trivial product")
        # FC(A x B) = FC(A) x FC(B): the product is icc iff every factor
        # is trivial or icc.
        per = []
        for f in self.factors:
            per.append(Tri.YES if f.is_trivial else f.icc_status().answer)
        from .tri import tri_and

        ans = tri_and(*per)
        return IccStatus(ans, "computed", "FC of a product is the product of the FCs")

    def fc_contains(self, x):
        self.validate(x)
        return all(f.fc_contains(c) for f, c in zip(self.factors, x))

    def fc_nontrivial_element(self):
        for i, f in enumerate(self.factors):
            w = f.fc_nontrivial_element()
            if w is not None:
                return self._embed(i, w)
        return None

    def finite_invariant_set_example(self):
        if self.is_trivial:
            raise PreconditionError("trivial product: no nontrivial invariant set")
        for i, f in enumerate(self.factors):
            if f.is_trivial:
                continue
            if f.icc_status().answer is Tri.NO:
                xi = f.finite_invariant_set_example()
                return frozenset(self._embed(i, x) for x in xi)
        raise PreconditionError(f"{self.kind}: product is icc")

    def random_element(self, rng):
        return tuple(f.random_element(rng) for f in self.factors)

    def format_element(self, x):
        return "(" + "; ".join(f.format_element(c) for f, c in zip(self.factors, x)) + ")"

    def parse_element(self, text):
        inner = strip_outer(text, "(", ")")
        parts = split_top(inner, ";")
        if len(parts) != len(self.factors):
            raise ParseError(f"{self.kind}: expected {len(self.factors)} components")
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))
