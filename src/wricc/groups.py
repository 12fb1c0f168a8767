"""Catalog of base groups usable as the D or Q factor of a wreath product.

Element payloads are plain hashable Python values interpreted by their
handle: ints for the integers and cyclic groups, image tuples for
symmetric groups, reduced words (tuples of signed 1-based generator
indices) for free groups, component tuples for direct products.
Equality of elements is structural equality of canonical payloads.

Property oracles (finiteness, FC membership, icc status) are declared per
kind rather than computed from presentations; each declared fact carries a
one-line justification.  The finite invariant set xi of every kind is the
class of its nontrivial FC element, closed exactly (`finite_class`).

`Closure` is the one breadth-first search of the package: generator balls
and conjugacy classes (`class_closure`) run through it, and a bounded
closure is summed up by one `ClassReport`: iteration yields sorted rounds,
while `report()` expands in the order reached and sorts a closed class once.

Public arithmetic (`multiply`, `inverse`, `conjugate`) validates each
operand once; `_multiply`, `_inverse` and `_conjugate` trust theirs.
`ball_stream` validates each element once, as its BFS builds it, and its
callers trust what it yields.
"""

from __future__ import annotations

import itertools
import math
import re
from abc import ABC, abstractmethod
from operator import add, neg
from typing import NamedTuple

from ._parsing import split_top, strip_outer
from .errors import CertificateBudget, KindMismatch, ParseError, PreconditionError, Unsupported
from .tri import Tri, tri_and

EXACT_FINITE = "exact-finite"
AT_LEAST = "at-least"

# the most ball elements a group handle keeps for later streams
_BALL_MEMO_CAP = 65536
# the most members ever listed, and the largest symmetric degree, word
# literal, family prefix and oracle target accepted; every user reads it
# at call time
_FINITE_SET_CAP = 1_000_000


class IccStatus(NamedTuple):
    answer: Tri
    provenance: str  # "declared" | "computed" | "criterion-derived"
    justification: str


class ClassReport(NamedTuple):
    """Result of a bounded closure: a conjugacy class or an orbit.

    `exact-finite` means a round added nothing, and `elements` holds the
    closure, sorted: the whole class or orbit, as the generators generate
    the group.  `at-least` means the budget ran out first: `count`
    elements were found and `elements` is None.
    `stopped_by` says why the closure ended: "closed", "radius" (the round
    budget ran out) or "max_size" (the size budget filled)."""

    status: str  # EXACT_FINITE | AT_LEAST
    elements: tuple | None
    count: int
    rounds_used: int
    stopped_by: str


class Closure:
    """Breadth-first closure of {start} under x -> step(x, s), where the
    moves s are `gens` followed by each inverse not already listed.

    Iterating yields each round's new elements sorted by `key`, the order
    in which the next round expands them; `report()` expands the rounds
    in the order it reaches them and sorts only a closed class, once.  It
    ends when a round adds nothing (`stopped_by` "closed"), after `radius`
    rounds ("radius"), or as soon as `max_size` elements are known
    ("max_size"; that unfinished round is not yielded, and a `max_size` of
    1 stops before the first round).  `reached` maps each element to the
    (element, move) pair that first reached it, and `start` to None.

    The step is an action: `step(step(x, m), inverse(m)) == x` for every
    move m, as for the multiplication of a ball, for conjugation and for
    the action on a carrier's points.  So the inverse of the move that
    reached x leads back to where x came from, and the closure never
    takes it.  And a move m that fixes x, `step(x, m) == x`, is fixed by
    inverse(m) too, so once the closure has stepped m from x it skips
    inverse(m) from x.  Either way it reaches what it would reach
    otherwise, in the same order and from the same parents.

    The closure keeps its frontier, so it is resumable after a "radius"
    stop: raise `radius` and iterate (or report) again to carry on with
    the next round.  Resumed in the mode it ran in, it goes on exactly as
    one run with the larger budget would; mixing the modes keeps the
    count, but not the order of `reached` or which move first reached an
    element.  After a
    "closed" or "max_size" stop, iterating again yields nothing.

    A move may carry what the step needs besides the generator, as long
    as `inverse` maps it to its inverse move: `class_closure` pairs each
    generator with its inverse so that a conjugation inverts nothing.
    """

    def __init__(self, start, gens, inverse, step, key, radius=math.inf, max_size=math.inf):
        if radius <= 0 or max_size <= 0:
            raise PreconditionError("closure budgets must be positive")
        self.moves = list(gens)
        # each listed move by value beside the list, so that set-up is
        # linear in |gens|; and, by each listed move's identity, the step back
        listed = {s: s for s in self.moves}
        self._back = back = {}
        for s in gens:
            inv = inverse(s)
            if inv not in listed:
                listed[inv] = inv
                self.moves.append(inv)
            back[id(s)], back[id(listed[inv])] = listed[inv], listed[s]
        self.reached = {start: None}
        self.rounds = 0
        self.radius = radius
        self.stopped_by = None
        self._frontier = [start]
        self._key = key
        self._step = step
        self._max_size = max_size

    def __iter__(self):
        return self._rounds(self._key)

    def _rounds(self, key):
        """The rounds, sorted by `key` unless it is None; a stepped element
        is new iff `setdefault` grows `reached`, so it is hashed once.  It
        returns x's own arrival only when y is x, as every other element
        holds a pair of its own, so a move that fixes x is seen for free."""
        reached, step, moves, back = self.reached, self._step, self.moves, self._back
        max_size = self._max_size
        if self.stopped_by == "closed":
            return
        n = len(reached)
        if n >= max_size:
            self.stopped_by = "max_size"
            return
        frontier = self._frontier
        while self.rounds < self.radius:
            self.rounds += 1
            fresh = []
            for x in frontier:
                arrival = reached[x]
                skip = None if arrival is None else back[id(arrival[1])]
                # the ids of the inverses of the moves that fixed x
                fixed = None
                for s in moves:
                    if s is skip or fixed and id(s) in fixed:
                        continue
                    y = step(x, s)
                    if reached.setdefault(y, (x, s)) is arrival:
                        if fixed is None:
                            fixed = set()
                        fixed.add(id(back[id(s)]))
                    elif len(reached) > n:
                        n += 1
                        fresh.append(y)
                        if n >= max_size:
                            self.stopped_by = "max_size"
                            return
            if not fresh:
                self.stopped_by = "closed"
                return
            if key is not None:
                fresh.sort(key=key)
            frontier = self._frontier = fresh
            yield fresh
        self.stopped_by = "radius"

    def report(self) -> ClassReport:
        """Run the closure to its end, expanding in the order reached, and
        sum it up: a finished round is the whole sphere in any order, and a
        `max_size` stop lands on the same count in the same round."""
        for _ in self._rounds(None):
            pass
        count = len(self.reached)
        if self.stopped_by == "closed":
            elems = tuple(sorted(self.reached, key=self._key))
            return ClassReport(EXACT_FINITE, elems, count, self.rounds, "closed")
        return ClassReport(AT_LEAST, None, count, self.rounds, self.stopped_by)


class Group(ABC):
    # the identity of the group: it spells out the constructor's arguments,
    # and a wreath product's spells out D, Q and the carrier
    kind: str
    # do elements already sort by `sort_key` in native Python order?  A
    # kind that says so lets callers sort its elements with no key frame
    native_order: bool = False

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
        self.validate(x)
        self.validate(y)
        return self._conjugate(x, y)

    def _conjugate(self, x, y):
        return self._multiply(self._multiply(self._inverse(y), x), y)

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

    def _capped_order(self) -> int:
        """min(order, _FINITE_SET_CAP + 1) for a finite group, with no
        number built past the cap where the order could be huge."""
        return min(self.order(), _FINITE_SET_CAP + 1)

    def elements(self):
        """All elements (finite kinds only); the catalog kinds yield them
        in sort_key order, which RegularQSet.finite_orbit_example uses."""
        raise Unsupported(f"{self.kind}: cannot enumerate an infinite group")

    @abstractmethod
    def sort_key(self, x):
        ...

    def __eq__(self, other):
        return isinstance(other, Group) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    # ---- property oracles ---------------------------------------------

    @abstractmethod
    def icc_status(self) -> IccStatus:
        ...

    @abstractmethod
    def fc_contains(self, x) -> bool:
        """Does x have a finite conjugacy class?"""
        ...

    @abstractmethod
    def fc_nontrivial_element(self):
        """Some FC element != 1, or None when FC is trivial."""
        ...

    def finite_invariant_set_example(self) -> frozenset:
        """The class of `fc_nontrivial_element()`, the smallest finite
        invariant set of nontrivial elements holding it, when FC != 1."""
        x = self.fc_nontrivial_element()
        if x is None:
            raise PreconditionError(f"{self.kind}: FC is trivial, no finite invariant set")
        return frozenset(finite_class(self, x, "the FC element"))

    # ---- streams -------------------------------------------------------

    # the ball elements streamed so far on this handle, in stream order
    # and at most _BALL_MEMO_CAP of them, and whether they are the whole
    # group
    _ball: tuple = ()
    _ball_closed: bool = False

    def ball_stream(self):
        """Deterministic generator-ball enumeration: BFS over the Cayley
        graph from the identity, each round sorted by sort_key.  Infinite
        for infinite groups, exhaustive for finite ones.

        The handle keeps the prefix that earlier streams consumed, and a
        stream first yields the prefix kept when it starts, with no
        arithmetic.  Only a stream pulled past that prefix runs the
        `Closure` from the identity: it runs through the prefix again,
        yields the elements beyond it and, when it ends or is closed,
        keeps the longer prefix, up to `_BALL_MEMO_CAP` elements; past the
        cap it carries on without keeping.  The BFS order is
        deterministic, so every stream yields the same sequence.  Once the
        closure has closed within the cap, the prefix is the whole group
        and later streams run no BFS.

        Each element beyond the prefix kept when the stream started is
        validated as the BFS builds it, before it is yielded or kept, so
        later streams yield a kept element with no check.  Past the cap
        nothing is kept, and every stream that yields an element there
        validates it.  So the callers trust what a stream yields, as they
        trust the arithmetic."""
        ball, closed = self._ball, self._ball_closed
        yield from ball
        if closed:
            return
        e, validate = self.identity(), self.validate
        bfs = Closure(e, self.generators, self._inverse, self._multiply, self.sort_key)
        sequence = itertools.chain([e], itertools.chain.from_iterable(bfs))
        more = []
        try:
            for x in itertools.islice(sequence, len(ball), _BALL_MEMO_CAP):
                validate(x)
                more.append(x)
                yield x
            if len(ball) + len(more) < _BALL_MEMO_CAP:
                self._ball_closed = True
            else:
                for x in sequence:
                    validate(x)
                    yield x
        finally:
            if len(ball) + len(more) > len(self._ball):
                self._ball = ball + tuple(more)

    def first_nontrivial(self):
        e = self.identity()
        for x in self.ball_stream():
            if x != e:
                return x
        raise PreconditionError(f"{self.kind}: trivial group")

    @abstractmethod
    def random_element(self, rng):
        ...

    # ---- literals -------------------------------------------------------

    @abstractmethod
    def format_element(self, x) -> str:
        ...

    @abstractmethod
    def parse_element(self, text: str):
        ...


def class_closure(G: Group, x, radius=math.inf, max_size=math.inf) -> Closure:
    """The closure of {x} under conjugation by the generators and their
    inverses, not yet run.  Each move is a pair (s, s^-1), and
    `reached[y] = (z, (s, s^-1))` says that y = s^-1 z s."""
    G.validate(x)
    mul = G._multiply
    return Closure(
        x,
        [(s, G._inverse(s)) for s in G.generators],
        lambda move: (move[1], move[0]),
        lambda y, move: mul(mul(move[1], y), move[0]),
        G.sort_key,
        radius,
        max_size,
    )


def finite_class(G: Group, x, name: str) -> tuple:
    """The class of x, an element with a finite class, closed exactly and
    sorted; a class of more than the listing cap is refused."""
    rep = class_closure(G, x, max_size=_FINITE_SET_CAP + 1).report()
    if rep.status != EXACT_FINITE:
        raise CertificateBudget(f"the class of {name} has more than {_FINITE_SET_CAP} elements")
    return rep.elements


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


class IntegersGroup(Group):
    kind = "integers"
    is_finite = False
    is_trivial = False
    native_order = True

    def identity(self):
        return 0

    # the sum and the negation, called without a wrapper
    _multiply = staticmethod(add)
    _inverse = staticmethod(neg)

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool):
            raise KindMismatch(f"integers: bad payload {x!r}")

    @property
    def generators(self):
        return (1,)

    def sort_key(self, x):
        return x

    def icc_status(self):
        return IccStatus(Tri.NO, "declared", "infinite abelian: every class is a singleton")

    def fc_contains(self, x):
        self.validate(x)
        return True

    def fc_nontrivial_element(self):
        return 1

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
    native_order = True

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
    return tuple(map(a.__getitem__, b))


def _perm_inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


class SymmetricGroup(_FiniteGroupMixin, Group):
    native_order = True

    def __init__(self, n: int):
        # refused before the two lists of n entries below are built
        if not 1 <= n <= _FINITE_SET_CAP:
            raise PreconditionError(f"symmetric: degree must be in 1..{_FINITE_SET_CAP}")
        self.n = n
        self.kind = f"symmetric({n})"
        self._points = list(range(n))
        self._int_types = [int] * n

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
        # 0.0 and True compare equal to 0 and 1, so the entry types are
        # checked too
        try:
            if (
                not isinstance(x, tuple)
                or len(x) != self.n
                or sorted(x) != self._points
                or list(map(type, x)) != self._int_types
            ):
                raise KindMismatch(f"symmetric({self.n}): bad payload {x!r}")
        except TypeError:  # an entry that does not compare with ints
            raise KindMismatch(f"symmetric({self.n}): bad payload {x!r}") from None

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

    def _capped_order(self):
        order = 1
        for k in range(2, self.n + 1):
            order *= k
            if order > _FINITE_SET_CAP:
                return _FINITE_SET_CAP + 1
        return order

    def elements(self):
        return itertools.permutations(range(self.n))

    def sort_key(self, x):
        return x

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


_WORD_TOKEN = re.compile(r"([a-z])(?:\^(-?\d+))?\Z")


def _reduce_concat(u: tuple, v: tuple) -> tuple:
    """Concatenate two freely reduced words, cancelling at the boundary:
    the last k letters of u against the first k of v."""
    if not u or not v or u[-1] != -v[0]:
        return u + v
    n = min(len(u), len(v))
    k = 1
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


class FreeGroup(Group):
    """Free group of given rank; words are tuples of signed 1-based
    generator indices, kept freely reduced."""

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise PreconditionError("free: rank must be in 1..26")
        self.rank = rank
        self.kind = f"free({rank})"
        self._letters = frozenset(range(-rank, rank + 1)) - {0}

    is_finite = False
    is_trivial = False

    def identity(self):
        return ()

    # the product is the reduced concatenation, called without a wrapper
    _multiply = staticmethod(_reduce_concat)

    def _inverse(self, a):
        return tuple(map(neg, a[::-1]))

    def validate(self, x):
        if not isinstance(x, tuple):
            raise KindMismatch(f"{self.kind}: bad payload {x!r}")
        letters = self._letters
        for g in x:
            if type(g) is not int or g not in letters:
                raise KindMismatch(f"{self.kind}: bad letter {g!r}")
        for a, b in zip(x, x[1:]):
            if a == -b:
                raise KindMismatch(f"{self.kind}: word not freely reduced: {x!r}")

    @property
    def generators(self):
        return tuple((i,) for i in range(1, self.rank + 1))

    def sort_key(self, x):
        return (len(x), x)

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
        w, length = (), 0
        for tok in text.split("*"):
            m = _WORD_TOKEN.match(tok.strip())
            if not m:
                raise ParseError(f"{self.kind}: bad word token {tok!r}")
            idx = ord(m.group(1)) - ord("a") + 1
            if idx > self.rank:
                raise ParseError(f"{self.kind}: generator {m.group(1)!r} out of rank")
            try:
                exp = int(m.group(2) or 1)
            except ValueError:  # more digits than Python converts
                raise ParseError(f"{self.kind}: exponent of {len(m.group(2))} digits") from None
            # refused before the run of letters is built
            length += abs(exp)
            if length > _FINITE_SET_CAP:
                raise ParseError(f"{self.kind}: word literal of more than {_FINITE_SET_CAP} letters")
            letter = idx if exp > 0 else -idx
            w = _reduce_concat(w, (letter,) * abs(exp))
        return w


class DirectProductGroup(Group):
    def __init__(self, factors: tuple):
        if not factors:
            raise PreconditionError("product: needs at least one factor")
        self.factors = tuple(factors)
        self.kind = "product(" + ", ".join(f.kind for f in self.factors) + ")"
        # the key is the tuple of the factors' keys
        self.native_order = all(f.native_order for f in self.factors)

    @property
    def is_finite(self):
        return all(f.is_finite for f in self.factors)

    @property
    def is_trivial(self):
        return all(f.is_trivial for f in self.factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

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

    def _capped_order(self):
        return min(math.prod(f._capped_order() for f in self.factors), _FINITE_SET_CAP + 1)

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def sort_key(self, x):
        return tuple(f.sort_key(c) for f, c in zip(self.factors, x))

    def icc_status(self):
        if self.is_trivial:
            return IccStatus(Tri.NO, "computed", "trivial product")
        # FC(A x B) = FC(A) x FC(B): the product is icc iff every factor
        # is trivial or icc.
        per = []
        for f in self.factors:
            per.append(Tri.YES if f.is_trivial else f.icc_status().answer)
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
