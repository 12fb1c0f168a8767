"""Reference arithmetic and instance facts for checking `wricc` outputs.

Kept apart from the program on purpose: nothing here imports `wricc`.
Elements use the program's documented payloads (ints for Z and Z/n,
image tuples for permutations, tuples of signed 1-based letters for free
words, `(part, point)` for union points), but every product, inverse,
action and conjugation is computed here, with finitely supported maps held
as dicts.  A wreath element is the hashable pair
`(frozenset of (point, value) items with no identity value, q)`.

Conventions (pinned by `reftest.py` against products worked by hand):
- permutations compose right to left, `(a*b)[i] = a[b[i]]`, and act on
  points by `q.x = q[x]`;
- `(f, q)(f', q') = (f * lambda_q f', q q')`, where `lambda_q` moves the
  support point `y` to `q.y` and `*` multiplies values pointwise, left
  factor first.
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


class Integers:
    one = 0
    gens = (1,)

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def in_fc(self, q):
        return True


class Cyclic:
    def __init__(self, n):
        self.n = n
        self.one = 0
        self.gens = (1,)

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def in_fc(self, q):
        return True


class Symmetric:
    """S_n, generated here by the transpositions (0 1) and (1 2) ... (n-2 n-1)."""

    def __init__(self, n):
        self.n = n
        self.one = tuple(range(n))
        gens = []
        for i in range(n - 1):
            p = list(range(n))
            p[i], p[i + 1] = p[i + 1], p[i]
            gens.append(tuple(p))
        self.gens = tuple(gens)

    def mul(self, a, b):
        return tuple(a[i] for i in b)

    def inv(self, a):
        out = [0] * len(a)
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def in_fc(self, q):
        return True


class Free:
    """Free group on `rank` letters; words are freely reduced with a stack."""

    one = ()

    def __init__(self, rank):
        self.rank = rank
        self.gens = tuple((i,) for i in range(1, rank + 1))

    def mul(self, a, b):
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def in_fc(self, q):
        # a nonabelian free group has trivial FC-centre
        return self.rank == 1 or q == ()


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


class Regular:
    def __init__(self, Q):
        self.Q = Q

    def act(self, q, x):
        return self.Q.mul(q, x)

    def orbit_reps(self):
        return (self.Q.one,)


class IntMod:
    """Z/n with Z acting by translation."""

    def __init__(self, n):
        self.n = n

    def act(self, q, x):
        return (x + q) % self.n

    def orbit_reps(self):
        return (0,)


class Trivial:
    def __init__(self, size):
        self.size = size

    def act(self, q, x):
        return x

    def orbit_reps(self):
        return tuple(range(self.size))


class Natural:
    """S_n acting on {0..n-1}: one orbit."""

    def act(self, q, x):
        return q[x]

    def orbit_reps(self):
        return (0,)


class Union:
    def __init__(self, *parts):
        self.parts = parts

    def act(self, q, x):
        i, p = x
        return (i, self.parts[i].act(q, p))

    def orbit_reps(self):
        return tuple((i, r) for i, part in enumerate(self.parts) for r in part.orbit_reps())


# ---------------------------------------------------------------------------
# wreath products
# ---------------------------------------------------------------------------


class Wreath:
    def __init__(self, D, Q, omega):
        self.D = D
        self.Q = Q
        self.omega = omega
        self.one = (frozenset(), Q.one)

    def elem(self, phi: dict, q):
        return (frozenset((y, d) for y, d in phi.items() if d != self.D.one), q)

    def mul(self, g, h):
        f1, q1 = g
        f2, q2 = h
        out = dict(f1)
        for y, d in f2:
            y2 = self.omega.act(q1, y)
            out[y2] = self.D.mul(out[y2], d) if y2 in out else d
        return self.elem(out, self.Q.mul(q1, q2))

    def inv(self, g):
        f, q = g
        qi = self.Q.inv(q)
        return self.elem({self.omega.act(qi, y): self.D.inv(d) for y, d in f}, qi)

    def conj(self, g, h):
        """h^-1 g h."""
        return self.mul(self.mul(self.inv(h), g), h)

    def generating_set(self):
        """The Q-generators and zeta_d^y for every D-generator d and one
        point y in each Q-orbit: these generate all of G."""
        gens = [(frozenset(), s) for s in self.Q.gens]
        for y in self.omega.orbit_reps():
            for d in self.D.gens:
                gens.append((frozenset({(y, d)}), self.Q.one))
        return gens

    def closure_counterexample(self, S):
        """None when the finite set S is closed under conjugation by every
        generator (so G-invariant: conjugation is injective, hence a
        bijection of S); otherwise (s, t, s^t) with s^t outside S."""
        for t in self.generating_set():
            for s in S:
                c = self.conj(s, t)
                if c not in S:
                    return (s, t, c)
        return None


def from_program(g):
    """A program `WreathElement` as a reference element (fields only)."""
    return (frozenset(g.phi), g.q)


# ---------------------------------------------------------------------------
# instance facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Facts:
    """What the paper's criterion needs about one instance, stated here
    from the group theory, not read from the program."""

    group: Wreath
    d_icc: bool
    orbits_infinite: bool
    kernel_meets_fc: bool
    finite_orbit: int = 0  # size of the finite orbit a finite-orbit certificate uses
    q0_class: int = 0  # |q0^Q| for a condition-(i) certificate

    @property
    def icc(self) -> bool:
        return not self.kernel_meets_fc and (self.d_icc or self.orbits_infinite)

    @property
    def finite_provenance(self) -> str:
        return "condition-i" if self.kernel_meets_fc else "finite-orbit"

    def family_kind(self, q) -> str:
        """The infinite family the proof uses for an element acting by q."""
        Q = self.group.Q
        if not Q.in_fc(q):
            return "q-translation"
        if self.orbits_infinite:
            return "lambda-translation"
        return "g_d" if q != Q.one else "value-conjugation"


Z = Integers()
Z2 = Cyclic(2)
S3 = Symmetric(3)
F2 = Free(2)

FACTS = {
    "lamplighter": Facts(Wreath(Z2, Z, Regular(Z)), False, True, False),
    "f2-wr-z2": Facts(Wreath(F2, Z2, Regular(Z2)), True, False, False),
    "mixed-union-icc-base": Facts(
        Wreath(F2, Z, Union(Regular(Z), IntMod(3))), True, False, False
    ),
    "z2-wr-f2": Facts(Wreath(Z2, F2, Regular(F2)), False, True, False),
    "s3-wr-s3": Facts(Wreath(S3, S3, Natural()), False, False, False, finite_orbit=3),
    "z2-wr-s3": Facts(Wreath(Z2, S3, Natural()), False, False, False, finite_orbit=3),
    "mixed-union": Facts(
        Wreath(Z2, Z, Union(Regular(Z), IntMod(3))), False, False, False, finite_orbit=3
    ),
    # kernel 3Z meets FC(Z) = Z; Z is abelian, so |q0^Q| = 1
    "intmod-cond-i": Facts(Wreath(S3, Z, IntMod(3)), False, False, True, q0_class=1),
    "trivial-omega": Facts(Wreath(Z2, Z, Trivial(1)), False, False, True, q0_class=1),
    "s3-union": Facts(
        Wreath(S3, Z, Union(Regular(Z), IntMod(3))), False, False, False, finite_orbit=3
    ),
}


# ---------------------------------------------------------------------------
# element literals
# ---------------------------------------------------------------------------


def free_literal(w) -> str:
    if not w:
        return "1"
    return "*".join(chr(ord("a") + abs(x) - 1) + ("" if x > 0 else "^-1") for x in w)


def random_free_word(rng, min_len, max_len):
    """A freely reduced word in a, b of min_len..max_len letters."""
    w = ()
    target = rng.randint(min_len, max_len)
    while len(w) < target:
        x = rng.choice((-2, -1, 1, 2))
        if not w or w[-1] != -x:
            w = w + (x,)
    return w
