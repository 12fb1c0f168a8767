import importlib.resources

import pytest
from hypothesis import settings

from wricc.errors import PreconditionError
from wricc.groups import Closure, class_closure
from wricc.instances import parse_instance
from wricc.qsets import QSet
from wricc.tri import Tri
from wricc.wreath import WreathElement

# property tests draw the same examples on every run, with no per-example
# time limit and no stored examples replayed, so that the suite stays
# deterministic
settings.register_profile("wricc", derandomize=True, deadline=None, database=None)
settings.load_profile("wricc")

# one line per acceptance criterion, echoed after the run so the
# pass/fail summary survives output capturing
ACCEPTANCE_LINES = []


def record_acceptance(criterion: str, ok: bool, detail: str) -> bool:
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

CORPUS = [
    # (file, answer, cond_i, cond_ii, cond_iii)
    ("lamplighter", "yes", "yes", "no", "yes"),
    ("f2-wr-z2", "yes", "yes", "yes", "no"),
    ("trivial-omega", "no", "no", "no", "no"),
    ("mixed-union", "no", "yes", "no", "no"),
    ("mixed-union-icc-base", "yes", "yes", "yes", "no"),
    ("s3-wr-s3", "no", "yes", "no", "no"),
]

EXTRA = [
    ("z2-wr-s3", "no", "yes", "no", "no"),
    ("intmod-cond-i", "no", "no", "no", "no"),
]

# free actions beyond the shipped instances: one carrier of each kind
FREE_CARRIERS = [
    "{D: cyclic 2; Q: cyclic 4; omega: regular}",
    "{D: cyclic 2; Q: symmetric 2; omega: natural}",
    "{D: cyclic 2; Q: integers; omega: union(regular, regular)}",
    "{D: cyclic 2; Q: cyclic 1; omega: trivial 3}",
]


def instance_text(name: str) -> str:
    res = importlib.resources.files("wricc") / "instances_data" / f"{name}.wri"
    return res.read_text()


def load_instance(name: str):
    return parse_instance(instance_text(name))


def word_ball(G, radius: int) -> set:
    """Every product of at most `radius` letters from G's generators and
    their inverses, found by walking each word in full (no BFS, no pruning
    of repeats), so that it checks the oracle's enumeration independently."""
    letters = set(G.generators) | {G.inverse(s) for s in G.generators}
    ball = set()

    def walk(x, depth):
        ball.add(x)
        if depth < radius:
            for s in letters:
                walk(G.multiply(x, s), depth + 1)

    walk(G.identity(), 0)
    return ball


def orbit_closure(S, x, max_size):
    """The orbit of the point x under Q's generators and their inverses, as
    a bounded `Closure` summed up by its report: `exact-finite` iff the
    orbit closes with fewer than `max_size` points."""
    Q = S.Q
    return Closure(
        x, Q.generators, Q.inverse, lambda p, s: S.act(s, p), S.point_key, max_size=max_size
    ).report()


def lambda_translate(G, q, f):
    """lambda(q) f, the map f with each support point y moved to q.y, read
    off the product (eps, q)(f, 1) = (lambda(q) f, q)."""
    moved = G.multiply(WreathElement((), q), WreathElement(f, G.Q.identity()))
    assert moved.q == q
    return moved.phi


def pointwise_mul(G, f, g):
    """(fg)(x) = f(x) g(x) for two maps of the wreath product G, by a dict
    merge and `_canon`, independently of the kernels: at a shared point the
    left factor's value is multiplied by the right factor's (D may be
    nonabelian)."""
    acc = dict(f)
    mul = G.D._multiply
    for y, d in g:
        acc[y] = mul(acc[y], d) if y in acc else d
    return G._canon(acc.items())


def predicted_invariant_sets(G):
    """For a finite wreath product: finite conjugation-invariant sets that
    jointly cover every nontrivial conjugacy class.

    One finite-orbit style set holds all (phi, 1) with phi != eps (values
    range over the nontrivial base elements, a union of classes); each
    nontrivial class C of the acting group contributes the full slab
    {(phi, p) : p in C}.
    """
    if not G.is_finite:
        raise PreconditionError("predicted invariant sets require a finite group")
    one = G.Q.identity()
    elements = list(G.elements())
    sets = [frozenset(g for g in elements if g.phi and g.q == one)]
    remaining = {g.q for g in elements} - {one}
    while remaining:
        q = min(remaining, key=G.Q.sort_key)
        cls = set(class_closure(G.Q, q).report().elements)
        remaining -= cls
        sets.append(frozenset(g for g in elements if g.q in cls))
    return sets


@pytest.fixture
def lamplighter():
    return load_instance("lamplighter").group


@pytest.fixture
def f2_wr_z2():
    return load_instance("f2-wr-z2").group


@pytest.fixture
def z2_wr_s3():
    return load_instance("z2-wr-s3").group


@pytest.fixture
def mixed_union_icc():
    return load_instance("mixed-union-icc-base").group


@pytest.fixture
def s3_union():
    """Two orbits with a nonabelian base: a set of maps on the Z/3 part can
    be invariant under Q and under zeta_d on the regular part alone."""
    return parse_instance("{D: symmetric 3; Q: integers; omega: union(regular, int-mod 3)}").group


class OpaqueQSet(QSet):
    """A carrier whose structural oracles have no rule: everything that
    cannot be read off directly is Unknown."""

    carrier_kind = "opaque"

    def __init__(self, Q, kernel_ans=Tri.UNKNOWN, orbits_ans=Tri.UNKNOWN):
        self.Q = Q
        self._kernel_ans = kernel_ans
        self._orbits_ans = orbits_ans

    def _act(self, q, x):
        return q + x

    def validate_point(self, x):
        self.Q.validate(x)

    def point_key(self, x):
        return (abs(x), x < 0)

    def points_stream(self):
        yield 0
        k = 1
        while True:
            yield -k
            yield k
            k += 1

    def all_orbits_infinite(self):
        return self._orbits_ans

    def finite_orbit_example(self):
        return None

    def kernel_meets_fc(self):
        return (self._kernel_ans, None)

    def is_free_action(self):
        return Tri.UNKNOWN

    def kernel_description(self):
        return None

    def fixes_all_points(self, q):
        return Tri.UNKNOWN

    def _orbit_infinite(self, x):
        return Tri.UNKNOWN

    def orbit_representatives(self):
        return (0,)

    def random_point(self, rng):
        return rng.randrange(-5, 6)

    def format_point(self, x):
        return str(x)

    def parse_point(self, text):
        return int(text)
