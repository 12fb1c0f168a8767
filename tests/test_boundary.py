"""The public surface validates: every public method of each group kind,
each carrier kind and `WreathProduct` is classified, and each one that
takes an element or a point rejects malformed operands with a
`WriccError`, never with a value or another exception.

The public method lists are pinned, so a new public method fails here
until it is classified: as a method that validates its operands, as a
trusted key or format helper, or as one that takes no element or point.
"""

import inspect

import pytest

from wricc.errors import WriccError
from wricc.groups import (
    CyclicGroup,
    DirectProductGroup,
    FreeGroup,
    Group,
    IntegersGroup,
    SymmetricGroup,
)
from wricc.instances import parse_instance
from wricc.qsets import (
    DisjointUnionQSet,
    IntModQSet,
    NaturalQSet,
    QSet,
    RegularQSet,
    TrivialQSet,
)
from wricc.wreath import WreathElement, WreathProduct

# the roles of the operands of each method that takes an element or a
# point: "element" of the group itself, "q" of the acting group, "point"
# of the carrier, "value" of the base group, "map" a finitely supported map
CHECKED = {
    "multiply": ("element", "element"),
    "inverse": ("element",),
    "conjugate": ("element", "element"),
    "validate": ("element",),
    "fc_contains": ("element",),
    "act": ("q", "point"),
    "validate_point": ("point",),
    "orbit_infinite": ("point",),
    "fixes_all_points": ("q",),
    "zeta": ("value", "point"),
}
# key and format helpers: they run on what the group built and trust it
TRUSTED = {"sort_key", "point_key", "format_element", "format_point"}
# methods that take no element or point (literals, random generators,
# structure and oracles of the whole group or carrier)
NO_OPERAND = {
    "identity", "order", "elements", "icc_status",
    "fc_nontrivial_element", "finite_invariant_set_example", "ball_stream",
    "first_nontrivial", "random_element", "parse_element", "random_nontrivial_element",
    "points_stream", "points", "all_orbits_infinite", "finite_orbit_example",
    "kernel_meets_fc", "is_free_action", "kernel_description", "orbit_representatives",
    "random_point", "parse_point",
}

GROUP_API = {
    "identity", "multiply", "inverse", "conjugate", "validate", "order", "elements",
    "sort_key", "icc_status", "fc_contains",
    "fc_nontrivial_element", "finite_invariant_set_example", "ball_stream",
    "first_nontrivial", "random_element", "format_element", "parse_element",
}
QSET_API = {
    "act", "validate_point", "point_key", "points_stream", "points",
    "all_orbits_infinite", "finite_orbit_example", "kernel_meets_fc", "is_free_action",
    "kernel_description", "fixes_all_points", "orbit_infinite",
    "orbit_representatives", "random_point", "format_point", "parse_point",
}
PINNED = {
    IntegersGroup: GROUP_API,
    CyclicGroup: GROUP_API,
    SymmetricGroup: GROUP_API,
    FreeGroup: GROUP_API,
    DirectProductGroup: GROUP_API,
    WreathProduct: GROUP_API | {"zeta", "random_nontrivial_element"},
    RegularQSet: QSET_API,
    IntModQSet: QSET_API,
    TrivialQSet: QSET_API,
    NaturalQSet: QSET_API,
    DisjointUnionQSet: QSET_API,
}


def _public_methods(cls):
    return {
        name
        for name, value in inspect.getmembers(cls)
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.ismethod(value))
    }


def _concrete_kinds(base):
    found, todo = set(), [base]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("wricc.") and not inspect.isabstract(cls):
            found.add(cls)
    return found


def test_every_kind_is_pinned():
    assert _concrete_kinds(Group) | _concrete_kinds(QSet) == set(PINNED)


@pytest.mark.parametrize("cls", list(PINNED), ids=lambda c: c.__name__)
def test_public_methods_are_pinned(cls):
    assert _public_methods(cls) == PINNED[cls]


def test_every_public_method_is_classified():
    public = set().union(*PINNED.values())
    classes = [set(CHECKED), TRUSTED, NO_OPERAND]
    assert set().union(*classes) == public
    assert sum(map(len, classes)) == len(public)  # each in one class only


Z = IntegersGroup()
S3 = SymmetricGroup(3)

# one or more instances of every kind; each carrier and wreath product has
# at least two points, so that an unsorted map can be built
GROUPS = [
    Z,
    CyclicGroup(3),
    S3,
    FreeGroup(2),
    DirectProductGroup((Z, S3)),
] + [
    parse_instance(text).group
    for text in (
        "{D: cyclic 2; Q: integers; omega: regular}",
        "{D: symmetric 3; Q: symmetric 3; omega: natural}",
        "{D: free 2; Q: integers; omega: union(regular, int-mod 3)}",
        "{D: symmetric 3; Q: integers; omega: int-mod 3}",
        "{D: cyclic 2; Q: cyclic 2; omega: trivial 2}",
        "{D: wreath(cyclic 2; integers; regular); Q: integers; omega: regular}",
    )
]
CARRIERS = [
    RegularQSet(Z),
    RegularQSet(S3),
    IntModQSet(Z, 3),
    TrivialQSet(Z, 2),
    NaturalQSet(S3),
    DisjointUnionQSet((RegularQSet(Z), IntModQSet(Z, 3))),
    DisjointUnionQSet((NaturalQSet(S3), TrivialQSet(S3, 2))),
]
assert {type(x) for x in GROUPS + CARRIERS} == set(PINNED)

# out-of-range payloads of the right container type, per base kind
OUT_OF_RANGE = {
    "integers": [],
    "cyclic(3)": [3, -1],
    "symmetric(3)": [(0, 0, 1), (0, 1, 3), (0, "a", 2), (0, 1)],
    "free(2)": [(1, -1), (3,), (0,), ("a",), (True,), (1, True)],
    "product(integers, symmetric(3))": [(1,), (1, (0, 0, 1)), ("x", (0, 1, 2))],
    "cyclic(2)": [2],
}


def bad_elements(G):
    """Malformed elements of G: a wrong type, a bare tuple ((), q), and
    out-of-range payloads; for a wreath product also unsorted maps, stored
    identities, and out-of-range points, values and acting parts."""
    out = ["junk", 1.5, None, True]
    if isinstance(G, WreathProduct):
        q = G.Q.identity()
        out.append(((), q))
        out += [WreathElement(f, q) for f in bad_maps(G)]
        out += [WreathElement((), p) for p in bad_elements(G.Q)]
        return out
    return out + [((), G.identity())] + OUT_OF_RANGE[G.kind]


def bad_maps(G):
    y0, y1 = sorted(_two_points(G.omega), key=G.omega.point_key)
    d = G.D.first_nontrivial()
    out = [
        "junk",
        [(y0, d)],
        ((y1, d), (y0, d)),  # unsorted
        ((y0, d), (y0, d)),  # repeated point
        ((y0, G.D.identity()),),  # stored identity
        ((y0,),),
    ]
    out += [((p, d),) for p in bad_points(G.omega)]
    out += [((y0, v),) for v in bad_elements(G.D)]
    return out


def bad_points(S):
    if isinstance(S, RegularQSet):
        return bad_elements(S.Q)
    if isinstance(S, DisjointUnionQSet):
        out = ["junk", 99, None, ((), 0), (0,), (0, 0, 0)]
        out += [(len(S.parts), 0), (-1, 0), (True, 0)]  # part index out of range
        return out + [(i, p) for i, part in enumerate(S.parts) for p in bad_points(part)]
    return ["junk", 1.5, None, True, -1, S.size, ((), 0)]


def _two_points(S):
    it = S.points_stream()
    return next(it), next(it)


def _good(role, obj):
    if role == "element":
        return obj.generators[0]
    if role == "q":
        return obj.Q.identity()
    if role == "point":
        return _two_points(obj if isinstance(obj, QSet) else obj.omega)[0]
    if role == "value":
        return obj.D.first_nontrivial()
    return ()  # the empty map


def _bad(role, obj):
    if role == "element":
        return bad_elements(obj)
    if role == "q":
        return bad_elements(obj.Q)
    if role == "point":
        return bad_points(obj if isinstance(obj, QSet) else obj.omega)
    if role == "value":
        return bad_elements(obj.D)
    return bad_maps(obj)


def _label(obj):
    return obj.kind if isinstance(obj, Group) else obj.carrier_kind


@pytest.mark.parametrize("obj", GROUPS + CARRIERS, ids=_label)
def test_malformed_operands_raise_wricc_errors(obj):
    calls = 0
    for name in sorted(_public_methods(type(obj)) & set(CHECKED)):
        roles = CHECKED[name]
        good = [_good(r, obj) for r in roles]
        for i, role in enumerate(roles):
            for bad in _bad(role, obj):
                args = good[:i] + [bad] + good[i + 1 :]
                calls += 1
                try:
                    result = getattr(obj, name)(*args)
                except WriccError:
                    continue
                pytest.fail(f"{name}{tuple(args)!r} returned {result!r}")
    assert calls > 0
