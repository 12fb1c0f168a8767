"""Instance files: a small key-value format describing (D, Q, Omega).

Example::

    # the lamplighter group
    D: cyclic 2
    Q: integers
    omega: regular

Also accepted in one line: ``{D: cyclic 2; Q: integers; omega: regular}``.
Group descriptors: ``integers``, ``cyclic N``, ``symmetric N``, ``free N``,
``product(G, G, ...)``, ``wreath(G; G; OMEGA)``.  Carrier descriptors:
``regular``, ``trivial N``, ``int-mod N``, ``natural``,
``union(OMEGA, OMEGA, ...)``.  Nested wreath groups are allowed in the D
position only: a Q that holds one at any depth is refused.  Products,
unions and wreaths nest at most `_MAX_NESTING` levels deep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ._parsing import head_and_args, split_top
from .errors import ParseError
from .groups import (
    CyclicGroup,
    DirectProductGroup,
    FreeGroup,
    Group,
    IntegersGroup,
    SymmetricGroup,
)
from .qsets import (
    DisjointUnionQSet,
    IntModQSet,
    NaturalQSet,
    QSet,
    RegularQSet,
    TrivialQSet,
)
from .wreath import WreathProduct


# the most products, unions and wreaths a descriptor may sit inside (its
# `depth`): the parser and the groups' own methods recurse once per level
_MAX_NESTING = 32
_TOO_DEEP = f"descriptors nest more than {_MAX_NESTING} levels deep"


def _int_arg(name: str, args: str | None) -> int:
    if args is None:
        raise ParseError(f"{name}: missing numeric argument")
    try:
        return int(args.strip())
    except ValueError:
        raise ParseError(f"{name}: bad numeric argument {args!r}")


def parse_group(text: str, depth: int = 0) -> Group:
    if depth > _MAX_NESTING:
        raise ParseError(_TOO_DEEP)
    name, args = head_and_args(text)
    name = name.lower()
    if name == "integers":
        return IntegersGroup()
    if name == "cyclic":
        return CyclicGroup(_int_arg(name, args))
    if name == "symmetric":
        return SymmetricGroup(_int_arg(name, args))
    if name == "free":
        return FreeGroup(_int_arg(name, args))
    if name == "product":
        if not args:
            raise ParseError("product: missing factors")
        parts = split_top(args, ",")
        return DirectProductGroup(tuple(parse_group(p, depth + 1) for p in parts))
    if name == "wreath":
        if not args:
            raise ParseError("wreath: missing arguments")
        parts = split_top(args, ";")
        if len(parts) != 3:
            raise ParseError("wreath descriptor needs three ';'-separated parts: D; Q; omega")
        D, Q = parse_group(parts[0], depth + 1), parse_group(parts[1], depth + 1)
        return build_wreath(D, Q, parts[2], depth + 1)
    raise ParseError(f"unknown group kind {name!r}")


def parse_omega(text: str, Q: Group, depth: int = 0) -> QSet:
    if depth > _MAX_NESTING:
        raise ParseError(_TOO_DEEP)
    name, args = head_and_args(text)
    name = name.lower()
    if name == "regular":
        return RegularQSet(Q)
    if name == "trivial":
        return TrivialQSet(Q, _int_arg(name, args))
    if name in ("int-mod", "intmod", "mod"):
        return IntModQSet(Q, _int_arg(name, args))
    if name == "natural":
        return NaturalQSet(Q)
    if name == "union":
        if not args:
            raise ParseError("union: missing parts")
        parts = split_top(args, ",")
        return DisjointUnionQSet(tuple(parse_omega(p, Q, depth + 1) for p in parts))
    raise ParseError(f"unknown carrier kind {name!r}")


def build_wreath(D: Group, Q: Group, omega_text: str, depth: int = 0) -> WreathProduct:
    return WreathProduct(D, Q, parse_omega(omega_text, Q, depth))


@dataclass
class InstanceSpec:
    group: WreathProduct
    d_text: str
    q_text: str
    omega_text: str
    budgets: dict = field(default_factory=dict)

    def instance_hash(self) -> str:
        # the empty last field stood for a key that no longer exists; it
        # stays so that the hashes of existing records do not move
        canon = "|".join(
            [self.d_text.strip(), self.q_text.strip(), self.omega_text.strip(), ""]
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


# a tuple, so that budgets are read in a fixed order
_BUDGET_KEYS = ("radius", "max_size", "seed")


def parse_instance(text: str) -> InstanceSpec:
    stripped = text.strip()
    if stripped.startswith("{") and stripped.endswith("}"):
        entries = split_top(stripped[1:-1], ";")
    else:
        entries = []
        for line in stripped.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append(line)
    fields: dict[str, str] = {}
    for entry in entries:
        if ":" not in entry:
            raise ParseError(f"expected 'key: value', got {entry!r}")
        key, value = entry.split(":", 1)
        key = key.strip().lower()
        if key == "max-size":  # both spellings name one budget: giving both is a duplicate
            key = "max_size"
        value = value.strip()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}")
        fields[key] = value
    for required in ("d", "q", "omega"):
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    known = {"d", "q", "omega", *_BUDGET_KEYS}
    for key in fields:
        if key not in known:
            raise ParseError(f"unknown key {key!r}")
    Q = parse_group(fields["q"])
    D = parse_group(fields["d"])
    group = build_wreath(D, Q, fields["omega"])
    budgets = {key: _int_arg(key, fields[key]) for key in _BUDGET_KEYS if key in fields}
    return InstanceSpec(
        group=group,
        d_text=fields["d"],
        q_text=fields["q"],
        omega_text=fields["omega"],
        budgets=budgets,
    )
