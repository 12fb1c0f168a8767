"""Instance files: a small key-value format describing (D, Q, Omega).

Example::

    # the lamplighter group
    D: cyclic 2
    Q: integers
    omega: regular

The keys are ``D``, ``Q`` and ``omega``, each exactly once, in any order
and any case; any other key is refused.  A ``#`` starts a comment that runs
to the end of its line.  Also accepted in one line, with comment lines
before or after it: ``{D: cyclic 2; Q: integers; omega: regular}``.
Group descriptors: ``integers``, ``cyclic N``, ``symmetric N``, ``free N``,
``product(G, G, ...)``, ``wreath(G; G; OMEGA)``.  Carrier descriptors:
``regular``, ``trivial N``, ``int-mod N``, ``natural``,
``union(OMEGA, OMEGA, ...)``.  Nested wreath groups are allowed in the D
position only: a Q that holds one at any depth is refused.  Products,
unions and wreaths nest at most `_MAX_NESTING` levels deep.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

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


class InstanceSpec(NamedTuple):
    """A parsed instance: its group and the three descriptors it was
    written with."""

    group: WreathProduct
    d_text: str
    q_text: str
    omega_text: str

    def instance_hash(self) -> str:
        # the empty last field stood for a key that no longer exists; it
        # stays so that the hashes of existing records do not move
        canon = "|".join(
            [self.d_text.strip(), self.q_text.strip(), self.omega_text.strip(), ""]
        )
        return _sha256()(canon.encode()).hexdigest()[:12]


@cache
def _sha256():
    """The SHA-256 constructor of the interpreter's own small module
    (`_sha256` to CPython 3.11, `_sha2` from 3.12), as `random` takes its
    SHA-512: importing `hashlib` maps OpenSSL's libcrypto, about 3.6 MB of
    peak RSS and 3 ms (CPython 3.11, 2 vCPUs), for one short digest per
    record.  `hashlib` only where neither module was built; the digest is
    the same."""
    for name in ("_sha256", "_sha2"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


def parse_instance(text: str) -> InstanceSpec:
    # comments go before the form is chosen, so that a one-liner may have
    # comment lines around it; a line without `#` is kept as it is, with
    # its line break, so no descriptor text (and no hash) moves
    text = "".join(
        line.split("#", 1)[0] + "\n" if "#" in line else line
        for line in text.splitlines(keepends=True)
    )
    stripped = text.strip()
    if stripped.startswith("{") and stripped.endswith("}"):
        entries = split_top(stripped[1:-1], ";")
    else:
        entries = [line.strip() for line in stripped.splitlines() if line.strip()]
    fields: dict[str, str] = {}
    for entry in entries:
        if ":" not in entry:
            raise ParseError(f"expected 'key: value', got {entry!r}")
        key, value = entry.split(":", 1)
        key = key.strip().lower()
        value = value.strip()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}")
        fields[key] = value
    keys = ("d", "q", "omega")
    for required in keys:
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    for key in fields:
        if key not in keys:
            raise ParseError(f"unknown key {key!r}")
    Q = parse_group(fields["q"])
    D = parse_group(fields["d"])
    group = build_wreath(D, Q, fields["omega"])
    return InstanceSpec(group, fields["d"], fields["q"], fields["omega"])
