"""Command-line entry point.

Commands: decide, witness, class, verify.  Exit codes: 0 success/PASS,
1 a verification check failed, 2 Unknown verdict, 3 usage error (a bad or
missing flag or command), parse error, a certificate listing over its size
budget, or a certificate base whose class passes the oracle's conjugate
budget before it closes.
The argument parser is built on the first `main` call and reused by every
later one in the process.
`--json` switches to line-delimited machine-readable records; the human
format is derived from the same record.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .decision import decide_icc
from .errors import ParseError, WriccError
from .instances import InstanceSpec, parse_instance
from .oracle import enumerate_class
from .tri import Tri
from .verify import check_budgets, verify_instance
from .witness import FiniteClassCertificate, OrbitMaps, check_prefix, format_size, witness

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def _load(path: str) -> InstanceSpec:
    # utf-8-sig drops a leading byte-order mark, which is not instance text
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e
    return parse_instance(text)


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, sort_keys=True))
        return
    cmd = record.pop("command")
    inst = record.pop("instance_hash")
    print(f"[{cmd}] instance {inst}")
    for key, value in record.items():
        if isinstance(value, list):
            print(f"  {key}:")
            for item in value:
                print(f"    - {item}")
        else:
            print(f"  {key}: {value}")


def _verdict_fields(v) -> dict:
    return {
        "answer": str(v.answer),
        "cond_i": str(v.cond_i),
        "cond_ii": str(v.cond_ii),
        "cond_iii": str(v.cond_iii),
        "reason": v.reason,
        "corollary_used": v.corollary_used,
    }


def _emit_unknown(command: str, spec: InstanceSpec, v, as_json: bool) -> int:
    """No certificate exists for an Unknown verdict: report the verdict."""
    record = {"command": command, "instance_hash": spec.instance_hash(), **_verdict_fields(v)}
    _emit(record, as_json)
    return EXIT_UNKNOWN


def cmd_decide(args) -> int:
    spec = _load(args.instance)
    v = decide_icc(spec.group)
    _emit(
        {
            "command": "decide",
            "instance_hash": spec.instance_hash(),
            "group": spec.group.kind,
            **_verdict_fields(v),
        },
        args.json,
    )
    return EXIT_UNKNOWN if v.answer is Tri.UNKNOWN else EXIT_OK


def cmd_witness(args) -> int:
    check_prefix(args.prefix)
    spec = _load(args.instance)
    G = spec.group
    # parsed whatever the verdict, so a malformed literal is always refused
    g = G.parse_element(args.element) if args.element is not None else None
    v = decide_icc(G)
    if v.answer is Tri.UNKNOWN:
        return _emit_unknown("witness", spec, v, args.json)
    if v.answer is Tri.YES and g is None:
        g = G.first_nontrivial()
    cert = witness(G, v, g)
    record = {
        "command": "witness",
        "instance_hash": spec.instance_hash(),
        "answer": str(v.answer),
    }
    if isinstance(cert, FiniteClassCertificate):
        # S(O, xi) is walked in the group's order; an explicit set is sorted
        S = cert.elements
        elems = S if isinstance(S, OrbitMaps) else sorted(S, key=G.sort_key)
        record.update(
            {
                "certificate": "finite-class",
                "provenance": cert.provenance,
                "size": format_size(cert.size),
                "size_formula": cert.size_formula,
                "base": G.format_element(cert.base),
                "elements": [G.format_element(e) for e in itertools.islice(elems, 20)],
            }
        )
        if cert.size > 20:
            record["elements_truncated"] = format_size(cert.size - 20)
    else:
        # the family was checked against its kind when `witness` made it
        prefix = list(cert.members(args.prefix))
        record.update(
            {
                "certificate": "infinite-family",
                "family": cert.family_kind,
                "base": G.format_element(cert.base),
                "members": [
                    f"h={G.format_element(h)} -> {G.format_element(c)}"
                    for h, c in prefix[:10]
                ],
                "distinct_prefix": len(prefix),
            }
        )
    _emit(record, args.json)
    return EXIT_OK


def cmd_class(args) -> int:
    spec = _load(args.instance)
    G = spec.group
    g = G.parse_element(args.element)
    # a zero budget, or a max_size past the listing cap, reaches
    # enumerate_class, which refuses it
    rep = enumerate_class(G, g, args.radius, args.max_size)
    record = {
        "command": "class",
        "instance_hash": spec.instance_hash(),
        "element": G.format_element(g),
        "status": rep.status,
        "count": rep.count,
        "radius": args.radius,
        "max_size": args.max_size,
        "rounds_used": rep.rounds_used,
        "stopped_by": rep.stopped_by,
    }
    if rep.elements is not None:
        record["elements"] = [G.format_element(e) for e in rep.elements[:20]]
        if len(rep.elements) > 20:
            record["elements_truncated"] = len(rep.elements) - 20
    _emit(record, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    check_budgets(args.elements, args.prefix, args.oracle_target)
    spec = _load(args.instance)
    report = verify_instance(
        spec.group,
        seed=args.seed,
        elements=args.elements,
        prefix=args.prefix,
        oracle_target=args.oracle_target,
    )
    if report.verdict.answer is Tri.UNKNOWN:
        return _emit_unknown("verify", spec, report.verdict, args.json)
    record = {
        "command": "verify",
        "instance_hash": spec.instance_hash(),
        "answer": str(report.verdict.answer),
        "seed": report.seed,
        "checks": [
            f"{'PASS' if res else 'FAIL'} {name}: {res.reason}"
            for name, res in report.checks.items()
        ],
        "result": "PASS" if report.ok else "FAIL",
    }
    _emit(record, args.json)
    return EXIT_OK if report.ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """argparse's own exit code for a usage error is 2, which `wricc`
    gives an Unknown verdict; subparsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# one parser per process: it holds no per-call state, as each parse_args
# returns a fresh Namespace and no action has a mutable default
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wricc",
        description="Decide and certify the infinite-conjugacy-class property "
        "of restricted wreath products.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("-i", "--instance", required=True, help="instance file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("decide", help="apply the icc criterion")
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("witness", help="produce a certificate for the verdict")
    common(p)
    p.add_argument("-g", "--element", help="element literal for a Yes verdict")
    p.add_argument("--prefix", type=int, default=10, help="family prefix length to emit")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("class", help="bounded conjugacy-class enumeration")
    common(p)
    p.add_argument("-g", "--element", required=True, help="element literal")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--max-size", dest="max_size", type=int, default=10000)
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("verify", help="full decide/certify/cross-check run")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--elements", type=int, default=5, help="sampled elements (Yes verdicts)")
    p.add_argument("--prefix", type=int, default=100, help="verified family prefix")
    p.add_argument(
        "--oracle-target", type=int, default=200, help="required distinct conjugates"
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WriccError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error [io]: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
