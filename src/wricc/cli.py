"""Command-line entry point.

Commands: decide, witness, class, verify.  Exit codes: 0 success/PASS,
1 a verification check failed, 2 Unknown verdict, 3 usage/parse error or
a certificate over its size budget.
`--json` switches to line-delimited machine-readable records; the human
format is derived from the same record.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decision import decide_icc
from .errors import WriccError
from .instances import InstanceSpec, parse_instance
from .oracle import AT_LEAST, EXACT_FINITE_UNDER_GENS, class_lower_bound, enumerate_class
from .tri import Tri
from .witness import (
    FiniteClassCertificate,
    verify_finite_certificate,
    verify_infinite_certificate,
    witness,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def _load(path: str) -> InstanceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


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


def cmd_decide(args) -> int:
    spec = _load(args.instance)
    v = decide_icc(spec.group)
    _emit(
        {
            "command": "decide",
            "instance_hash": spec.instance_hash(),
            "group": spec.group.describe(),
            **_verdict_fields(v),
        },
        args.json,
    )
    return EXIT_UNKNOWN if v.answer is Tri.UNKNOWN else EXIT_OK


def cmd_witness(args) -> int:
    spec = _load(args.instance)
    G = spec.group
    v = decide_icc(G)
    if v.answer is Tri.UNKNOWN:
        _emit(
            {
                "command": "witness",
                "instance_hash": spec.instance_hash(),
                **_verdict_fields(v),
            },
            args.json,
        )
        return EXIT_UNKNOWN
    g = None
    if v.answer is Tri.YES:
        if args.element:
            g = G.parse_element(args.element)
        else:
            g = next(x for x in G.ball_stream() if x != G.identity())
    cert = witness(G, v, g)
    record = {
        "command": "witness",
        "instance_hash": spec.instance_hash(),
        "answer": str(v.answer),
    }
    if isinstance(cert, FiniteClassCertificate):
        elems = sorted(cert.elements, key=G.sort_key)
        record.update(
            {
                "certificate": "finite-class",
                "provenance": cert.provenance,
                "size": len(cert.elements),
                "size_formula": cert.size_formula,
                "base": G.format_element(cert.base),
                "elements": [G.format_element(e) for e in elems[:20]],
            }
        )
        if len(elems) > 20:
            record["elements_truncated"] = len(elems) - 20
    else:
        prefix = cert.take(args.prefix)
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
    radius = args.radius or spec.budgets.get("radius", 8)
    max_size = args.max_size or spec.budgets.get("max_size", 10000)
    rep = enumerate_class(G, g, radius, max_size)
    record = {
        "command": "class",
        "instance_hash": spec.instance_hash(),
        "element": G.format_element(g),
        "status": rep.status,
        "count": rep.count,
        "radius": radius,
        "max_size": max_size,
        "window": [G.omega.format_point(y) for y in rep.window],
    }
    if rep.elements is not None:
        record["elements"] = [G.format_element(e) for e in rep.elements[:20]]
        if len(rep.elements) > 20:
            record["elements_truncated"] = len(rep.elements) - 20
    _emit(record, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load(args.instance)
    G = spec.group
    # a flag overrides the instance file, which overrides the default
    seed = args.seed if args.seed is not None else spec.budgets.get("seed", 0)
    samples = args.samples if args.samples is not None else spec.budgets.get("samples", 500)
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    v = decide_icc(G)
    if v.answer is Tri.UNKNOWN:
        _emit(
            {
                "command": "verify",
                "instance_hash": spec.instance_hash(),
                **_verdict_fields(v),
            },
            args.json,
        )
        return EXIT_UNKNOWN

    if v.answer is Tri.NO:
        cert = witness(G, v)
        res = verify_finite_certificate(
            G, cert, sample_radius=3, sample_count=samples, seed=seed
        )
        check("finite-certificate", res, f"size {len(cert.elements)}; {res.reason}")
        rep = enumerate_class(G, cert.base, 16, len(cert.elements) + 1)
        contained = rep.status == EXACT_FINITE_UNDER_GENS and set(rep.elements) <= set(
            cert.elements
        )
        check(
            "oracle-containment",
            contained,
            f"oracle {rep.status} count {rep.count} within certificate",
        )
    else:
        import random

        rng = random.Random(seed)
        for i in range(args.elements):
            g = G.random_nontrivial_element(rng)
            fam = witness(G, v, g)
            res = verify_infinite_certificate(G, fam, N=args.prefix)
            check(
                f"infinite-family[{i}]",
                res,
                f"{fam.family_kind} on {G.format_element(g)}; {res.reason}",
            )
            rep, used = class_lower_bound(G, g, args.oracle_target)
            ok = rep.status == AT_LEAST and rep.count >= args.oracle_target
            check(
                f"oracle-growth[{i}]",
                ok,
                f"{rep.count} distinct conjugates within radius {used}",
            )

    all_ok = all(ok for _, ok, _ in checks)
    record = {
        "command": "verify",
        "instance_hash": spec.instance_hash(),
        "answer": str(v.answer),
        "seed": seed,
        "samples": samples,
        "checks": [
            f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks
        ],
        "result": "PASS" if all_ok else "FAIL",
    }
    _emit(record, args.json)
    return EXIT_OK if all_ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--max-size", dest="max_size", type=int, default=None)
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("verify", help="full decide/certify/cross-check run")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    p.add_argument(
        "--samples", type=int, default=None, help="sampled conjugators (default 500)"
    )
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
