"""Check `InstanceSpec.instance_hash` against `hashlib`'s SHA-256 on the 8
shipped instances and the 14 that `pinned.CI_INSTANCES` adds.

    python3 tests/check_digests.py            # the interpreter's own module
    python3 tests/check_digests.py --hashlib  # hide it: the hashlib fallback

Every digest is taken before this script imports `hashlib`, so the run
shows which module served them: `_sha256` (CPython 3.10, 3.11), `_sha2`
(3.12 on) or, with `--hashlib`, which hides both, `hashlib`.  It prints
one JSON line and exits 1 when a digest differs.  It needs no pytest, so
it runs under any interpreter the package supports; `test_package.py`
runs it both ways.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def instances() -> dict[str, str]:
    """name -> text: the shipped files, by name, then `CI_INSTANCES`, read
    from `pinned.py`'s source, as importing it would import `hashlib`."""
    texts = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((SRC / "wricc" / "instances_data").glob("*.wri"))
    }
    tree = ast.parse((TESTS / "pinned.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CI_INSTANCES"]:
            texts.update(ast.literal_eval(node.value))
    return texts


def spec_of(text: str):
    """The instance's spec; for one the parser refuses (`product-q`), a
    spec of its one-line texts and no group, which its digest never reads."""
    from wricc import InstanceSpec, WriccError, parse_instance
    from wricc._parsing import split_top

    try:
        return parse_instance(text)
    except WriccError:
        entries = split_top(text.strip()[1:-1], ";")
        d, q, omega = (entry.split(":", 1)[1] for entry in entries)
        return InstanceSpec(None, d, q, omega)


def main(argv: list[str]) -> int:
    if argv == ["--hashlib"]:
        sys.modules["_sha256"] = sys.modules["_sha2"] = None
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    specs = {name: spec_of(text) for name, text in instances().items()}
    digests = {name: spec.instance_hash() for name, spec in specs.items()}
    served = [m for m in ("_sha256", "_sha2", "hashlib") if sys.modules.get(m) is not None]
    import hashlib

    wrong = []
    for name, spec in specs.items():
        canon = "|".join([spec.d_text.strip(), spec.q_text.strip(), spec.omega_text.strip(), ""])
        if hashlib.sha256(canon.encode()).hexdigest()[:12] != digests[name]:
            wrong.append(name)
    version = ".".join(map(str, sys.version_info[:3]))
    print(json.dumps({"python": version, "served": served, "wrong": wrong, "digests": digests}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
