"""The pinned `wricc` outputs in `tests/records/`: which commands they are,
how each one runs and how its file is written.

Each file holds one command's exit code, stdout and stderr, run in-process
through `cli.main` on one instance.  Long outputs are stored as a sha256
digest.  The six `witness --prefix 300` records, one or two per family
kind, also pin the digest of the 300 lines "conjugator -> conjugate" that
the library lists for the family.  The instances CI runs beyond the
shipped ones, three whose D or Q is a direct product, and a union of two
infinite orbits, get `decide --json`, `witness --json` and
`verify --json --seed 42` records, refusals included.  `class --json` is
pinned on one element of each of five shipped instances: an open class
(`--max-size 201`) on each icc instance and a closed one, listed in
sorted order, on each finite one.  `test_records.py` runs every command
again and compares the whole file, byte for byte.

A change that alters an output on purpose regenerates the files from the
root of the checkout, and the diff of `tests/records/` shows each change:

    PYTHONPATH=src python3 tests/pinned.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import tempfile
from dataclasses import dataclass
from pathlib import Path

from wricc import cli
from wricc.decision import decide_icc
from wricc.instances import parse_instance
from wricc.witness import witness

from conftest import instance_text

RECORDS_DIR = Path(__file__).resolve().parent / "records"

SHIPPED = [
    "lamplighter",
    "f2-wr-z2",
    "mixed-union-icc-base",
    "trivial-omega",
    "intmod-cond-i",
    "z2-wr-s3",
    "mixed-union",
    "s3-wr-s3",
]

# label -> (arguments before `-i`, whether stdout is stored as its digest)
COMMANDS = {
    "verify-json-seed42": (["verify", "--json", "--seed", "42"], False),
    "verify-json-seed1": (["verify", "--json", "--seed", "1"], False),
    "verify-json-seed7": (["verify", "--json", "--seed", "7"], False),
    "verify-seed1": (["verify", "--seed", "1"], False),
    "decide-json": (["decide", "--json"], False),
    "witness-json": (["witness", "--json"], False),
    "witness-json-prefix2000": (["witness", "--json", "--prefix", "2000"], True),
    "witness": (["witness"], False),
}

# family kind -> (instance, its text when it is not shipped, element)
FAMILY_PINS = {
    "lambda-translation": ("lamplighter", None, "{16:1}@-16"),
    "lambda-translation-seeded": ("lamplighter", None, "{}@16"),
    "g_d": ("f2-wr-z2", None, "{1:b*a^-1}@1"),
    "value-conjugation": ("f2-wr-z2", None, "{0:a*b}@0"),
    "q-translation": ("z2-wr-f2", "{D: cyclic 2; Q: free 2; omega: regular}", "{}@a*b"),
    # the class walk in a D that is not free
    "value-conjugation-wreath-d": (
        "lamplighter-d",
        "{D: wreath(cyclic 2; integers; regular); Q: free 2; omega: trivial 1}",
        "{0:{0:1}@0}@1",
    ),
}
FAMILY_PREFIX = 300

# shipped instance -> the element and budget of its `class --json` record
CLASS_PINS = {
    "lamplighter": ("{}@18", "--max-size", "201"),
    "f2-wr-z2": ("{0:a*b}@1", "--max-size", "201"),
    "mixed-union-icc-base": ("{(0; 0):a, (1; 0):a}@0", "--max-size", "201"),
    "z2-wr-s3": ("{0:1, 1:1}@[1,0,2]",),
    "s3-wr-s3": ("{0:[1,0,2], 1:[1,2,0]}@[1,0,2]",),
}

# instances that are not shipped: name -> text.  The three product-*
# instances reach the direct product's arithmetic, which no shipped
# instance and no other record does; union-regular-regular is the one
# union whose orbits are all infinite, so its lambda-translation premise
# asks the union whether an orbit is infinite
CI_INSTANCES = {
    "nested-19": "{D: wreath(cyclic 2; integers; union(regular, int-mod 19)); Q: cyclic 2; omega: regular}",
    "nested-25": "{D: wreath(cyclic 2; integers; union(regular, int-mod 25)); Q: cyclic 2; omega: regular}",
    "union-int-mod-25": "{D: cyclic 2; Q: integers; omega: union(regular, int-mod 25)}",
    "natural-9": "{D: cyclic 2; Q: symmetric 9; omega: natural}",
    "product-q": "{D: cyclic 2; Q: product(wreath(cyclic 2; integers; regular), cyclic 2); omega: trivial 1}",
    "trivial-d": "{D: cyclic 1; Q: integers; omega: regular}",
    "product-d": "{D: product(cyclic 2, integers); Q: integers; omega: regular}",
    "product-q-free-d": "{D: free 2; Q: product(integers, cyclic 2); omega: union(regular, trivial 1)}",
    "product-d-q": "{D: product(cyclic 2, symmetric 3); Q: product(cyclic 2, cyclic 3); omega: regular}",
    "cyclic-20": "{D: cyclic 2; Q: cyclic 20; omega: regular}",
    "symmetric-16": "{D: cyclic 2; Q: symmetric 16; omega: trivial 1}",
    "trivial-20000": "{D: cyclic 2; Q: cyclic 3; omega: trivial 20000}",
    "trivial-huge": "{D: cyclic 2; Q: cyclic 3; omega: trivial 99999999999}",
    "union-int-mod-19": "{D: cyclic 2; Q: integers; omega: union(regular, int-mod 19)}",
    "union-regular-regular": "{D: cyclic 2; Q: integers; omega: union(regular, regular)}",
}
CI_COMMANDS = ("decide-json", "witness-json", "verify-json-seed42")


@dataclass(frozen=True)
class Record:
    instance: str
    label: str
    args: tuple
    text: str | None = None  # the instance, when it is not a shipped file
    digest: bool = False  # stdout stored as its sha256
    family: str | None = None  # the element whose members are pinned too

    @property
    def filename(self) -> str:
        return f"{self.instance}--{self.label}.txt"


RECORDS = [
    Record(name, label, tuple(args), digest=digest)
    for name in SHIPPED
    for label, (args, digest) in COMMANDS.items()
] + [
    Record(
        name,
        f"witness-json-prefix{FAMILY_PREFIX}-{kind}",
        ("witness", "--json", "-g", element, "--prefix", str(FAMILY_PREFIX)),
        text=text,
        family=element,
    )
    for kind, (name, text, element) in FAMILY_PINS.items()
] + [
    Record(name, "class-json", ("class", "--json", "-g", *args))
    for name, args in CLASS_PINS.items()
] + [
    Record(name, label, tuple(COMMANDS[label][0]), text=text)
    for name, text in CI_INSTANCES.items()
    for label in CI_COMMANDS
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render(record: Record, workdir: Path) -> str:
    """Run the record's command on a copy of its instance in `workdir`
    and return the text its file must hold."""
    text = record.text if record.text is not None else instance_text(record.instance)
    path = Path(workdir) / f"{record.instance}.wri"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*record.args, "-i", str(path)])
    lines = [f"$ wricc {shlex.join([*record.args, '-i', path.name])}"]
    if record.text is not None:
        lines.append(f"instance: {record.text}")
    lines.append(f"exit {code}")
    if record.digest:
        lines += ["--- stdout sha256", _sha256(out.getvalue())]
        body = "\n".join(lines) + "\n"
    else:
        body = "\n".join(lines + ["--- stdout"]) + "\n" + out.getvalue()
    body += "--- stderr\n" + err.getvalue()
    if record.family is not None:
        G = parse_instance(text).group
        fam = witness(G, decide_icc(G), G.parse_element(record.family))
        listed = "".join(
            f"{G.format_element(h)} -> {G.format_element(c)}\n" for h, c in fam.take(FAMILY_PREFIX)
        )
        body += f"--- members sha256 ({FAMILY_PREFIX} lines \"conjugator -> conjugate\")\n"
        body += _sha256(listed) + "\n"
    return body


def main() -> None:
    RECORDS_DIR.mkdir(exist_ok=True)
    keep = {r.filename for r in RECORDS}
    for stale in RECORDS_DIR.iterdir():
        if stale.name not in keep:
            stale.unlink()
    with tempfile.TemporaryDirectory() as workdir:
        for record in RECORDS:
            (RECORDS_DIR / record.filename).write_bytes(render(record, workdir).encode())
    print(f"wrote {len(RECORDS)} records to {RECORDS_DIR}")


if __name__ == "__main__":
    main()
