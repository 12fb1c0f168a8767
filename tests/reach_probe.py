"""List the functions of `src/wricc` that no pinned `wricc` command calls.

    python tests/reach_probe.py

Runs every command of `pinned.RECORDS` through `pinned.render`, in this
process, under `sys.setprofile`, and prints each function or method of
`src/wricc` that none of them called, per module, and the total.  The
profiler starts before `wricc` is imported, so what import runs counts as
called.  A function whose body is only a docstring or `...` is not
counted.  A generator counts as called once it is first resumed.  What
the records reach is what the commands reach, so a function listed here
runs only in tests or not at all.  Its name keeps it out of tier-1's
collection.
"""

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wricc"


def _called():
    """Run every pinned command under the profiler; the (file, first line)
    of each code object of `src/wricc` that was called."""
    prefix = str(PACKAGE) + "/"
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    try:
        import pinned

        with tempfile.TemporaryDirectory() as workdir:
            for record in pinned.RECORDS:
                pinned.render(record, Path(workdir))
    finally:
        sys.setprofile(None)
    return called, len(pinned.RECORDS)


def _is_stub(body):
    """A body of a docstring, `...`, or both."""
    return all(
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and (stmt.value.value is Ellipsis or (i == 0 and isinstance(stmt.value.value, str)))
        for i, stmt in enumerate(body)
    )


def functions(path):
    """(first line, qualified name) of each function of one module whose
    body is more than a stub; the first line is the code object's, that of
    the first decorator when there is one."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{child.name}"
                if not _is_stub(child.body):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield first, name
                yield from walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{scope}{child.name}.")
            else:
                yield from walk(child, scope)

    return sorted(walk(ast.parse(path.read_text(encoding="utf-8")), ""))


def main():
    called, runs = _called()
    total = 0
    print(f"functions of src/wricc that none of the {runs} pinned commands calls:")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = [(n, name) for n, name in functions(path) if (str(path), n) not in called]
        if not missed:
            continue
        print(f"{path.relative_to(ROOT)}: {len(missed)}")
        for n, name in missed:
            print(f"  {n:5d}  {name}")
        total += len(missed)
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
