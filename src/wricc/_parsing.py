"""Small helpers shared by the element-literal and instance-file parsers."""

from __future__ import annotations

from .errors import ParseError

_OPEN = "([{"
_CLOSE = ")]}"
_MATCH = {")": "(", "]": "[", "}": "{"}


def split_top(text: str, sep: str) -> list[str]:
    """Split on `sep` occurring at bracket depth zero; strips the pieces."""
    parts = []
    depth = 0
    buf = []
    for ch in text:
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(buf).strip())
    return parts


def strip_outer(text: str, open_ch: str, close_ch: str) -> str:
    """Remove one layer of enclosing brackets, which must be present."""
    text = text.strip()
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        raise ParseError(f"expected {open_ch}...{close_ch}, got {text!r}")
    inner = text[1:-1]
    # reject e.g. "(a)(b)" masquerading as a single bracketed item
    depth = 0
    for i, ch in enumerate(inner):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    return inner


def head_and_args(text: str) -> tuple[str, str | None]:
    """Split a descriptor like `cyclic(2)`, `cyclic 2` or `regular` into
    (name, argument-text)."""
    text = text.strip()
    if not text:
        raise ParseError("empty descriptor")
    if "(" in text and (text.index("(") < len(text.split()[0]) or " " not in text):
        i = text.index("(")
        name = text[:i].strip()
        if not text.endswith(")"):
            raise ParseError(f"malformed descriptor {text!r}")
        return name, text[i + 1 : -1].strip()
    toks = text.split(None, 1)
    if len(toks) == 1:
        return toks[0], None
    return toks[0], toks[1].strip()
