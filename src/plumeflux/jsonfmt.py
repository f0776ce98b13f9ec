"""The package's JSON writer: the text of ``json.dumps(obj, indent=2, sort_keys=True)``.

With ``indent`` set, ``json`` encodes in pure Python. This encoder keeps its
dispatch order and layout, and fills each list of equal-length rows of finite
floats, such as a polygon ring, from one ``%r`` template. Anything outside the
str-keyed scalar, list, tuple and dict subset goes to ``json.dumps`` whole, so
its bytes and errors stay the standard library's.
"""

from __future__ import annotations

import json
import math

_ESCAPE = json.encoder.encode_basestring_ascii


class _Unsupported(Exception):
    """A value outside the encoder's subset."""


def _float_rows(seq, nl: str):
    """Text of a list of equal-length rows of finite floats at indent ``nl``, else None."""
    n = len(seq[0]) if isinstance(seq[0], (list, tuple)) else 0
    if not n or not all(isinstance(row, (list, tuple)) and len(row) == n for row in seq):
        return None
    flat = [v for row in seq for v in row]
    # a finite sum has no NaN or infinity among its terms
    if not all(type(v) is float for v in flat) or not math.isfinite(sum(flat)):
        return None
    inner = nl + "  "
    row = "[" + inner + "  " + ("," + inner + "  ").join(["%r"] * n) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(seq)) + nl + "]") % tuple(flat)


def _encode(o, nl: str, out: list) -> None:
    if isinstance(o, str):
        out.append(_ESCAPE(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
        out.append(float.__repr__(o) if math.isfinite(o) else text)
    elif isinstance(o, (list, tuple)):
        text = _float_rows(o, nl) if o else None
        if text is None:
            _members("[]", [("", v) for v in o], nl, out)
        else:
            out.append(text)
    elif isinstance(o, dict):
        if not all(isinstance(k, str) for k in o):
            raise _Unsupported
        _members("{}", [(_ESCAPE(k) + ": ", v) for k, v in sorted(o.items())], nl, out)
    else:
        raise _Unsupported


def _members(brackets: str, members: list, nl: str, out: list) -> None:
    """A list or dict at indent ``nl``: one (prefix, value) member per line."""
    if not members:
        out.append(brackets)
        return
    inner = nl + "  "
    sep = brackets[0] + inner
    for prefix, value in members:
        out.append(sep + prefix)
        _encode(value, inner, out)
        sep = "," + inner
    out.append(nl + brackets[1])


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``."""
    out: list[str] = []
    try:
        _encode(obj, "\n", out)
    except (_Unsupported, RecursionError):  # a cycle recurses without end; json names it
        return json.dumps(obj, indent=2, sort_keys=True)
    return "".join(out)
