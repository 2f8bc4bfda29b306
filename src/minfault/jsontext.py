"""Indented JSON text, the same as ``json.dumps(doc, indent=2, sort_keys=True)``.

CPython's ``json`` uses its C encoder only when ``indent`` is None, so
with an indent every value passes through the pure-Python encoder, one
generator step at a time.  :func:`dumps` gives the same text with the
per-item work in C where the shape allows it:

- a list whose items all have type ``str``, or all ``int``, or all
  ``float``, is one join over ``map`` of that type's encoder;
- a list of equal-length lists or tuples whose columns each hold one
  such type (a symbol table) is one ``%`` template per row, fed column
  by column;
- containers and the scalars no list shape covers (bools, ``None``,
  subclasses of ``str``, ``int`` and ``float``) recurse in Python.

Documents are built from dicts with ``str`` keys, lists, tuples, ``str``,
``int``, ``float``, ``bool`` and ``None``.  Anything else, a non-``str``
key among them, raises ``TypeError`` rather than being written
differently from ``json.dumps``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter

_INDENT = "  "
_INF = float("inf")
_int = int.__repr__


def _float(x: float) -> str:
    """``json``'s rule: NaN and the infinities by name, else ``float.__repr__``."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the encoder of each scalar type a list's items may all have exactly;
# ``bool`` is absent, since ``int.__repr__(True)`` is ``True``
_SCALAR = {str: _str, int: _int, float: _float}


def dumps(doc, level: int = 0) -> str:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` writes it.

    ``level`` is the nesting depth ``doc`` is written at: its inner lines
    are indented as they would be inside that many enclosing containers,
    and its first line is not indented at all.
    """
    if isinstance(doc, str):
        return _str(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return _int(doc)
    if isinstance(doc, float):
        return _float(doc)
    if isinstance(doc, (list, tuple)):
        return _list(doc, level)
    if isinstance(doc, dict):
        return _dict(doc, level)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _list(items, level: int) -> str:
    if not items:
        return "[]"
    inner = "\n" + _INDENT * (level + 1)
    types = set(map(type, items))
    if len(types) == 1 and (encode := _SCALAR.get(next(iter(types)))):
        body = map(encode, items)
    else:
        body = _rows(items, level + 1) if types <= {list, tuple} else None
        if body is None:
            body = [dumps(x, level + 1) for x in items]
    return "[" + inner + ("," + inner).join(body) + "\n" + _INDENT * level + "]"


def _rows(rows, level: int):
    """The text of each of ``rows``, lists or tuples written at depth
    ``level``, if they have one length and each column holds one type of
    ``_SCALAR``; else None."""
    lengths = set(map(len, rows))
    if len(lengths) != 1 or not (n := lengths.pop()):
        return None
    cols = []
    for i in range(n):
        types = set(map(type, map(itemgetter(i), rows)))
        encode = _SCALAR.get(types.pop()) if len(types) == 1 else None
        if encode is None:
            return None
        cols.append(map(encode, map(itemgetter(i), rows)))
    inner = "\n" + _INDENT * (level + 1)
    template = "[" + inner + ("," + inner).join(["%s"] * n) + "\n" + _INDENT * level + "]"
    return map(template.__mod__, zip(*cols))


def _dict(d: dict, level: int) -> str:
    if not d:
        return "{}"
    inner = "\n" + _INDENT * (level + 1)
    # ``_str`` raises TypeError on a key that is not a ``str``
    return ("{" + inner
            + ("," + inner).join([_str(k) + ": " + dumps(v, level + 1) for k, v in sorted(d.items())])
            + "\n" + _INDENT * level + "}")
