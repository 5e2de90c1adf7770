"""JSON text as ``json.dumps(value, indent=2, sort_keys=...)`` spells it.

With an indent, ``json`` encodes through nested closures that refer to one
another, so each call leaves a reference cycle for the collector to find (33
objects). This encoder recurses through a plain function and spells scalars
with ``json``'s own string encoder and the ``int`` and ``float`` reprs, so its
text is the same and it leaves no garbage.
"""

from __future__ import annotations

from json.encoder import INFINITY, encode_basestring_ascii


def json_text(value, sort_keys: bool = True) -> str:
    """``json.dumps(value, indent=2, sort_keys=sort_keys)``, for values without cycles."""
    out: list[str] = []
    _encode(value, sort_keys, "\n", out)
    return "".join(out)


def _scalar(value) -> str | None:
    """The text of a string, None, bool, int or float (tested in ``json``'s order), else None."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == INFINITY or value == -INFINITY:
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _encode(value, sort_keys: bool, newline: str, out: list[str]) -> None:
    """Append ``value``'s text to ``out``; ``newline`` is a line break and the indent of
    the line ``value`` starts on."""
    text = _scalar(value)
    if text is not None:
        out.append(text)
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        out.append("{")
        for at, (key, item) in enumerate(sorted(value.items()) if sort_keys else value.items()):
            spelled = key if isinstance(key, str) else _scalar(key)  # json quotes 1 as "1"
            if spelled is None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            out.append(f"{',' if at else ''}{inner}{encode_basestring_ascii(spelled)}: ")
            _encode(item, sort_keys, inner, out)
        out.append(newline + "}")
    else:
        inner = newline + "  "
        out.append("[")
        for at, item in enumerate(value):
            out.append("," + inner if at else inner)
            _encode(item, sort_keys, inner, out)
        out.append(newline + "]")
