"""The one JSON writer of reports and state files.

``json.dumps(value, indent=2, sort_keys=True)`` falls back to the json
module's pure-Python encoder whenever an indent is asked for. The values
written here have a fixed shape (dicts with str keys, lists, tuples and
scalars), so ``json_pieces`` builds the same bytes from one %-template per
key set and indent, plain-int lists in one join, and scalars in the json
module's own forms. A ``Table`` is a list of dicts of one key set given as
rows of values, written one piece per row as it is read, so a long list of
rows is neither built as dicts nor held as text.
"""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_string  # ensure_ascii form
from typing import Iterable, Iterator

INF = float("inf")
_INT_ONLY = {int}


class Table:
    """A list of dicts that share the sorted ``keys``, as rows of values in
    key order. Each value is an int or JSON text already rendered at the
    rows' field indent (``table_field``), such as ``"null"`` for None, so
    every row is one %-format of the key set's template. A table is written
    as a top-level value of a report; ``rows`` is read once."""

    __slots__ = ("keys", "rows")

    def __init__(self, keys: tuple[str, ...], rows: Iterable[tuple]):
        self.keys, self.rows = keys, rows


def table_field(value) -> str:
    """``value`` as JSON text at the indent of a ``Table`` row's fields."""
    return _json_text(value, "      ")


def json_pieces(report: dict) -> Iterator[str]:
    """The text of ``json.dumps(report, indent=2, sort_keys=True)`` in
    pieces: one per top-level key and per element of a top-level list or
    row of a ``Table``, each formatted whole by ``_json_text`` or from the
    table's template."""
    yield "{"
    for k, (key, value) in enumerate(sorted(report.items())):
        yield ("\n  " if k == 0 else ",\n  ") + _json_string(key) + ": "
        if type(value) is Table:
            order, template = _json_template(value.keys, "    ")
            if order != value.keys:
                raise ValueError(f"table keys {value.keys} are not sorted")
            lead = "[\n    "
            for row in value.rows:
                yield lead + template % row
                lead = ",\n    "
            yield "[]" if lead == "[\n    " else "\n  ]"
        elif isinstance(value, (list, tuple)) and value:
            for j, item in enumerate(value):
                yield ("[\n    " if j == 0 else ",\n    ") + _json_text(item, "    ")
            yield "\n  ]"
        else:
            yield _json_text(value, "  ")
    yield "\n}" if report else "}"


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2, sort_keys=True)`` formats it
    at ``indent``: dicts with str keys (one template per key set and
    indent), lists and tuples (a list of plain ints in one join), and
    scalars in the json module's own forms."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == _INT_ONLY:
            items = map(int.__repr__, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        order, text = _json_template(tuple(value), indent)
        fields = [value[key] for key in order]
        return text % tuple(
            [int.__repr__(f) if type(f) is int else _json_text(f, inner) for f in fields]
        )
    if isinstance(value, str):
        return _json_string(value)
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
        if value == INF:
            return "Infinity"
        if value == -INF:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _json_text(list(value), indent)
    if isinstance(value, dict):
        return _json_text(dict(value), indent)
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


@lru_cache(maxsize=64)
def _json_template(keys: tuple, indent: str) -> tuple[tuple, str]:
    """(sorted keys, %-format) of a dict with ``keys`` at ``indent``."""
    order = tuple(sorted(keys))
    inner = indent + "  "
    fields = (",\n" + inner).join(_json_string(key).replace("%", "%%") + ": %s" for key in order)
    return order, "{\n" + inner + fields + "\n" + indent + "}"
