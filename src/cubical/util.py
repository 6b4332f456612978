"""Small shared helpers: the one default size cap, total ordering over
mixed vertex ids, and the type checks of the JSON loaders."""

from __future__ import annotations

import math

from .errors import InputFormatError

DEFAULT_CAP = 100_000  # --cap's default and every library enumeration's


def skey(x):
    """Sort key giving a total order over the id types we allow (int, str,
    float, and tuples thereof). Needed because ints and strs do not compare."""
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, float):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, tuple(skey(y) for y in x))
    if isinstance(x, frozenset):
        return (3, tuple(sorted((skey(y) for y in x))))
    raise TypeError(f"unsortable id type: {type(x)!r}")


def ssorted(xs):
    return sorted(xs, key=skey)


# ---------------------------------------------------------------------------
# JSON loader checks: malformed input raises InputFormatError (exit 2)

_PLAIN_IDS = frozenset({int, str})  # exact types: a bool takes the per-id loop


def check_ids(ids, what: str) -> None:
    """Ids read from JSON must be finite numbers or strings. Python's json
    reads NaN and Infinity as floats, which no JSON output can print back,
    and true and false as bools, which equal 1 and 0.

    One pass over the ids' types decides the common case, ints and strings
    alone. Any other type walks ``ids`` again to name the first bad id, so
    ``ids`` must iterate afresh each time: a collection, not a generator."""
    if set(map(type, ids)) <= _PLAIN_IDS:
        return
    for v in ids:
        if isinstance(v, bool) or not (isinstance(v, (int, str)) or (
                isinstance(v, float) and math.isfinite(v))):
            raise InputFormatError(
                f"{what} must be finite numbers or strings, got {v!r}")


def string_forms(ids, what: str) -> dict:
    """``str(v) -> v`` over ``ids``. Certificates and JSON object keys name
    an id by its string form, so two distinct ids with one form (1 and
    "1") are an input error."""
    out: dict = {}
    for v in ids:
        u = out.setdefault(str(v), v)
        if u is not v and u != v:
            raise InputFormatError(
                f"{what} {u!r} and {v!r} have the same string form", ids=[u, v])
    return out


def parse_int(x, what: str) -> int:
    """An int, or a string or float naming one exactly: ``int`` would
    truncate 4.7 to 4."""
    if not isinstance(x, bool) and (not isinstance(x, float) or x.is_integer()):
        try:
            return int(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputFormatError(f"{what} must be an integer, got {x!r}")


def parse_float(x, what: str) -> float:
    try:
        f = float(x)
    except (TypeError, ValueError, OverflowError):
        f = math.nan
    if isinstance(x, bool) or not math.isfinite(f):
        raise InputFormatError(f"{what} must be a finite number, got {x!r}")
    return f


def parse_list(x, what: str, length: int | None = None) -> list:
    """A JSON array, optionally of a fixed length."""
    if not isinstance(x, list) or (length is not None and len(x) != length):
        size = "" if length is None else f" of {length}"
        raise InputFormatError(f"{what} must be a list{size}, got {x!r}")
    return x
