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

_PLAIN_IDS = frozenset({int, str})  # exact types, so a bool goes on to be refused


def check_ids(ids, what: str) -> bool:
    """Ids read from JSON must be finite numbers or strings. Python's json
    reads NaN and Infinity as floats, which no JSON output can print back,
    and true and false as bools, which equal 1 and 0.

    One loop walks ``ids`` once, in order, so any iterable will do: an int
    or a str passes at once, and the first bad id is named. Returns
    whether a float was among them, as only then can one id be spelt two
    ways (see ``check_spellings``)."""
    floats = False
    for v in ids:
        if type(v) in _PLAIN_IDS:
            continue
        if isinstance(v, float) and math.isfinite(v):
            floats = True
        elif isinstance(v, bool) or not isinstance(v, (int, str)):
            raise InputFormatError(
                f"{what} must be finite numbers or strings, got {v!r}")
    return floats


def check_spellings(ids, what: str) -> None:
    """One id spelt two ways, 1 and 1.0, would merge into one in a builder,
    and a certificate could print either spelling, so it is an input error
    naming both, the first spelling first. Equal ids of one type print
    alike, but for 0.0 and -0.0."""
    spelling: dict = {}
    for v in ids:
        u = spelling.setdefault(v, v)
        if u is not v and (type(u) is not type(v) or type(v) is float and repr(u) != repr(v)):
            raise InputFormatError(f"{what} {u!r} is also spelt {v!r}", ids=[u, v])


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
