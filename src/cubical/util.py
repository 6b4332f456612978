"""Small shared helpers: total ordering over mixed vertex ids, and the
type checks of the JSON loaders."""

from __future__ import annotations

from .errors import InputFormatError


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


def check_ids(ids, what: str) -> None:
    """Ids read from JSON must be numbers or strings."""
    for v in ids:
        if not isinstance(v, (int, float, str)):
            raise InputFormatError(f"{what} must be numbers or strings, got {v!r}")


def parse_int(x, what: str) -> int:
    try:
        return int(x)
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError(f"{what} must be an integer, got {x!r}") from None


def parse_float(x, what: str) -> float:
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError(f"{what} must be a number, got {x!r}") from None


def parse_list(x, what: str, length: int | None = None) -> list:
    """A JSON array, optionally of a fixed length."""
    if not isinstance(x, list) or (length is not None and len(x) != length):
        size = "" if length is None else f" of {length}"
        raise InputFormatError(f"{what} must be a list{size}, got {x!r}")
    return x
