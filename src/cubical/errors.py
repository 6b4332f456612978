"""Exception hierarchy shared by all modules.

Every error carries a machine-readable ``code`` (used verbatim in CLI
certificates) and a ``details`` dict with the offending data.
"""

from __future__ import annotations


class CubicalError(Exception):
    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def certificate(self) -> dict:
        return {"error": self.code, "message": self.message, **_jsonable(self.details)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


class InputFormatError(CubicalError):
    code = "input_format"


# ---- cube complexes ----------------------------------------------------

class SelfGluingError(CubicalError):
    code = "self_gluing"


class DoubleGluingError(CubicalError):
    code = "double_gluing"


class MissingFaceError(CubicalError):
    code = "missing_face"


class DuplicateCubeError(CubicalError):
    code = "duplicate_cube"


class UnknownVertexError(CubicalError):
    code = "unknown_vertex"


class DisconnectedError(CubicalError):
    code = "disconnected"


class NoMedianError(CubicalError):
    code = "no_median"


class MultipleMediansError(CubicalError):
    code = "multiple_medians"


class NotCat0Error(CubicalError):
    code = "not_cat0"


class CapExceededError(CubicalError):
    code = "cap_exceeded"


# ---- halfspace systems -------------------------------------------------

class NotInvolutionError(CubicalError):
    code = "not_involution"


class SelfPairedError(CubicalError):
    code = "self_paired"


class NestingViolationError(CubicalError):
    code = "nesting_violation"


class ComparableComplementsError(CubicalError):
    code = "comparable_complements"


class CyclicOrderError(CubicalError):
    code = "cyclic_order"


class SameHyperplaneError(CubicalError):
    code = "same_hyperplane"


class PartialOrientationError(CubicalError):
    code = "partial_orientation"


class NotAVertexError(CubicalError):
    code = "not_a_vertex"


class NotMinimalError(CubicalError):
    code = "not_minimal"


# ---- Coxeter systems ---------------------------------------------------

class NotSymmetricError(CubicalError):
    code = "not_symmetric"


class BadDiagonalError(CubicalError):
    code = "bad_diagonal"


class EntryBelowTwoError(CubicalError):
    code = "entry_below_two"


class NotAdjacentError(CubicalError):
    code = "not_adjacent"


# ---- tree space ----------------------------------------------------------

class BadRootValencyError(CubicalError):
    code = "bad_root_valency"


class InteriorValencyTwoError(CubicalError):
    code = "interior_valency_two"


class UnlabeledLeafError(CubicalError):
    code = "unlabeled_leaf"


class NonPositiveLengthError(CubicalError):
    code = "non_positive_length"


class CyclicError(CubicalError):
    code = "cyclic"


class IncompatibleClustersError(CubicalError):
    code = "incompatible_clusters"


class LeafCountMismatchError(CubicalError):
    code = "leaf_count_mismatch"
