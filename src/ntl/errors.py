"""Error hierarchy; every error carries a stable machine-readable code."""

from __future__ import annotations


class NtlError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class PresentationSyntaxError(NtlError):
    code = "SyntaxError"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownGenerator(NtlError):
    code = "UnknownGenerator"


class IncompleteMap(NtlError):
    code = "IncompleteMap"


class UnknownCatalogName(NtlError):
    code = "UnknownCatalogName"


class NotNormal(NtlError):
    code = "NotNormal"


class MixedParents(NtlError):
    code = "MixedParents"


class BudgetExceeded(NtlError):
    code = "BudgetExceeded"

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class CapExceeded(NtlError):
    code = "CapExceeded"


class NotAutomorphism(NtlError):
    code = "NotAutomorphism"


class NotActionHomomorphism(NtlError):
    code = "NotActionHomomorphism"


class Incompatible(NtlError):
    code = "Incompatible"

    def __init__(self, message: str, witness: tuple):
        super().__init__(message)
        self.witness = witness


class InternalInconsistency(NtlError):
    code = "InternalInconsistency"


class NotGeneratingPair(NtlError):
    code = "NotGeneratingPair"


class Undecided(NtlError):
    code = "Undecided"


class NotAbelian(NtlError):
    code = "NotAbelian"

