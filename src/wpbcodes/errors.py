"""Exception types shared across the package."""

from __future__ import annotations


class NotAPrimePower(ValueError):
    """q is not of the form p^e with p prime, or exceeds the supported cap."""


class LeeRequiresPrimeField(ValueError):
    """Lee weight is only defined for prime q (identifying GF(p) with Z_p)."""


class AxiomViolation(ValueError):
    """A weight table violates one of the three weight axioms.

    ``axiom`` is one of "positivity", "symmetry", "triangle"; ``witness``
    is the offending element or pair.
    """

    def __init__(self, axiom: str, witness, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class CycleDetected(ValueError):
    """Cover relations close into a cycle; ``cycle`` lists the elements."""

    def __init__(self, cycle, message: str | None = None):
        super().__init__(message or f"cover relations contain a cycle: {list(cycle)}")
        self.cycle = tuple(cycle)


class NotAnIdeal(ValueError):
    """A subset claimed to be an order ideal is not downward closed."""


class OutOfRange(IndexError):
    """A 1-based element or block index is outside {1..s}."""


class LengthMismatch(ValueError):
    """A vector does not have the ambient length n."""


class SpaceTooLarge(RuntimeError):
    """A computation would enumerate more than the enumeration cap allows:
    vectors, codewords, vector x word pairs, words built, weight-spectrum
    DP states, a piece plan's coordinates (n, its "piece-plan entries"), or
    the poset's order relation (s^2) and coordinates of a loaded instance
    (see blockspace.charge)."""


class TooFewWords(ValueError):
    """An operation needs at least two distinct codewords."""


class NotLinear(ValueError):
    """Coset structure requested for a non-linear code."""


class NotAChain(ValueError):
    """An operation with a chain hypothesis was applied to a non-chain."""


class FieldMismatch(ValueError):
    """Two operands live over different fields."""


class WeightMismatch(ValueError):
    """Two operands use different weight tables."""


class ParseError(ValueError):
    """An instance file is not syntactically valid."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ConsistencyError(ValueError):
    """An instance file is syntactically valid but internally inconsistent."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
