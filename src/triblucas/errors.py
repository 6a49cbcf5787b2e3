"""Exception types shared across the library."""


class DomainError(ValueError):
    """A parameter lies outside an operation's stated domain."""


class InternalConsistencyError(ArithmeticError):
    """An exactness guarantee failed (inexact division, odd halving).

    These conditions cannot occur if the implemented closed forms are
    transcribed correctly, so tripping one is a bug signal, not user error.
    """


class PolyParseError(ValueError):
    """Polynomial text did not match the grammar; names token and position."""


class NumericalInstabilityError(ArithmeticError):
    """A fixed-point Binet evaluation lost too much precision.

    Raised by the integer code of the Binet cross-check: ``binet_roots`` when
    its roots fail the Vieta residual bound, and ``binet_estimate`` when the
    three terms leave too large an imaginary residue.
    """


class ExpansionError(ValueError):
    """A rational function cannot be expanded (denominator unit term missing)."""


class UnknownIdentityError(KeyError):
    """Requested identity id is not in the verification catalog."""
