"""
Exception types shared across the package, and its one rule for
integer inputs, :func:`as_index`.

The command line maps these onto process exit codes (see ``ssmkit.cli``),
so library code should raise the most specific type that applies.
"""

import operator


class SsmError(Exception):
    """Base class for all errors raised by ssmkit."""


class ValidationError(SsmError):
    """Bad input: shapes, formats, missing files, contract violations."""


class NumericalError(SsmError):
    """A computation ran but failed: no convergence, bad residual, etc."""


class OuterResonanceError(NumericalError):
    """
    An eigenvalue sum of the master spectrum collides with an eigenvalue
    outside it. The invariant manifold does not exist in that case, so
    normal-form computations abort rather than return garbage.
    """

    def __init__(self, message, pairs=None):
        super().__init__(message)
        self.pairs = list(pairs) if pairs is not None else []


def as_index(value, what):
    """
    ``value`` as an int, by ``operator.index``; ValidationError for a
    bool or a value that is not an integer (2.5, and 2.0 as well), so
    that no count or position is truncated.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError("%s must be an integer, not %r" % (what, value))
