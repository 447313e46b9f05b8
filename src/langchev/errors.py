"""Exception types shared across the package.

The CLI maps these onto its exit codes, so solver code should raise the
most specific class that applies rather than bare ValueError.
"""


class LangchevError(Exception):
    """Base class for all package-specific errors."""


class InputError(LangchevError, ValueError):
    """Malformed or mathematically invalid input (exit code 2)."""


class BudgetExhausted(LangchevError, RuntimeError):
    """A Las Vegas search ran out of retries without finding a witness.

    This is a clean failure: no wrong answer was produced (exit code 3).
    """


class RecognitionError(LangchevError, ValueError):
    """An externally supplied algebra did not match the claimed root datum
    (exit code 4)."""


class EnumerationGate(LangchevError, RuntimeError):
    """A Weyl group enumeration exceeds the desk-scale gate and the caller
    did not opt in with allow_large (exit code 5)."""


class VerificationError(LangchevError, AssertionError):
    """An internal check on a computed result failed: a certificate, an
    identity the algorithm guarantees, or a bound that must hold.  No
    unverified answer is returned (exit code 6)."""
