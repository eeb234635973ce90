"""Exception types shared across the package.

DomainError covers malformed or mathematically invalid input (bad JSON, a
subgraph that is not invariant, a transvection between incomparable vertices).
CapabilityError means the input was valid but exceeds a hard implementation
limit (e.g. exhaustive saturation over subsets of a graph with too many
vertices). The command line maps these to exit codes 1 and 2. Any other
RuntimeError is a failed internal consistency check, a bug in the package
rather than in the input, and the command line maps it to exit code 3.
"""


class DomainError(ValueError):
    pass


class CapabilityError(RuntimeError):
    pass


class ScriptError(DomainError):
    """A decomposition script step failed a check; the message starts with its key path."""


class CertificationError(DomainError):
    """A lower-bound certificate failed one of its checks.

    The message names the offending generator pair, matrix, or exponent
    vector. Raised instead of silently reporting a smaller bound, so a
    failed certificate is never mistaken for a successful one.
    """
