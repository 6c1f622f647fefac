"""Exception types shared across the package.

Two failure families matter to callers: bad input (wrong dimensions, bad
JSON, out-of-range parameters) and geometric contract violations found at
run time (unbounded halfspace systems, degeneracies, failed retries). The
CLI maps InputError to exit code 2.  `_index` is the one check for an
integer argument (a count, a dimension, a seed).
"""

import numpy as np


class InputError(ValueError):
    """Malformed caller input: dimension mismatch, bad schema, bad parameter."""


class GeometryError(RuntimeError):
    """A geometric operation could not satisfy its contract on this input."""


def _index(n, what: str) -> int:
    """`n` as an int; floats, even 2.0, and booleans are refused."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InputError(f"{what} must be an integer")
    return int(n)
