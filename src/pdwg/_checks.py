"""The input rules that more than one entry point shares.

* Scalars. An integer field takes a Python or numpy integer; a real
  field takes a Python or numpy integer or float strictly between 0 and
  inf whose reciprocal is finite too (the p=1 scheme uses 1/alpha), so
  anything below about 5.6e-309 is refused. An exponent p of an error
  norm is inf or a real number of at least 1. Python and numpy bools,
  strings, NaN and +-inf are refused with a ValueError that names the
  field.
* Ids. An element, edge or block id is an integer in 0..size-1; one out
  of range raises an IndexError that names the field, so -1 never wraps
  round to the last entry.
* Shapes. An array argument of the wrong shape raises a ValueError that
  names the field and gives the expected and the actual shape.
* Jump vectors. phi and its proxes act on (k+1)-coefficient blocks, so
  a vector whose length is not a whole number of blocks raises a
  ValueError.

The checks test concrete types rather than the `numbers` ABCs:
prox_phi_weighted_l1 checks its alpha and k on every p=1 step, and an
isinstance test against numbers.Real costs about four times as much as
one against the tuple of concrete types (400 against 110 ns on a 2-core
Xeon VM).
"""

import math

import numpy as np

__all__ = ["integer", "positive_finite", "exponent", "index", "vector", "block_vector"]

_INTEGERS = (int, np.integer)
_REALS = (float, int, np.floating, np.integer)
_RULES = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
# the least float with a finite reciprocal: 1/max rounds to one below it
_TINY = math.nextafter(1 / np.finfo(float).max, 1)


def integer(name, value, low=None):
    """Return value as an int; raise ValueError naming `name` unless it
    is an integer, and at least low when low is given."""
    bad = isinstance(value, bool) or not isinstance(value, _INTEGERS)
    if bad or (low is not None and value < low):
        rule = _RULES.get(low, f"an integer of at least {low}")
        raise ValueError(f"{name} must be {rule}, got {name}={value!r}")
    return int(value)


def positive_finite(name, value):
    """Raise ValueError naming `name` unless value is a real number
    with 0 < value < inf and 1/value < inf."""
    bad = isinstance(value, bool) or not isinstance(value, _REALS)
    # 0 < value first: _TINY rounds to 0 in a float32 or float16 compare
    if bad or not 0 < value < math.inf or value < _TINY:
        raise ValueError(f"{name} and 1/{name} must be positive and finite, got {name}={value!r}")


def exponent(name, value):
    """Raise ValueError naming `name` unless value is inf or a real
    number of at least 1, the exponent of an L^p norm."""
    bad = isinstance(value, bool) or not isinstance(value, _REALS)
    if bad or not 1 <= value <= math.inf:
        raise ValueError(f"{name} must be inf or a real number >= 1, got {name}={value!r}")


def index(name, value, size):
    """Return value as an int; raise IndexError naming `name` unless
    0 <= value < size (ValueError, as in `integer`, for a non-integer)."""
    if not 0 <= integer(name, value) < size:
        raise IndexError(f"{name}={value!r} out of range 0..{size - 1}")
    return int(value)


def vector(name, value, shape):
    """Return value as a float array; raise ValueError naming `name`
    unless its shape is `shape`."""
    v = np.asarray(value, dtype=float)
    if v.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got shape {v.shape}")
    return v


def block_vector(v, k):
    """Return (v as a float array, the block size k + 1); raise
    ValueError unless v is a whole number of (k+1)-blocks."""
    v, bs = np.asarray(v, dtype=float), integer("k", k, low=0) + 1
    if v.size % bs:
        raise ValueError(f"length {v.size} is not a multiple of block size {bs}")
    return v, bs
