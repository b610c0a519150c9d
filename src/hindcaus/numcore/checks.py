"""Type predicates for input checks; each refuses a bool, so `True` is never 1."""

import math
import numbers

import numpy as np


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # a JSON integer >= 0


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    return _is_real(value) and math.isfinite(value) and value > 0  # NaN and infinity refused
