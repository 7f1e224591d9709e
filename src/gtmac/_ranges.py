"""The accepted range of every numeric parameter, each written once.

:func:`check` is where ``bounds``, ``scheme``, ``channel``, ``harness`` and the
CLI test a parameter.  An int parameter takes an ``int`` or a numpy integer,
never a bool; a real parameter also takes ints and must be finite.  A value of
the wrong type raises ``TypeError``; a NaN, an infinity or a value outside the
range raises ``ValueError``.  A parameter whose range depends on where it is
used (trials behind a standard error, the slots of a channel simulation) has
one entry per use.  :func:`check_levels` is the one test of a slot grid, and
the only one that needs numpy, so it imports numpy itself: ``check`` runs in
``gtmac bounds``, which never loads numpy.
"""

from __future__ import annotations

import math
import numbers
import sys

TYPE_CHECKING = False  # importing typing would cost start-up
if TYPE_CHECKING:
    import numpy as np

# The surplus kernel clips its G draw at slot_cap + 1, which must be exact in
# float64.
MAX_SLOT_CAP = 2**53 - 1

_INF = math.inf  # no upper end for an int
# The upper end of an int that numpy takes as a size, a step count or the n of
# a Bin(n, p) draw: all int64.
_INT64 = 2**63 - 1
_BIG = sys.float_info.max  # a real's upper end: finite
_TINY = math.ulp(0.0)  # the smallest positive double: an open lower end at 0
_BELOW_ONE = math.nextafter(1.0, 0.0)  # an open upper end at 1

# key: (name in messages, int?, lowest, highest, the range in words).  Both
# ends are inclusive; an open end is the neighbouring double, so each test is
# one chained comparison, which a NaN fails.
_RANGES = {
    # populations and the elimination scheme
    "n_inactive": ("n_inactive", True, 0, _INT64, f"an int in [0, {_INT64}]"),
    "k": ("k", True, 1, _INT64, f"an int in [1, {_INT64}]"),
    "total_nodes": ("total_nodes", True, 0, _INF, "an int >= 0"),
    "p": ("p", False, 0.0, 1.0, "a real in [0, 1]"),
    "slots": ("slots", True, 0, _INF, "an int >= 0"),
    "slot_cap": ("slot_cap", True, 0, MAX_SLOT_CAP, f"an int in [0, {MAX_SLOT_CAP}]"),
    "master_seed": ("master_seed", True, 0, 2**64 - 1, "a 64-bit unsigned int"),
    # budgets and the channel
    "eps": ("eps", False, _TINY, _BELOW_ONE, "a real in (0, 1)"),
    "surplus_factor": ("surplus_factor", False, _TINY, _BIG, "a finite real > 0"),
    "variance_proxy": ("variance_proxy", False, _TINY, _BIG, "a finite real > 0"),
    "power": ("power", False, _TINY, _BIG, "a finite real > 0"),
    "tail_constant": ("tail_constant", False, _TINY, _BIG, "a finite real > 0"),
    "slot_error": ("slot_error", False, _TINY, _BELOW_ONE, "a real in (0, 1)"),
    "scale": ("scale", False, 0.0, _BIG, "a finite real >= 0"),
    "sigma": ("sigma", False, _TINY, _BIG, "a finite real > 0"),
    "repetitions": ("repetitions", True, 1, _INT64, f"an int in [1, {_INT64}]"),
    "count": ("count", True, 0, _INF, "an int >= 0"),
    "channel_slots": ("slots", True, 1, _INT64, f"an int in [1, {_INT64}]"),
    # experiments
    "trials": ("trials", True, 1, _INT64, f"an int in [1, {_INT64}]"),
    "trace_trials": ("trials", True, 2, _INT64,
                     f"an int in [2, {_INT64}] (2 for a standard error)"),
    "horizon": ("horizon", True, 1, _INT64, f"an int in [1, {_INT64}]"),
    "index": ("index", True, 0, _INF, "an int >= 0"),
    "seed": ("seed", True, 0, _INF, "an int >= 0"),
    "workers": ("workers", True, 1, _INF, "an int >= 1"),
    "max_slot": ("max_slot", True, 0, _INT64, f"an int in [0, {_INT64}]"),
    "step": ("step", True, 1, _INF, "an int >= 1"),
}


def check(key: str, value, name: str | None = None):
    """Return ``value`` as a Python int or float (a numpy scalar is converted)
    if it lies in the range named ``key``; raise otherwise.

    An error calls the value ``name`` (the CLI passes the flag), by default
    the range's own name.
    """
    default_name, integer, low, high, words = _RANGES[key]
    name = name or default_name
    kind = value.__class__
    if kind is not int and (integer or kind is not float):
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integer else numbers.Real):
            raise TypeError(f"{name} must be {'an int' if integer else 'a real'}, "
                            f"got {value!r}")
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be {words}, got {value!r}")
    return value


def check_levels(levels) -> np.ndarray:
    """Return a grid of slot counts as an int64 vector; raise otherwise.

    ``levels`` must be 1-D with an integer dtype -- no bools, no floats --
    or else empty; a level below 0 raises ``ValueError``.
    """
    import numpy as np

    grid = np.asarray(levels)
    if grid.ndim != 1 or (grid.size and grid.dtype.kind not in "iu"):
        raise TypeError(f"levels must be a 1-D sequence of ints, got a "
                        f"{grid.ndim}-D array of {grid.dtype}")
    grid = grid.astype(np.int64)
    if np.any(grid < 0):
        raise ValueError("levels must be slots >= 0")
    return grid
