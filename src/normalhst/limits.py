"""
Resource ceilings shared by every layer.

A computation whose cost grows with the size of its input checks the
ceiling named for it and raises :class:`ResourceCeilingError` before it
would pass it; the command line turns that into exit 3.  The
environment variable ``NORMALHST_CEILING`` replaces every ceiling with
one positive integer, written as a canonical numeral (see
:func:`normalhst.record.numeral`).
"""

import os


class ResourceCeilingError(RuntimeError):
    """A configured resource ceiling was exceeded."""


class CeilingSettingError(ValueError):
    """NORMALHST_CEILING is not a positive integer."""


DEFAULT_CEILINGS = {
    "rays": 20000,              # intermediate ray count in double description
    "brute_force_weight": 12,   # maximal total coordinate for brute force
    "loop_length": 20,          # normal curve enumeration ceiling
    "curve_loops": 2000000,     # loops listed by one curve decomposition
    "surface_cells": 2000000,   # runs plus components of one reconstruction
    "rewrites": 10000,          # squared move count of one thick HST level
}


def ceiling(name):
    """Resource ceiling, overridable globally via NORMALHST_CEILING."""
    env = os.environ.get("NORMALHST_CEILING")
    if env is None:
        return DEFAULT_CEILINGS[name]
    from .record import numeral, quoted
    value = numeral(env)
    if value is None or value < 1:
        raise CeilingSettingError(
            f"NORMALHST_CEILING must be a positive integer, got {quoted(env)}")
    return value
