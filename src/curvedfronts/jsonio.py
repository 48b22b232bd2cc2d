"""Strict JSON for every artifact the package writes.

Python's json module writes NaN and Infinity unless told not to, and strict
parsers reject both.  `dumps` maps numpy values to Python ones, objects to
their public attributes and non-finite floats to null, then encodes with
allow_nan=False, so a value it cannot represent raises instead of producing
an invalid file.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["dumps"]


def _plain(o):
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    if isinstance(o, np.ndarray):
        return _plain(o.tolist())
    if isinstance(o, np.generic):
        o = o.item()
    if isinstance(o, float):
        return o if math.isfinite(o) else None
    if o is None or isinstance(o, (str, int)):
        return o
    if hasattr(o, "__dict__"):
        return {k: _plain(v) for k, v in vars(o).items() if not k.startswith("_")}
    raise TypeError(f"not serializable: {type(o)}")


def dumps(obj, **kwargs) -> str:
    """JSON text of obj with non-finite floats as null; kwargs go to json.dumps."""
    return json.dumps(_plain(obj), allow_nan=False, **kwargs)
