"""Tolerances and resource limits.

A surface is built with one ``Tolerances`` object (``build_surface``,
``surface_from_dict``, ``load_surface`` and the ``corpus`` builders take it)
and every algorithm on the surface reads ``surface.tolerances``; a branched
cover inherits its base's. ``load_tolerance_overrides`` builds one from a JSON
file, as the CLI's ``--tolerance-overrides`` does for the surface it loads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used across the library.

    All lengths are in chart units; angles in radians.
    """

    tau_len: float = 1e-9        # edge-length agreement, arclength additivity
    tau_angle: float = 1e-9      # angle comparisons
    tau_hit: float = 1e-9        # vertex-proximity that counts as a cone hit
    tau_rec: float = 1e-7        # state-recurrence match (point and direction)
    tau_exit: float = 1e-12      # minimum advance when solving for a chart exit
    distance_step: float = 1e-3  # quadrature step for the compact-open distance
    w_max_factor: float = 1e3    # strip-width cap, in units of max chart diameter
    unfolding_budget: int = 10**6   # max windows one window sweep visits
    search_budget: int = 10**5      # max nodes in monodromy backtracking


DEFAULT_TOLERANCES = Tolerances()

_FIELD_NAMES = {f.name for f in fields(Tolerances)}


def load_tolerance_overrides(path) -> Tolerances:
    """Build a Tolerances from a JSON object file; unknown keys are an error."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"tolerance override file {path} must hold a JSON object")
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown tolerance keys in {path}: {sorted(unknown)}")
    bad = sorted(k for k, v in data.items()
                 if isinstance(v, bool) or not isinstance(v, (int, float)) or not _finite(v))
    if bad:
        raise ValueError(f"tolerance values in {path} must be finite numbers: {bad}")
    if data.get("distance_step", 1.0) <= 0:
        raise ValueError(f"distance_step in {path} must be positive, got {data['distance_step']}")
    return Tolerances(**data)


def _finite(v: int | float) -> bool:
    """math.isfinite, false for an integer too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False
