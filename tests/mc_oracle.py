"""Scalar oracle for the Monte Carlo engine's sector counts and gains.

One beacon and one sensor at a time, in plain Python: the sector a direction
falls in (math.atan2 and fmod), brute-force sector counts, and the allocation
rule applied to them. It shares nothing with mcsim's batched kernel (the
pair join, the sector edge table, the vectorized rules) beyond the scenario
and the Allocation enum, so agreement is evidence, not tautology. Keep it
out of the runtime package.
"""

import math

import numpy as np

from beamharvest.mcsim import Allocation

_TWO_PI = 2.0 * math.pi


def sector_of(pb, target, orientation, sectors):
    """Index of the beacon's sector containing the direction to target.

    Sectors are half-open arcs [k*2pi/N, (k+1)*2pi/N) measured from the
    beacon's orientation.
    """
    dx = float(target[0]) - float(pb[0])
    dy = float(target[1]) - float(pb[1])
    if dx == 0.0 and dy == 0.0:
        raise ValueError("target coincides with the beacon; direction undefined")
    rel = math.fmod(math.atan2(dy, dx) - orientation, _TWO_PI)
    if rel < 0.0:
        rel += _TWO_PI
    # adding 2pi can round up to exactly 2pi; the modulus folds that to 0
    return int(rel // (_TWO_PI / sectors)) % sectors


def pb_beam_state(counts, scheme, u=None):
    """Per-sector intensity gains of one beacon given its sensor counts.

    A beacon with no sensor, or under forced omni, radiates gain 1 in every
    sector. Otherwise uniform splits N over the occupied sectors, robust
    splits it in proportion to the counts, and greedy puts all N on one of
    the sectors holding the most sensors: the int(u * ties)-th of them, in
    sector order, for the uniform u (the last one if that rounds up to
    ties). Gains always sum to N (power conservation).
    """
    n = len(counts)
    occupied = sum(1 for c in counts if c > 0)
    if occupied == 0 or scheme is Allocation.FORCED_OMNI:
        return [1.0] * n
    if scheme is Allocation.UNIFORM:
        return [n / occupied if c > 0 else 0.0 for c in counts]
    if scheme is Allocation.ROBUST:
        total = sum(counts)
        return [n * c / total for c in counts]
    if scheme is Allocation.GREEDY:
        most = max(counts)
        top = [k for k, c in enumerate(counts) if c == most]
        pick = top[min(int(u * len(top)), len(top) - 1)]
        return [float(n) if k == pick else 0.0 for k in range(n)]
    raise ValueError(f"unknown allocation scheme {scheme!r}")


def scalar_origin_gains(sample, params, scheme, tie_draws):
    """Gain each beacon of one realization radiates toward the origin:
    brute-force sector counts through sector_of, then pb_beam_state's entry
    for the sector holding the origin. Greedy's tie-break for beacon b uses
    the uniform tie_draws[b]."""
    rho2 = params.charging_radius * params.charging_radius
    n = params.sectors
    out = []
    for b, (pb, orient) in enumerate(zip(sample.pb_points, sample.pb_orientations)):
        counts = [0] * n
        for sn in sample.sn_points:
            dx = float(sn[0]) - float(pb[0])
            dy = float(sn[1]) - float(pb[1])
            if dx * dx + dy * dy <= rho2:
                counts[sector_of(pb, sn, orient, n)] += 1
        gains = pb_beam_state(counts, scheme, float(tie_draws[b]))
        out.append(gains[sector_of(pb, (0.0, 0.0), orient, n)])
    return np.array(out, dtype=np.float64)
