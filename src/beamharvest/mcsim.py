"""First-principles Monte Carlo for sectored-beam charging networks.

Each trial draws a fresh beacon and sensor field, applies the beam-allocation
rule exactly (including the sensor-sharing correlations the closed forms
idealize away), and records the power collected at the origin sensor.

Reproducibility contract: every random draw comes from a counter-based
stream keyed by (master_seed, trial_index, substream), so a run is
bit-identical no matter how its batches are scheduled, in the calling
process or across the process pool's lanes. Network geometry lives on
substream 0 and greedy's tie-breaks, the only allocation draws, on
substream 2, which makes runs that differ only in the allocation scheme see
identical networks (paired comparisons come out of the seeding for free).

Window policy: with an explicit window_radius the field is truncated there
and the truncation bias is the caller's concern. In AUTO mode the field is
effectively unbounded: beacons inside an exact-simulation radius are drawn
jointly with their sensors, and the expected power of the remaining far tail
(whose per-beacon gain toward the origin averages 1 for every scheme, by
rotation symmetry) is added as a constant. That leaves zero mean bias, and
the exact radius (_exact_zone_radius) is sized so that replacing the tail by
its mean forfeits at most 1e-5 of the received-power variance.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import enum
import functools
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, specfun
from ._args import is_count, real
from .scenario import ConfigError, ScenarioParams, params_to_mapping, validate

__all__ = [
    "AUTO_WINDOW",
    "Allocation",
    "SimConfig",
    "NetworkSample",
    "TrialSummary",
    "trial_stream",
    "draw_network",
    "received_power_origin",
    "run_trials",
    "empirical_ccdf",
    "samples_to_csv",
    "summary_to_json",
]

#: Sentinel for SimConfig.window_radius: size the window automatically.
AUTO_WINDOW = "auto"

_TWO_PI = 2.0 * math.pi

#: Exact-zone sizing in AUTO mode: beacons beyond the exact zone are replaced
#: by their mean power, forfeiting this fraction of the received-power
#: variance at worst.
_VARIANCE_SLIP = 1e-5
_EXACT_ZONE_MIN = 20.0
_EXACT_ZONE_MAX = 300.0

class Allocation(enum.Enum):
    """Per-sector power splitting rule applied by every beacon."""

    UNIFORM = "uniform"
    GREEDY = "greedy"
    ROBUST = "robust"
    FORCED_OMNI = "forced_omni"


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run settings; window_radius is meters or AUTO_WINDOW."""

    trials: int
    master_seed: int
    window_radius: float | str = AUTO_WINDOW
    allocation: Allocation = Allocation.UNIFORM


@dataclass(frozen=True)
class NetworkSample:
    """One realization: beacon field, sensor field (origin included), marks."""

    pb_points: np.ndarray
    sn_points: np.ndarray
    pb_orientations: np.ndarray


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated run output; samples[i] is the power of trial i in watts."""

    samples: np.ndarray
    mean: float
    variance: float
    mean_ci95: float


def _check_seed(seed) -> None:
    if not is_count(seed) or not 0 <= seed < 1 << 64:
        raise ConfigError(f"master_seed must be a 64-bit unsigned integer, got {seed!r}")


def _check_workers(workers) -> None:
    if not is_count(workers) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")


#: The most trials a run takes: the longest float64 sample array NumPy can
#: describe, whose size in bytes must fit in its index type.
_TRIALS_MAX = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _check_trials(trials, least: int) -> None:
    """A trial count from least (0 or 1) to _TRIALS_MAX."""
    if not is_count(trials) or not least <= trials <= _TRIALS_MAX:
        sign = "positive" if least else "nonnegative"
        raise ConfigError(
            f"trials must be a {sign} integer of at most {_TRIALS_MAX}, got {trials!r}"
        )


def _check_config(params: ScenarioParams, config: SimConfig) -> None:
    _check_trials(config.trials, 1)
    _check_seed(config.master_seed)
    if not isinstance(config.allocation, Allocation):
        raise ConfigError(f"unknown allocation scheme {config.allocation!r}")
    if config.window_radius != AUTO_WINDOW:
        _check_window(params, config.window_radius)


def _check_window(params: ScenarioParams, window) -> float:
    """The double a beacon window is judged as: at least the charging radius."""
    x = real(window)
    if x is None or not 0 < x < math.inf:
        raise ConfigError(f"window_radius must be positive and finite, got {window!r}")
    if x < params.charging_radius:
        raise ConfigError(
            f"window_radius {window!r} is smaller than the charging radius "
            f"{params.charging_radius!r}; near beacons would be lost"
        )
    return x


def trial_stream(master_seed: int, trial_index: int, substream: int = 0) -> np.random.Generator:
    """Counter-based RNG stream for one trial, independent of scheduling:
    Philox keyed by (master_seed, trial_index), counter (0, 0, 0, substream)."""
    return _TrialStreams(master_seed).at(trial_index, substream)


class _TrialStreams:
    """trial_stream for many trials from one Philox generator: at() resets
    its key, counter and buffered bits to a fresh stream's, so the draws do
    not depend on what was drawn before, without building a generator per
    trial. The state it writes is a fresh Philox's in plain Python ints,
    which NumPy's setter reads three to four times faster than the arrays of
    bits.state; only key[1] and counter[3] change, and an index outside
    0..2**64 - 1 raises OverflowError from the setter's uint64 cast."""

    def __init__(self, master_seed: int) -> None:
        self._bits = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
        self._generator = np.random.Generator(self._bits)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [master_seed, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }

    def at(self, trial_index: int, substream: int = 0) -> np.random.Generator:
        state = self._state
        state["state"]["key"][1] = trial_index
        state["state"]["counter"][3] = substream
        self._bits.state = state
        return self._generator


#: Greedy's tie-break draws sit on their own substream so they never perturb
#: the geometry (substream 0 is the network); no other scheme draws.
_GREEDY_SUBSTREAM = 2

#: Uniforms that _disk_points maps to exactly (+0.0, +0.0): each trial's
#: typical sensor, one more point of its field by Slivnyak's theorem.
_ORIGIN = np.zeros((1, 2))
_ORIGIN.flags.writeable = False


def _field_means(params: ScenarioParams, window: float) -> tuple[float, float]:
    """Expected beacons over the window and sensors over window + rho: the
    Poisson means of each trial's point counts."""
    sn_window = window + params.charging_radius
    return (
        params.pb_density * math.pi * window * window,
        params.sn_density * math.pi * sn_window * sn_window,
    )


def _trial_draws(
    stream: np.random.Generator, mean_pb: float, mean_sn: float | None, pb, orient, sn
) -> tuple:
    """One trial's network draws, in the order the reproducibility contract
    fixes: a Poisson count n of beacons over the window (mean mean_pb),
    their (radius, angle) uniform pairs, one orientation uniform per beacon,
    then a Poisson count m of sensors over window + rho and their pairs.
    Without mean_sn (forced omni reads only the beacons) the last two are
    not drawn.

    Each block is drawn by Generator.random(out=), which gives the bits
    random(size) does, into the array pb(2n), orient(n) or sn(2m + 2)
    returns: a fresh one (np.empty) or the next items of a batch's buffer
    (_DrawBuffer). The sensor block's first row is _ORIGIN, the trial's
    typical sensor. Returns the three blocks, flat, None for those not
    drawn."""
    u_pb = stream.random(out=pb(2 * int(stream.poisson(mean_pb))))
    if mean_sn is None:
        return u_pb, None, None
    u_orient = stream.random(out=orient(len(u_pb) >> 1))
    u_sn = sn(2 * int(stream.poisson(mean_sn)) + 2)
    u_sn[:2] = _ORIGIN[0]
    stream.random(out=u_sn[2:])
    return u_pb, u_orient, u_sn


def _disk_points(u_block: np.ndarray, radius: float, out: np.ndarray) -> np.ndarray:
    """Points for an (n, 2) uniform block as x and y rows, written into the
    (2, n) array out; the block's first column is overwritten by the radii."""
    r = np.sqrt(u_block[:, 0], out=u_block[:, 0])
    r *= radius
    # the angle goes in the y row, which sin then overwrites in place
    theta = np.multiply(u_block[:, 1], _TWO_PI, out=out[1])
    np.cos(theta, out=out[0])
    out[0] *= r
    np.sin(theta, out=theta)
    theta *= r
    return out


def draw_network(
    params: ScenarioParams, pb_window_radius: float, stream: np.random.Generator
) -> NetworkSample:
    """Sample one network: beacons in the window, sensors in window + rho.

    The sensor window extends past the beacon window by the charging radius
    so every beacon sees its complete charging disk; the origin sensor
    (_ORIGIN) is row zero. The window must pass run_trials' window check.
    """
    validate(params)
    pb_window_radius = _check_window(params, pb_window_radius)
    mean_pb, mean_sn = _field_means(params, pb_window_radius)
    u_pb, orient, u_sn = _trial_draws(stream, mean_pb, mean_sn, np.empty, np.empty, np.empty)
    u_pb, u_sn = u_pb.reshape(-1, 2), u_sn.reshape(-1, 2)
    sn_window = pb_window_radius + params.charging_radius
    return NetworkSample(
        pb_points=_disk_points(u_pb, pb_window_radius, np.empty((2, len(u_pb)))).T,
        sn_points=_disk_points(u_sn, sn_window, np.empty((2, len(u_sn)))).T,
        pb_orientations=orient * (_TWO_PI / params.sectors),
    )


@functools.lru_cache(maxsize=32)
def _sector_edges(sectors: int) -> tuple[float, ...]:
    """Smallest doubles c_k with np.floor_divide(c_k, 2pi/N) >= k, k = 1..N.

    On a nonnegative angle that floor division is the exact floor of the
    real quotient (fmod is exact and the quotient snaps to it), so it steps
    up exactly at these edges."""
    width = _TWO_PI / sectors
    edges = []
    for k in range(1, sectors + 1):
        c = k * width
        while np.floor_divide(c, width) >= k:
            c = math.nextafter(c, -math.inf)
        while np.floor_divide(c, width) < k:
            c = math.nextafter(c, math.inf)
        edges.append(c)
    return tuple(edges)


def _sectors_toward(
    targets_dx: np.ndarray, targets_dy: np.ndarray, orientations: np.ndarray, sectors: int
) -> np.ndarray:
    """Sector index, 0..N-1, of each direction (dx, dy) from a beacon whose
    orientation lies in [0, 2pi/N).

    Bit for bit (np.mod(arctan2 - orientation, 2pi) // (2pi/N)) % N. For
    N >= 2 the angle is at least -2pi, so np.mod adds 2pi to a negative
    angle and keeps the rest (N = 1 has one sector). The floor division
    counts the _sector_edges at or below the result, one comparison pass per
    edge, and the top edge folds to sector 0, as % N does when adding 2pi
    rounds up to 2pi. The float mod and floor division cost about ten times
    as much."""
    rel = np.arctan2(targets_dy, targets_dx)
    rel -= orientations
    rel += (rel < 0.0) * _TWO_PI
    *inner, top = _sector_edges(sectors)
    sec = np.zeros(len(rel), dtype=np.min_scalar_type(sectors))
    for edge in inner:
        sec += rel >= edge
    sec *= rel < top
    return sec


#: Fewest sensors a join cell expects. Below this the cells stop shrinking
#: with rho, so a trial holds at most about 4 / (pi * 0.04) = 32 cells per
#: expected sensor (rho = 1e-3 m would otherwise need 1.6e9 cells a trial).
#: Every figure and benchmark point has lambda_s rho^2 >= 0.05, so their
#: grids stay rho / split wide.
_CELL_SENSORS_MIN = 0.04

#: Most candidate pairs one chunk of a strip holds; a beacon with more gets a
#: chunk of its own. Chunks keep the pair stage's temporaries at a fixed
#: footprint whatever the batch size: five workspace buffers of 128 KiB
#: (the candidates' sorted positions, the two offsets, the squared distance
#: and a gather temporary), which grow only for such a beacon. Each chunk
#: makes the same ~20 NumPy calls, so larger chunks make fewer of them.
#: 16,384 ran mc_schemes faster than 8,192 at a lower traced batch peak;
#: 32,768 was no faster and raised the process's peak RSS by up to 6%.
_CHUNK_CANDIDATES = 16384


class _Workspace:
    """Scratch arrays that one lane reuses across the chunks and batches it
    runs, so the allocator does not hand their pages back and fault them in
    again on every chunk and batch.

    work(role, n, dtype) is a view of exactly n elements of dtype at the
    start of the role's flat buffer of 8-byte items, which grows only when a
    request exceeds it; the caller writes the whole view before reading it,
    except for the first keep items, which a grown buffer copies over.
    Arrays never alive at the same time share a role. A batch's draws
    (_batch_draws) go straight into "strips" (beacon uniforms, dead once
    placed, then the join's strip bounds), "orient", "ties" (greedy's) and
    "a" (sensor uniforms); "a" then takes the join's sensor keys and sorted
    coordinates, then the path losses. The cull (_cull) keeps its grid and
    widened grid ("cull_grid", "cull_wide", bytes); "kept" holds the batch's
    sensors' cull keys, float32 positions and mask, then the uniforms of the
    sensors the cull keeps."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, role: str, n: int, dtype=np.float64, keep: int = 0) -> np.ndarray:
        items = -(-n * np.dtype(dtype).itemsize // 8)
        buf = self._buffers.pop(role, None)
        if buf is None or len(buf) < items:
            kept = buf[:keep] if keep else None
            buf = None  # free the old buffer first, unless part of it is kept
            buf = np.empty(items)
            if keep:
                buf[:keep] = kept
        self._buffers[role] = buf
        return buf[:items].view(dtype)[:n]


class _DrawBuffer:
    """A workspace role filled from its start, one trial's draw at a time:
    calling it with n returns the next n float64 items. It starts at a
    reserved size and, when a call overflows it, grows to half again as
    many items as it then needs, copying the part already filled."""

    __slots__ = ("_work", "_role", "_buf", "filled")

    def __init__(self, work: _Workspace, role: str, reserve: int) -> None:
        self._work, self._role = work, role
        self._buf = work(role, reserve)
        self.filled = 0

    def __call__(self, n: int) -> np.ndarray:
        lo = self.filled
        hi = self.filled = lo + n
        if hi > len(self._buf):
            self._buf = self._work(self._role, hi + (hi >> 1), keep=lo)
        return self._buf[lo:hi]

    def drawn(self) -> np.ndarray:
        return self._buf[: self.filled]


def _join_grid(params: ScenarioParams) -> tuple[int, float]:
    """Join cells per charging radius, and the smallest cell side.

    A finer grid trims the candidates a beacon reads toward its disk but adds
    cells and strips, which pays only when a rho-wide cell holds many
    sensors: about the square root of half that expected count was fastest
    over the Fig. 3 sweep. The floor keeps a cell's expected sensors at
    _CELL_SENSORS_MIN or more."""
    per_cell = params.sn_density * params.charging_radius**2
    split = max(1, round(math.sqrt(per_cell / 2.0)))
    return split, math.sqrt(_CELL_SENSORS_MIN / params.sn_density)


#: Most beacons or sensors a trial may expect: _key_order's packed join keys
#: break near 5e8 sensors in one trial. Beacons are held to it too.
_TRIAL_POINTS_MAX = 5e8


def _key_order(key: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Stable argsort of nonnegative int64 keys, computed in place in key;
    scratch, an int64 array as long as key, is overwritten.

    Each key is packed as key << bits | index, bits = (len - 1).bit_length(),
    and the packed values get one np.sort. They stay below 2**63, so stay
    signed and order like (key, index), while key < 2**(63 - bits). The
    pair join's keys are below its n_keys, which _batch_size keeps under
    about 4e5 in batches of two or more trials (8e5 where the cull runs).
    A one-trial batch holds at most about 32 cells per expected sensor, so
    it would take some 5e8 sensors (8 GiB of coordinates) in one trial to
    reach the bound; run_trials refuses trials that expect more
    (_TRIAL_POINTS_MAX)."""
    bits = max(len(key) - 1, 0).bit_length()
    # the indices, np.arange(len(key)) written into scratch
    index = np.empty_like(key) if scratch is None else scratch
    index.fill(1)
    np.cumsum(index, out=index)
    index -= 1
    key <<= bits
    key |= index
    key.sort()
    key &= (1 << bits) - 1
    return key


def _pairs_bucketed(
    pb: np.ndarray,
    trial_pb: np.ndarray,
    sn: np.ndarray,
    trial_sn: np.ndarray,
    rho: float,
    split: int,
    min_cell: float,
    work: _Workspace,
):
    """Beacon-sensor pairs within rho and in the same trial.

    Returns an iterator that walks one column strip at a time and yields
    (i, dx, dy) per chunk: the pairs' beacon indices i and offsets
    dx, dy = sn[:, j] - pb[:, i] for sensor j, the ones the distance test
    used. _sector_counts reads nothing else, so sensor indices are not
    kept. The sensors may be a batch's own or those the cull kept
    (_batch_powers): a sensor the cull drops pairs with no beacon, so the
    pairs are the same.

    Points are (2, n) arrays of x and y rows. Sensors are bucketed into a
    uniform grid of cells a hair wider than rho / split, and no narrower than
    min_cell, its bounds taken from the points, with one block of cells per
    trial label so batches of concatenated trials join without cross-talk. A
    counting pass (bincount, then cumsum in place) over the dense cell keys
    gives end[key], the number of sensors in cells up to key, into the
    sensors sorted by key. A column's cells have consecutive keys, so a
    beacon reads each column of its neighbourhood as one strip
    end[first - 1] : end[last]. The rows are trimmed to the disk: a cell a
    columns and b rows beyond the beacon's adjacent ones is read only if
    a^2 + b^2 < split^2; cells wider than rho / split only widen what is
    read. A strip is read in chunks of whole beacons holding at most
    _CHUNK_CANDIDATES candidates between them, so no pair is split or read
    twice. Only the pair *set* matters downstream (integer sector counts),
    so neither the sort nor the join order carries floating-point
    sensitivity.

    Scratch comes from work, reused chunk by chunk: its role "a" takes the
    sensor keys, then the sorted coordinates, so sn must not be a view of
    it. The yielded arrays are fresh. Gathers write with out= and
    mode="clip" (mode="raise" would buffer them; every index is in range),
    which gives the bytes the allocating forms do.
    """
    if pb.shape[1] == 0 or sn.shape[1] == 0:
        return iter(())  # the cull may keep no sensor of a batch
    # a pair can pass the rounded distance test yet lie just over rho apart
    # (beacon (2, 0.5), sensor (1 - 2**-53, 0.5), rho = 1); the margin keeps
    # such pairs strictly inside the stencil, and the test alone decides
    cell = max(rho * (1.0 + 2.0**-20) / split, min_cell)
    # bounds from the raw extremes: floor(x / cell) is monotone in x
    lo_x, lo_y = (math.floor(min(sn[d].min(), pb[d].min()) / cell) for d in (0, 1))
    hi_x, hi_y = (math.floor(max(sn[d].max(), pb[d].max()) / cell) for d in (0, 1))
    # split empty cells on each side keep every strip inside its trial block,
    # and one more row below keeps first - 1 a cell of it
    span = hi_y - lo_y + 2 * split + 2
    per_trial = span * (hi_x - lo_x + 2 * split + 1)
    n_keys = per_trial * (int(max(trial_pb.max(), trial_sn.max())) + 1)
    corner = float((lo_x - split) * span + lo_y - split - 1)

    def cell_keys(xy, trial, scratch, out):
        # integer-valued doubles, exact far below 2**53, built in scratch and
        # in out, which then takes the int64 keys in place of the row
        key = np.divide(xy[0], cell, out=scratch)
        np.floor(key, out=key)
        key *= span
        row = np.divide(xy[1], cell, out=out)
        np.floor(row, out=row)
        key += row
        key -= corner
        out = out.view(np.int64)
        np.copyto(out, key, casting="unsafe")
        out += np.multiply(trial, per_trial, out=scratch.view(np.int64))
        return out

    # the sensor keys and their order go in the second row of "a" and their
    # scratch in the first, which then takes the sorted x ("a" held the
    # caller's draws, dead by now)
    n_sn = sn.shape[1]
    sx, sy = work("a", 2 * n_sn).reshape(2, n_sn)
    key = cell_keys(sn, trial_sn, sx, sy)
    end = np.bincount(key, minlength=n_keys)
    np.cumsum(end, out=end)
    order = _key_order(key, sx.view(np.int64))
    # sensor coordinates in key order, so a strip is one contiguous run; y
    # overwrites the order it is gathered by, one block at a time
    sn[0].take(order, out=sx, mode="clip")
    for lo in range(0, n_sn, _CHUNK_CANDIDATES):
        block = order[lo : lo + _CHUNK_CANDIDATES]
        sy[lo : lo + len(block)] = sn[1].take(block, out=work("tmp", len(block)), mode="clip")
    n_pb = pb.shape[1]
    # the strip bounds' buffer is the beacon keys' scratch first
    strips = work("strips", 3 * n_pb, np.int64).reshape(3, n_pb)
    base = cell_keys(pb, trial_pb, strips[0].view(np.float64), work("base", n_pb))

    def chunks():
        left, n_hit, ends = strips
        beacons = np.arange(n_pb)
        for ox in range(-split, split + 1):
            # rows read on either side of the beacon's row
            reach = 1 + math.isqrt(split * split - max(abs(ox) - 1, 0) ** 2 - 1)
            end.take(np.add(base, ox * span - reach - 1, out=ends), out=left, mode="clip")
            end.take(np.add(base, ox * span + reach, out=ends), out=n_hit, mode="clip")
            n_hit -= left
            np.cumsum(n_hit, out=ends)
            # candidate c of the strip, of beacon b, sits at sorted position
            # left[b] + c - (ends[b] - n_hit[b])
            left -= ends
            left += n_hit
            lo = 0
            while lo < n_pb:
                first = int(ends[lo] - n_hit[lo])
                hi = int(ends.searchsorted(first + _CHUNK_CANDIDATES, side="right"))
                hi = max(hi, lo + 1)
                i = np.repeat(beacons[lo:hi], n_hit[lo:hi])
                m = len(i)
                pos = left.take(i, out=work("pos", m, np.int64), mode="clip")
                pos += np.arange(first, int(ends[hi - 1]))
                dx = sx.take(pos, out=work("dx", m), mode="clip")
                dy = sy.take(pos, out=work("dy", m), mode="clip")
                tmp = pb[0].take(i, out=work("tmp", m), mode="clip")
                dx -= tmp
                pb[1].take(i, out=tmp, mode="clip")
                dy -= tmp
                d2 = np.multiply(dx, dx, out=work("d2", m))
                d2 += np.multiply(dy, dy, out=tmp)
                kept = np.flatnonzero(d2 <= rho * rho)
                yield i.take(kept), dx.take(kept), dy.take(kept)
                lo = hi

    return chunks()


def _sector_counts(
    pb, trial_pb, orientations, sn, trial_sn, params: ScenarioParams, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Sensors in each sector of each beacon over a batch of trials, as an
    (N, n_pb) array, and each beacon's sector k holding the origin.

    Beacons and sensors are (2, n) arrays of x and y rows carrying trial
    labels; a sensor occupies a beacon's sector when both share a trial and
    lie within the charging radius. Each join chunk adds its pairs in place.
    The counts are sector-major, so _scheme_gains' per-beacon reductions
    run along contiguous rows."""
    n_pb = pb.shape[1]
    n_sec = params.sectors
    chunks = _pairs_bucketed(
        pb, trial_pb, sn, trial_sn, params.charging_radius, *_join_grid(params), work
    )
    counts = np.zeros(n_sec * n_pb, dtype=np.int64)
    for i, dx, dy in chunks:
        sec = _sectors_toward(dx, dy, orientations.take(i), n_sec)
        # the key sec * n_pb + i, in int64: sec is a uint8 and would wrap
        i += np.multiply(sec, n_pb, dtype=np.int64)
        np.add.at(counts, i, 1)
    k = _sectors_toward(-pb[0], -pb[1], orientations, n_sec)
    return counts.reshape(n_sec, n_pb), k


def _scheme_gains(
    counts: np.ndarray, k: np.ndarray, scheme: Allocation, tie_draws: np.ndarray | None
) -> np.ndarray:
    """Gain each beacon radiates toward the origin, in its sector k, from
    its column of the (N, n_pb) sector counts: 1 when no sector is occupied;
    otherwise uniform gives N / (occupied sectors) if k is occupied, robust
    N * count_k / (sensors in the disk), and greedy N if k is the one it
    picks among the sectors tied for the most sensors, 0 elsewhere, so a
    beacon's gains sum to N.
    Greedy picks the int(u * ties)-th tied sector in sector order (the last
    if that rounds up to ties) for u = tie_draws[b], one uniform per beacon
    whether or not it ties, which keeps the stream layout fixed."""
    n_sec, n_pb = counts.shape
    # flat index of each beacon's entry k, in int64: k is a uint8 and would wrap
    at_k = np.multiply(k, n_pb, dtype=np.int64)
    at_k += np.arange(n_pb)
    occupied = np.count_nonzero(counts, axis=0)
    hit = counts.take(at_k)
    if scheme is Allocation.UNIFORM:
        gains = np.where(hit > 0, n_sec / np.maximum(occupied, 1), 0.0)
    elif scheme is Allocation.ROBUST:
        gains = n_sec * hit / np.maximum(counts.sum(axis=0), 1)
    else:  # greedy
        ties = counts == counts.max(axis=0)
        n_ties = ties.sum(axis=0)
        pick_rank = np.minimum((tie_draws * n_ties).astype(np.int64), n_ties - 1)
        # k's rank among the tied sectors: those tied below it, counted in a
        # boolean mask rather than an int64 running sum of every row; the
        # sector numbers take k's dtype, so the comparison casts nothing
        ties_below = np.arange(n_sec, dtype=k.dtype)[:, np.newaxis] < k
        ties_below &= ties
        chosen = ties.take(at_k) & (np.count_nonzero(ties_below, axis=0) == pick_rank)
        gains = np.where(chosen, float(n_sec), 0.0)
    return np.where(occupied == 0, 1.0, gains)


def received_power_origin(
    sample: NetworkSample,
    params: ScenarioParams,
    scheme: Allocation = Allocation.UNIFORM,
    rng: np.random.Generator | None = None,
) -> float:
    """Power at the origin sensor for one realization, watts.

    Sums P * sigma * gain * max(distance, 1)^(-alpha) over all beacons; the
    origin sensor itself occupies sectors like any other sensor.
    """
    validate(params)
    if not isinstance(scheme, Allocation):
        raise ValueError(f"unknown allocation scheme {scheme!r}")
    if scheme is Allocation.GREEDY and rng is None:
        raise ValueError("greedy tie-break needs an RNG stream")
    pb = sample.pb_points
    # greedy draws one tie-break uniform per beacon, as the batched engine does
    tie_draws = rng.random(len(pb)) if scheme is Allocation.GREEDY else None
    return float(_powers(
        pb.T, np.zeros(len(pb), dtype=np.int64), sample.pb_orientations,
        sample.sn_points.T, np.zeros(len(sample.sn_points), dtype=np.int64),
        params, scheme, tie_draws, 1, _Workspace(),
    )[0])


def _exact_zone_radius(params: ScenarioParams) -> float:
    """AUTO-mode exact simulation radius; the tail beyond it is folded in
    as its mean, costing at most _VARIANCE_SLIP of the variance."""
    n = params.sectors
    alpha = params.path_loss_exp
    r_var = ((n + 1) / (alpha * _VARIANCE_SLIP)) ** (1.0 / (2.0 * alpha - 2.0))
    r_var = min(max(r_var, _EXACT_ZONE_MIN), _EXACT_ZONE_MAX)
    return max(3.0 * params.charging_radius, r_var)


def _run_window(params: ScenarioParams, config: SimConfig) -> tuple[float, float]:
    """The beacon window a run draws over, and the far-tail mean it adds."""
    if config.window_radius != AUTO_WINDOW:
        return float(config.window_radius), 0.0
    window = _exact_zone_radius(params)
    return window, _tail_mean(params, window)


def _tail_mean(params: ScenarioParams, radius: float) -> float:
    """Expected power from all beacons beyond radius (>= 1); exact for every
    scheme because the average gain toward any fixed direction is 1."""
    alpha = params.path_loss_exp
    return (
        _TWO_PI
        * params.pb_density
        * params.pb_power
        * params.attenuation
        * radius ** (2.0 - alpha)
        / (alpha - 2.0)
    )


#: The cull's margin per meter of sensor window R. In cells of side c, a
#: sensor's float32 position strays from its float64 one by at most
#: (26.4 + k) u R / c + 2u cells, u = 2**-24 (float32's unit roundoff),
#: from these roundings: the radius sqrt(u0) R/c, 3.5u of R (casting u0,
#: the root, R/c and the product); the angle 2pi u1, 3u of 2pi, which moves
#: cos and sin by 6pi u < 18.9u; float32 cos and sin themselves, k u; their
#: product with the radius, 1u of R; the shift into positive cells, R/c + 1
#: rounded and the sum rounded, 3u of R and 2u of a cell. Beacon cells come from float64
#: coordinates, and the engine's float64 positions and its pair test, which
#: passes pairs a few float64 roundoffs beyond rho, add far less than 1u.
#: k, the worst error of float32 cos and sin over all 2**30 angles the
#: first two steps can make, measured 1.205 with NumPy 2.4.6's X86_V3 and
#: X86_V4 loops and 0.547 at its X86_V2 baseline. So 64u (8.4e-5 m at
#: R = 22 m) covers any sin and cos within 35 ulp of exact, for cells no
#: wider than R.
_CULL_MARGIN = 64.0 * 2.0**-24

#: The cull runs only while its expected marked share, the chance that a
#: point lies in the 5 x 5 cell block around some beacon of its trial,
#: 1 - exp(-25 lambda_p c^2) for cells of side c, stays below this. In a
#: sweep at lambda_p 0.1 with the cull forced on (CHANGES.md), shares of
#: 0.15-0.46 ran 1.09-1.61x on one thread or two, 0.71-0.76 ran 0.97-1.10x
#: and 0.92 ran 0.94-1.03x.
_CULL_SHARE_MAX = 0.6

#: Fewest sensors a cull cell expects. Below it the cells stop shrinking
#: with rho, so the mask and its widened copy hold at most about
#: 4 / (pi * this) = 13 cells, 26 bytes, per expected sensor. Where sensors
#: are as sparse as two per beacon (lambda_s 0.2, lambda_p 0.1), the mask
#: cost about what it saved, and this floor lifts the marked share there
#: past _CULL_SHARE_MAX.
_CULL_CELL_SENSORS_MIN = 0.1

def _cull_grid(params: ScenarioParams, window: float) -> tuple[float, int] | None:
    """Cull cell side and cells per grid side for sensors drawn over
    window + rho, or None where the cull is off.

    A pair within rho sits at most 2 cells of side (rho + margin) / 2 from
    its beacon's cell on each axis, float32 error included (_CULL_MARGIN),
    so a sensor outside the 5 x 5 block around every beacon of its trial
    pairs with none. The grid spans the sensor window plus one cell on each
    side, which float32 rounding cannot cross. The cull is off where rho is
    below 16 margins (1.3 mm at R = 22 m), where a cell would be as wide as
    the sensor window (every sensor would be kept), and where the marked
    share reaches _CULL_SHARE_MAX."""
    rho = params.charging_radius
    sn_window = window + rho
    margin = _CULL_MARGIN * sn_window
    cell = max((rho + margin) / 2.0, math.sqrt(_CULL_CELL_SENSORS_MIN / params.sn_density))
    share = -math.expm1(-25.0 * params.pb_density * cell * cell)
    if rho < 16.0 * margin or cell >= sn_window or share >= _CULL_SHARE_MAX:
        return None
    return cell, int(2.0 * sn_window / cell) + 3


def _cull(
    u_sn: np.ndarray, t_sn: np.ndarray, pb: np.ndarray, t_pb: np.ndarray,
    n_trials: int, cell: float, side: int, sn_window: float, work: _Workspace,
) -> np.ndarray:
    """Indices, ascending, of the sensors that lie in the 5 x 5 block of
    cull cells around some beacon of their trial; the sensors are an (n, 2)
    uniform block drawn over sn_window, labelled t_sn, origin rows included.

    The beacons' cells come from their float64 coordinates and the sensors'
    from float32 positions in cell units (see _cull_grid and _CULL_MARGIN).
    One scatter marks the beacon cells in a grid of side * side cells per
    trial, which shifted ORs widen by two cells along each axis in turn, and
    each sensor reads its cell. The float32 values only discard sensors;
    none reaches a sample. The grid and its widened copy are workspace
    roles; the sensors' positions, keys and mask share the role "kept"."""
    scale = sn_window / cell
    shift = scale + 1.0
    pb_x, pb_y = (np.floor(row / cell + shift).astype(np.int64) for row in pb)
    # side * side cells per trial: the shifts by 1 and 2 widen each beacon's
    # mark along a row, those by side and 2 * side across rows; a shift that
    # runs past a row's or a trial's end only marks cells at the grid's
    # edge, which keeps more sensors, never fewer
    size = n_trials * side * side
    grid = work("cull_grid", size, np.bool_)
    wide = work("cull_wide", size, np.bool_)
    grid.fill(False)
    grid[(t_pb * side + pb_x) * side + pb_y] = True
    for src, dst, step in ((grid, wide, 1), (wide, grid, side)):
        np.copyto(dst, src)
        for d in (step, 2 * step):
            dst[d:] |= src[:-d]
            dst[:-d] |= src[d:]
    # the sensors' cell keys, then their float32 positions, in the role the
    # kept sensors' uniforms take once the cull returns
    m = len(u_sn)
    scratch = work("kept", 5 * m, np.float32)
    key = scratch[: 2 * m].view(np.int64)
    r, x, y = scratch[2 * m :].reshape(3, m)
    np.sqrt(u_sn[:, 0], out=r, dtype=np.float32)
    r *= np.float32(scale)
    np.multiply(u_sn[:, 1], np.float32(_TWO_PI), out=x, dtype=np.float32)
    np.sin(x, out=y)
    y *= r
    y += np.float32(shift)
    np.cos(x, out=x)
    x *= r
    x += np.float32(shift)
    # cell (t, i, j) has key (t * side + i) * side + j; the float32 values
    # are positive, so the cast's truncation is the floor
    np.multiply(t_sn, side, out=key)
    floor = r.view(np.int32)
    np.copyto(floor, x, casting="unsafe")
    key += floor
    key *= side
    np.copyto(floor, y, casting="unsafe")
    key += floor
    # the mask overwrites the floors, read by now
    return np.flatnonzero(grid.take(key, out=r.view(np.bool_)[:m], mode="clip"))


#: Fewest expected beacons and sensors in a batch: the batch floor, unless
#: the whole step holds fewer. Below it a batch spends its time in short
#: NumPy calls: at lambda_s 0.2-0.8, rho 0.25-0.5 (steps of 14-53 trials,
#: bound by the join's cell count) quarter batches two at a time ran
#: 0.7-0.86x whole steps one at a time, and 1.3-1.5x with this floor.
_SPLIT_POINTS_MIN = 32768


def _batch_size(params: ScenarioParams, window: float, sensors: bool = True) -> int:
    """Trials fused per vectorized pass, sized to bound working-set memory.

    Per trial, the pair stage holds an entry per beacon (its cell key and
    strip bounds), per sensor (its sorted copy) and per join cell over the
    sensor window (the CSR index; the cell floor keeps small radii from
    filling a batch with cells). Candidate pairs are read in chunks of a
    fixed size, each added to the sector counts (N per beacon), so the
    pairs do not grow with the batch. The memory bounded is a lane's
    _Workspace, which keeps the largest batch's arrays between batches, plus
    what a batch allocates afresh; the workspace's roles share buffers, so
    that it holds about what one batch peaked at when every array was new.
    Without sensors (forced omni draws none and builds no join grid) only
    the beacons count, so its batches are larger; batch sizes never change
    a sample.

    Where the cull runs (_cull_grid), every drawn sensor still counts a
    row: each keeps its draws, label, mask byte, float32 position and cull
    key for the whole batch (the draws go straight into buffers reserved a
    few standard deviations above the batch's expected count, with no
    per-trial copy), and the expected survivors (at most _CULL_SHARE_MAX of
    them) hold their coordinates and join entries within that row's bytes.
    A join cell counts half a row there, as the join's sensor arrays shrink
    with the survivors: at lambda_s 0.8, rho 0.25 the 28-trial steps this
    allows ran 1.1x the 14-trial ones.

    The step, the trials 4e5 rows allow, is then split four ways, but not
    below _SPLIT_POINTS_MIN expected points (beacons, plus sensors if
    drawn), nor above the whole step. The lane count sets only how many
    batches run at once. Run one at a time, quarter batches ran the twelve
    Fig. 3 points in 0.92-0.96x the time of whole steps, at traced batch
    peaks of at most 8.1 MiB against 22.6."""
    expect_pb, expect_sn = _field_means(params, window)
    points = rows = expect_pb
    if sensors:
        rho = params.charging_radius
        split, min_cell = _join_grid(params)
        cell = max(rho / split, min_cell)
        sn_window = window + rho
        cells = (2.0 * (sn_window / cell + split) + 2.0) ** 2
        points = expect_pb + expect_sn
        if _cull_grid(params, window) is not None:
            cells /= 2.0
        rows = max(expect_pb, expect_sn, cells)
    step = int(min(256, max(1, 4.0e5 / max(rows, 1.0))))
    floor = math.ceil(_SPLIT_POINTS_MIN / max(points, 1.0))
    return min(step, max(step // 4, floor))


def _powers(
    pb, trial_pb, orientations, sn, trial_sn, params: ScenarioParams,
    scheme: Allocation, tie_draws, n_trials: int, work: _Workspace,
) -> np.ndarray:
    """Power at the origin sensor of each of n_trials trials, watts.

    Each beacon's gain (_sector_counts, then _scheme_gains; forced omni
    reads no sensors, every gain being 1) times its path loss
    max(distance, 1)^(-alpha) is summed per trial in beacon order, then
    scaled by P * sigma.
    """
    gains = None
    if scheme is not Allocation.FORCED_OMNI:
        counts, k = _sector_counts(pb, trial_pb, orientations, sn, trial_sn, params, work)
        gains = _scheme_gains(counts, k, scheme, tie_draws)
    # the join is done with "a"
    atten = np.hypot(pb[0], pb[1], out=work("a", pb.shape[1]))
    np.maximum(atten, 1.0, out=atten)
    np.power(atten, -params.path_loss_exp, out=atten)
    if gains is not None:
        atten *= gains
    powers = np.bincount(trial_pb, weights=atten, minlength=n_trials)
    return params.pb_power * params.attenuation * powers


def _draw_reserve(mean: float) -> int:
    """Points a batch that expects mean of them reserves draw room for: the
    mean plus four standard deviations of their Poisson count, which about
    one batch in 30,000 exceeds (_DrawBuffer then grows)."""
    return math.ceil(mean + 4.0 * math.sqrt(mean))


def _batch_draws(
    params: ScenarioParams,
    scheme: Allocation,
    master_seed: int,
    start: int,
    stop: int,
    window: float,
    work: _Workspace,
) -> tuple:
    """Every draw of trials [start, stop), written straight into work's draw
    roles: each trial's network draws from its keyed stream, as
    _trial_draws orders them, and for greedy one tie-break uniform per
    beacon from its substream 2.

    Returns the beacon uniforms as (n, 2) and their trial labels, the
    orientation uniforms, the sensor uniforms as (m, 2), each trial's
    _ORIGIN row first, and their labels, and the tie-break uniforms; None
    stands for what the scheme does not draw."""
    n_trials = stop - start
    mean_pb, mean_sn = _field_means(params, window)
    reserve = _draw_reserve(n_trials * mean_pb)
    pb = _DrawBuffer(work, "strips", 2 * reserve)
    orient = sn = ties = None
    if scheme is Allocation.FORCED_OMNI:
        mean_sn = None
    else:
        orient = _DrawBuffer(work, "orient", reserve)
        sn = _DrawBuffer(work, "a", 2 * _draw_reserve(n_trials * (mean_sn + 1.0)))
    if scheme is Allocation.GREEDY:
        ties = _DrawBuffer(work, "ties", reserve)
    streams = _TrialStreams(master_seed)
    n_pb, n_sn = [], []
    for i in range(start, stop):
        u_pb, _, u_sn = _trial_draws(streams.at(i), mean_pb, mean_sn, pb, orient, sn)
        n = len(u_pb) >> 1
        n_pb.append(n)
        if sn is not None:
            n_sn.append(len(u_sn) >> 1)
        if ties is not None:
            streams.at(i, _GREEDY_SUBSTREAM).random(out=ties(n))
    labels = np.arange(n_trials)
    u_pb, t_pb = pb.drawn().reshape(-1, 2), np.repeat(labels, n_pb)
    if sn is None:
        return u_pb, t_pb, None, None, None, None
    u_sn, t_sn = sn.drawn().reshape(-1, 2), np.repeat(labels, n_sn)
    return u_pb, t_pb, orient.drawn(), u_sn, t_sn, None if ties is None else ties.drawn()


def _batch_powers(
    params: ScenarioParams,
    scheme: Allocation,
    master_seed: int,
    start: int,
    stop: int,
    window: float,
    work: _Workspace,
) -> np.ndarray:
    """Powers for trials [start, stop) in one vectorized pass.

    Every random draw still comes from the owning trial's keyed stream in
    draw_network's order (_batch_draws), so results are independent of how
    trials are grouped into batches or spread over workers. A trial's
    sensors are one _ORIGIN row and its field's uniforms. Where _cull_grid
    turns the cull on, sensors no beacon of their trial can reach are
    dropped after the draws: the rest get the float64 coordinates every
    sensor gets without the cull, by the same operations, and only they
    enter the join. Only the pair set reaches a sample, so samples keep
    every bit. The arrays are built in work, which may hold an earlier
    batch's.
    """
    n_trials = stop - start
    u_pb, t_pb, orientations, u_sn, t_sn, ties = _batch_draws(
        params, scheme, master_seed, start, stop, window, work
    )
    pb = _disk_points(u_pb, window, work("pb", u_pb.size).reshape(2, -1))
    del u_pb  # the join takes its role, "strips", and may regrow it
    sn = None
    if u_sn is not None:
        orientations *= _TWO_PI / params.sectors
        sn_window = window + params.charging_radius
        cull = _cull_grid(params, window)
        if cull is not None:
            kept = _cull(u_sn, t_sn, pb, t_pb, n_trials, *cull, sn_window, work)
            out = work("kept", 2 * len(kept)).reshape(-1, 2)
            u_sn = u_sn.take(kept, axis=0, out=out, mode="clip")
            t_sn = t_sn.take(kept)
        sn = _disk_points(u_sn, sn_window, work("sn", u_sn.size).reshape(2, -1))
    return _powers(pb, t_pb, orientations, sn, t_sn, params, scheme, ties, n_trials, work)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _lanes(workers: int) -> int:
    """Batches a call runs at once: two per worker when the usable CPUs
    leave each of the workers a second one, else one."""
    return workers * max(1, min(2, _usable_cpus() // workers))


#: The process pool that runs the batches of calls with more than one lane,
#: started on the first such call and kept for the calls after it, and its
#: process count. _pool_lock guards replacing it.
_pool = None
_pool_lanes = 0
_pool_lock = threading.Lock()

#: The _Workspace a pool process runs every one of its batches on.
_lane_work = None


def _start_lane() -> None:
    """Pool process initializer: the process's workspace, and a watchdog
    thread that ends the process once its parent, the caller that started
    the pool, has gone, whether it exited or was killed."""
    global _lane_work
    import multiprocessing.connection

    _lane_work = _Workspace()
    parent = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([parent])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _lane_batch(params: ScenarioParams, config: SimConfig, window: float, step: int, n: int, lo: int,
                work: _Workspace | None = None) -> np.ndarray:
    """Powers of the batch of trials [lo, min(lo + step, n)), built in work,
    or in a pool process in the process's own workspace."""
    return _batch_powers(
        params, config.allocation, config.master_seed, lo, min(lo + step, n), window,
        _lane_work if work is None else work,
    )


def _stop_pool() -> None:
    """Shut the pool down, if there is one; the next multi-lane call starts
    a new one. Runs at interpreter exit too, while the modules the shutdown
    needs are still loaded, so that the pool is not collected without them."""
    global _pool, _pool_lanes
    with _pool_lock:
        pool, _pool, _pool_lanes = _pool, None, 0
    if pool is not None:
        pool.shutdown()


def _forget_pool() -> None:
    """In a child made by os.fork: drop the parent's pool, whose processes
    serve the parent, unused."""
    global _pool, _pool_lanes, _pool_lock
    _pool, _pool_lanes, _pool_lock = None, 0, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _pool_map(lanes: int, batch, starts):
    """batch(lo) for every lo of starts, in trial order, on the pool's lanes
    processes; a pool of another size is shut down and replaced first.
    Every batch is submitted at once, under the lock, so that no other
    caller can shut the pool down in between. The results raise the first
    failed batch's error in trial order, and cancel the batches not yet
    started. A broken pool fails the call and is dropped."""
    global _pool, _pool_lanes
    pool = None
    try:
        with _pool_lock:
            if _pool_lanes != lanes:
                if _pool is not None:
                    _pool.shutdown()
                # at exit, run before multiprocessing's own handler, which
                # importing the pool registers
                atexit.unregister(_stop_pool)
                _pool = concurrent.futures.ProcessPoolExecutor(lanes, initializer=_start_lane)
                atexit.register(_stop_pool)
                _pool_lanes = lanes
            pool = _pool
            results = pool.map(batch, starts)
        yield from results
    except concurrent.futures.BrokenExecutor:
        with _pool_lock:
            if _pool is pool:
                _pool, _pool_lanes = None, 0
        raise


def _run_batches(params: ScenarioParams, config: SimConfig, lanes: int) -> np.ndarray:
    """Powers of every trial, in batches of _batch_size trials run lanes at
    a time: in this process on one _Workspace when lanes is 1 or there is
    one batch, else on the process pool (_pool_map). A batch's samples
    depend only on its trials' keys, so not on the lane count."""
    n = config.trials
    window, tail = _run_window(params, config)
    try:
        out = np.empty(n, dtype=np.float64)
    except MemoryError:
        raise ConfigError(
            f"cannot allocate the {8 * n} bytes of samples that trials={n!r} needs"
        ) from None
    step = _batch_size(params, window, config.allocation is not Allocation.FORCED_OMNI)
    starts = range(0, n, step)
    batch = functools.partial(_lane_batch, params, config, window, step, n)
    if lanes == 1 or len(starts) == 1:
        work = _Workspace()
        results = (batch(lo, work) for lo in starts)
    else:
        results = _pool_map(lanes, batch, starts)
    for lo, powers in zip(starts, results):
        out[lo : lo + len(powers)] = powers
    out += tail
    return out


def _default_thresholds(samples: np.ndarray) -> np.ndarray:
    positive = samples[samples > 0]
    if len(positive) == 0:
        return np.array([0.0])
    lo = float(positive.min())
    hi = float(samples.max())
    if not hi > lo:
        return np.array([lo])
    return np.geomspace(lo, hi, 50)


def run_trials(
    params: ScenarioParams, config: SimConfig, workers: int = 1
) -> TrialSummary:
    """Simulate config.trials independent networks and aggregate.

    Output is a pure function of (params, config); workers only sets how
    many batches run at once (_lanes), and results merge by trial index.
    Raises specfun.RangeError, as the closed forms do, when rho^2 overflows
    or a trial expects more points than NumPy's Poisson draw allows or the
    pair join can key.
    """
    validate(params)
    _check_config(params, config)
    _check_workers(workers)
    analytic._occupancy(params)  # the closed forms' rho^2 range check
    # _run_batches' window and _trial_draws' means, each at most the largest
    # Generator.poisson takes, 2**63 - 1 less ten square roots of it (~9.2e18),
    # and then at most what the pair join can key
    window, _ = _run_window(params, config)
    means = dict(zip(("beacons", "sensors"), _field_means(params, window)))
    for most, what in (
        ((2**63 - 1) - 10.0 * math.sqrt(2**63 - 1), "NumPy can draw"),
        (_TRIAL_POINTS_MAX, "the pair join can key"),
    ):
        for name, mean in means.items():
            if not mean <= most:
                raise specfun.RangeError(f"a trial expects {mean!r} {name}, more than {what}")
    n = config.trials
    samples = _run_batches(params, config, _lanes(min(workers, n)))
    mean = float(np.mean(samples))
    variance = float(np.var(samples, ddof=1)) if n > 1 else 0.0
    ci = 1.96 * math.sqrt(variance / n) if n > 1 else 0.0
    return TrialSummary(samples=samples, mean=mean, variance=variance, mean_ci95=ci)


def empirical_ccdf(samples, thresholds) -> list[tuple[float, float]]:
    """Fraction of samples at or above each threshold.

    samples is a 1-D sequence whose every item, like each threshold, is a
    real argument and must be finite (README, "Argument rules")."""
    if not (type(samples) is np.ndarray and samples.dtype == np.float64):
        # an item that is no real number reads as NaN, refused as not finite
        given = np.asarray(samples, dtype=object)
        values = [real(item) for item in given.ravel()]
        samples = np.array(values, dtype=np.float64).reshape(given.shape)
    if samples.ndim != 1:
        raise ValueError(f"empirical_ccdf samples must be a 1-D sequence, got {samples.ndim} dims")
    if samples.size == 0:
        raise ValueError("empirical_ccdf needs at least one sample")
    if not np.isfinite(samples).all():
        raise ValueError("empirical_ccdf samples must be finite")
    levels = []
    for given in np.asarray(thresholds, dtype=object).ravel():
        level = real(given)
        if level is None or not -math.inf < level < math.inf:
            raise ValueError(f"empirical_ccdf threshold must be a finite number, got {given!r}")
        levels.append(level)
    below = np.searchsorted(np.sort(samples), levels, side="left")
    fractions = (samples.size - below) / samples.size
    return list(zip(levels, fractions.tolist()))


class OutputError(OSError):
    """An output file or its directory could not be written."""


def _write_new(path: Path, chunks) -> None:
    """Stream text chunks to path as a new UTF-8 file with LF line ends. What was
    at path, a link included, is unlinked, not written through. That also skips
    ext4's crash-safety flush (auto_da_alloc) on rewrite, and nothing calls
    fsync: an output is durable only once the OS writes it back."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write {str(path)!r}: {exc}") from exc


def samples_to_csv(summary: TrialSummary, path) -> None:
    """Write per-trial powers as CSV with columns trial_index, power_w.

    Floats are rendered with repr (shortest round-trip), so identical runs
    produce byte-identical files.
    """
    rows = (f"{i},{float(value)!r}\n" for i, value in enumerate(summary.samples))
    _write_new(Path(path), itertools.chain(["trial_index,power_w\n"], rows))


def summary_to_json(
    summary: TrialSummary, params: ScenarioParams, config: SimConfig
) -> str:
    """Structured run report: statistics, CCDF table (at 50 thresholds
    spaced geometrically over the positive samples), config echo."""
    window = (
        AUTO_WINDOW
        if config.window_radius == AUTO_WINDOW
        else float(config.window_radius)
    )
    doc = {
        "mean_w": summary.mean,
        "variance_w2": summary.variance,
        "mean_ci95_w": summary.mean_ci95,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "allocation": config.allocation.value,
        "window_radius": window,
        "params": params_to_mapping(params),
        "ccdf": [
            [t, p]
            for t, p in empirical_ccdf(summary.samples, _default_thresholds(summary.samples))
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2)
