"""Monte Carlo engine: reproducibility contract, geometry, allocation rules."""

import concurrent.futures
import importlib.util
import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamharvest import analytic, mcsim
from beamharvest.mcsim import (
    Allocation,
    NetworkSample,
    SimConfig,
    draw_network,
    empirical_ccdf,
    received_power_origin,
    run_trials,
    samples_to_csv,
    summary_to_json,
    trial_stream,
)
from beamharvest.scenario import ConfigError, ParameterError, ScenarioParams
from beamharvest.specfun import RangeError
from mc_oracle import pb_beam_state, scalar_origin_gains, sector_of

SIGMA = 6.332573977646111e-05

#: Pool processes run what they inherited when they started: the caller's
#: patches reach them only when the pool starts after the patches, by fork.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool processes inherit the caller's patches only when forked",
)


@pytest.fixture(autouse=True)
def pool_after_patches(request):
    """A test that patches the engine stops the pool before its patches and
    after it undoes them, so that its own pool calls run its patches and
    no later test runs them; a test that changes its patches between pool
    calls stops the pool in between itself."""
    patches = "monkeypatch" in request.fixturenames
    if patches:
        mcsim._stop_pool()
    yield
    if patches:
        mcsim._stop_pool()


def logged(monkeypatch, log, name, line, replace=None):
    """Patch mcsim.<name> with a wrapper that appends "pid line(*args)" to
    the file log, from whichever process runs it, then calls replace (or
    the original) with the same arguments."""
    run = replace or getattr(mcsim, name)

    def wrapper(*args):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {line(*args)}\n")
        return run(*args)

    monkeypatch.setattr(mcsim, name, wrapper)


def log_rows(log):
    """The lines of a logged() file as integer tuples, sorted."""
    if not log.exists():
        return []
    return sorted(tuple(map(int, row.split())) for row in log.read_text().splitlines())


def params_for(**overrides):
    base = dict(
        pb_power=10.0,
        pb_density=0.1,
        sn_density=0.2,
        sectors=4,
        charging_radius=1.0,
        path_loss_exp=3.0,
        wavelength=0.1,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def one_beacon_sample(pb_xy, orientation, extra_sensors=()):
    """Hand-built realization: one beacon, origin sensor, optional extras."""
    sensors = np.vstack([np.zeros((1, 2))] + [np.array([s]) for s in extra_sensors])
    return NetworkSample(
        pb_points=np.array([pb_xy], dtype=np.float64),
        sn_points=sensors.astype(np.float64),
        pb_orientations=np.array([orientation], dtype=np.float64),
    )


def kernel_origin_gains(batch, params, scheme, tie_draws=None):
    """mcsim's batched sector counts and scheme gains applied to a batch of
    realizations, one trial each, labelled in order."""
    def stacked(points):
        labels = [np.full(len(p), t, dtype=np.int64) for t, p in enumerate(points)]
        return np.hstack([p.T for p in points]), np.concatenate(labels)

    pb, t_pb = stacked([s.pb_points for s in batch])
    sn, t_sn = stacked([s.sn_points for s in batch])
    orientations = np.concatenate([s.pb_orientations for s in batch])
    counts, k = mcsim._sector_counts(pb, t_pb, orientations, sn, t_sn, params, mcsim._Workspace())
    return mcsim._scheme_gains(counts, k, scheme, tie_draws)


def scalar_batch_gains(batch, params, scheme, tie_draws):
    """The scalar oracle's gains over the same batch, trial by trial."""
    bounds = np.cumsum([len(s.pb_points) for s in batch])[:-1]
    return np.concatenate([
        scalar_origin_gains(s, params, scheme, u)
        for s, u in zip(batch, np.split(tie_draws, bounds))
    ])


# --- streams ---


def test_trial_stream_is_reproducible_and_keyed():
    a = trial_stream(7, 3).random(5)
    b = trial_stream(7, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_stream(7, 4).random(5))
    assert not np.array_equal(a, trial_stream(8, 3).random(5))
    assert not np.array_equal(a, trial_stream(7, 3, substream=1).random(5))


def test_rekeyed_streams_match_trial_stream():
    # the stream layout: Philox keyed by (seed, trial), counter (0, 0, 0,
    # substream). integers(..., dtype=uint32) leaves half a word buffered;
    # re-keying must drop it along with the key and counter
    seed = 2**64 - 1
    streams = mcsim._TrialStreams(seed)
    for i, sub in ((0, 0), (5, 2), (5, 0), (2**40, 3), (0, 0)):
        fresh = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64),
            counter=np.array([0, 0, 0, sub], dtype=np.uint64),
        ))
        draws = []
        for g in (fresh, streams.at(i, sub), trial_stream(seed, i, sub)):
            draws.append(
                [g.integers(0, 9, 3, dtype=np.uint32), g.poisson(40.0, 4), g.random(3)]
            )
        for want, *got in zip(*draws):
            assert all(np.array_equal(want, g) for g in got)


def test_trial_stream_reset_at_edge_keys():
    # the re-key writes plain ints into a state dict: at the largest seed,
    # index and substream, and after a draw that leaves bits buffered (a
    # uint32 draw keeps half a word), each reset must give the draws of a
    # freshly keyed stream
    top = 2**64 - 1
    partial_draws = (lambda g: g.random(), lambda g: g.integers(0, 9, dtype=np.uint32))
    for seed in (0, top):
        streams = mcsim._TrialStreams(seed)
        for i, sub in itertools.product((0, top), (0, 2, top)):
            fresh = np.random.Generator(np.random.Philox(
                key=np.array([seed, i], dtype=np.uint64),
                counter=np.array([0, 0, 0, sub], dtype=np.uint64),
            ))
            want = [fresh.random(3), fresh.integers(0, 2**32, 3, dtype=np.uint32),
                    fresh.poisson(40.0, 4)]
            for draw in partial_draws:
                draw(streams.at(i, sub))
                g = streams.at(i, sub)
                # raw words first: a bounded draw would reject a leaked zero
                got = [g.random(3), g.integers(0, 2**32, 3, dtype=np.uint32),
                       g.poisson(40.0, 4)]
                assert all(map(np.array_equal, want, got)), (seed, i, sub)


def test_trial_stream_rejects_out_of_range_keys():
    for args in ((2**64, 0), (-1, 0), (1, 2**64), (1, -1), (1, 0, 2**64), (1, 0, -1)):
        with pytest.raises(OverflowError):
            trial_stream(*args)


# --- geometry ---


def test_sector_of_quadrants():
    pb = (0.0, 0.0)
    assert sector_of(pb, (1.0, 0.0), 0.0, 4) == 0
    assert sector_of(pb, (0.0, 1.0), 0.0, 4) == 1
    assert sector_of(pb, (-1.0, 0.0), 0.0, 4) == 2
    assert sector_of(pb, (1.0, -1e-12), 0.0, 4) == 3
    # rotating the beacon rotates the partition
    assert sector_of(pb, (0.0, 1.0), math.pi / 2.0, 4) == 0
    assert sector_of(pb, (1.0, 0.0), math.pi / 2.0, 4) == 3
    assert sector_of(pb, (1.0, 1.0), 0.0, 1) == 0


def test_sector_of_rejects_coincident_points():
    with pytest.raises(ValueError):
        sector_of((2.0, 3.0), (2.0, 3.0), 0.0, 4)


def test_sector_of_matches_vectorized_form():
    rng = np.random.default_rng(5)
    pb = rng.normal(size=(40, 2))
    target = rng.normal(size=(40, 2))
    orient = rng.random(40) * (2.0 * math.pi / 6)
    got = mcsim._sectors_toward(
        target[:, 0] - pb[:, 0], target[:, 1] - pb[:, 1], orient, 6
    )
    want = [sector_of(pb[i], target[i], orient[i], 6) for i in range(40)]
    assert got.tolist() == want


def float_mod_sectors(dx, dy, orientations, sectors):
    """The sector formula the edge table replaces, kept as its oracle."""
    rel = np.mod(np.arctan2(dy, dx) - orientations, 2.0 * math.pi)
    return (rel // (2.0 * math.pi / sectors)).astype(np.int64) % sectors


def ulp_neighbours(x, steps=3):
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_sector_edges_match_float_mod():
    two_pi = 2.0 * math.pi
    rng = np.random.default_rng(8)
    for n in range(1, 17):
        width = two_pi / n
        edges = np.array(mcsim._sector_edges(n))
        # angles rel = arctan2 - orientation at every edge and its ulp
        # neighbours, reached directly and through np.mod's +2pi; negatives
        # whose +2pi rounds to 2pi itself or just below; random angles
        rel = np.concatenate([
            ulp_neighbours(edges),
            ulp_neighbours(edges - two_pi),
            -np.spacing(two_pi) * np.array([1e-300, 2.0**-8, 0.25, 0.5, 0.75, 1.0, 2.0]),
            [0.0, math.pi, -math.pi - width],
            rng.uniform(-math.pi - width, math.pi, 20_000),
        ])
        # the reachable range: arctan2 in [-pi, pi], orientation in [0, width)
        rel = rel[(rel >= -math.pi - width) & (rel <= math.pi)]
        # dx = 1, dy = 0 gives arctan2 = 0, so orientation -rel gives rel exactly
        probe = (np.ones_like(rel), np.zeros_like(rel), -rel)
        got = mcsim._sectors_toward(*probe, n)
        assert np.array_equal(got, float_mod_sectors(*probe, n)), n
        # -0.0, and arctan2 = -pi at the largest orientation the draws give
        top = np.array([(1.0 - 2.0**-53) * width, np.nextafter(width, 0.0)])
        for probe in (
            (np.array([1.0]), np.array([-0.0]), np.array([0.0])),
            (np.array([-1.0, -1.0]), np.array([-0.0, -0.0]), top),
        ):
            got = mcsim._sectors_toward(*probe, n)
            assert np.array_equal(got, float_mod_sectors(*probe, n)), n


def test_draw_network_shapes():
    pr = params_for(charging_radius=2.0)
    sample = draw_network(pr, 10.0, trial_stream(1, 0))
    assert sample.pb_points.shape[1] == 2
    # origin sensor is always row zero
    assert np.array_equal(sample.sn_points[0], np.zeros(2))
    assert np.hypot(sample.pb_points[:, 0], sample.pb_points[:, 1]).max() <= 10.0
    # sensors cover the window plus rho, so every beacon sees its whole disk
    assert np.hypot(sample.sn_points[:, 0], sample.sn_points[:, 1]).max() <= 12.0
    assert (sample.pb_orientations >= 0).all()
    assert (sample.pb_orientations < 2.0 * math.pi / pr.sectors).all()


@pytest.mark.parametrize("window", [1e-3, 22.0, 1e300])
def test_disk_points_place_the_origin_row_at_plus_zero(window):
    xy = mcsim._disk_points(mcsim._ORIGIN, window, np.full((2, 1), np.nan), np.empty(1))
    assert xy.tolist() == [[0.0], [0.0]]
    assert not np.signbit(xy).any()


def test_float32_disk_points_match_the_cull_reference():
    # the cull's float32 positions, which _CULL_MARGIN's error bound covers,
    # come from _disk_points; this is the sequence that bound was derived
    # for, in its own order: sin before cos, neither in place. Uniforms
    # include 0 and values just below 1 on both axes
    rng = np.random.default_rng(5)
    edge = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-24, 1.0 - 2.0**-53]
    u = np.vstack((list(itertools.product(edge, edge)), rng.random((4099, 2))))
    scale, shift = 22.0 / 0.3, 22.0 / 0.3 + 1.0
    m = len(u)
    r, x, y = np.empty((3, m), dtype=np.float32)
    np.sqrt(u[:, 0], out=r, dtype=np.float32)
    r *= np.float32(scale)
    np.multiply(u[:, 1], np.float32(2.0 * math.pi), out=x, dtype=np.float32)
    np.sin(x, out=y)
    y *= r
    y += np.float32(shift)
    np.cos(x, out=x)
    x *= r
    x += np.float32(shift)
    got_r = np.full(m, np.nan, dtype=np.float32)
    got = mcsim._disk_points(u, scale, np.full((2, m), np.nan, dtype=np.float32), got_r)
    got += shift
    assert got.dtype == np.float32
    assert got_r.view(np.int32).tolist() == r.view(np.int32).tolist()
    assert got.view(np.int32).tolist() == [x.view(np.int32).tolist(), y.view(np.int32).tolist()]


def test_draw_network_rejects_a_nonfinite_window():
    for window in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            draw_network(params_for(), window, trial_stream(1, 0))


def test_draw_network_refuses_a_non_real_or_narrow_window():
    # a bool is no window, nor is text, and a window narrower than the
    # charging radius would lose near beacons
    for window in (True, "5", None):
        with pytest.raises(ConfigError, match="^pb_window_radius must be positive and finite"):
            draw_network(params_for(), window, trial_stream(1, 0))
    with pytest.raises(ConfigError, match="^pb_window_radius 2.0 is smaller than the charging radius"):
        draw_network(params_for(charging_radius=3.0), 2.0, trial_stream(1, 0))


# --- allocation rules ---


def test_pb_beam_state_idle_and_forced():
    assert pb_beam_state([0, 0, 0, 0], Allocation.UNIFORM) == [1.0] * 4
    assert pb_beam_state([3, 0, 2, 0], Allocation.FORCED_OMNI) == [1.0] * 4


def test_pb_beam_state_uniform_and_robust():
    assert pb_beam_state([2, 0, 1, 0], Allocation.UNIFORM) == [2.0, 0.0, 2.0, 0.0]
    assert pb_beam_state([2, 0, 1, 0], Allocation.ROBUST) == [8.0 / 3.0, 0.0, 4.0 / 3.0, 0.0]


def test_pb_beam_state_greedy():
    assert pb_beam_state([3, 1, 0, 0], Allocation.GREEDY, 0.9) == [4.0, 0.0, 0.0, 0.0]
    picks = set()
    for u in np.random.default_rng(0).random(40):
        g = pb_beam_state([1, 0, 1, 0], Allocation.GREEDY, u)
        assert sum(g) == 4.0
        picks.add(g.index(4.0))
    assert picks == {0, 2}


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(st.integers(0, 6), min_size=5, max_size=5),
    scheme=st.sampled_from(
        [Allocation.UNIFORM, Allocation.ROBUST, Allocation.GREEDY, Allocation.FORCED_OMNI]
    ),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_beam_gains_conserve_power(counts, scheme, u):
    gains = pb_beam_state(counts, scheme, u)
    assert sum(gains) == pytest.approx(5.0, rel=1e-12)
    assert min(gains) >= 0.0


# --- single-realization power ---


def test_power_single_near_beacon():
    pr = params_for(charging_radius=2.0)
    sample = one_beacon_sample((0.5, 0.0), 0.0)
    # only the origin sensor: the beacon spends all four sectors' power on it
    want = 10.0 * SIGMA * 4.0
    assert received_power_origin(sample, pr) == pytest.approx(want, rel=1e-12)
    far = one_beacon_sample((1.5, 0.0), 0.0)
    assert received_power_origin(far, pr) == pytest.approx(
        want * 1.5**-3.0, rel=1e-12
    )


def test_power_far_beacon_idles_to_omni():
    pr = params_for(charging_radius=2.0)
    sample = one_beacon_sample((3.0, 0.0), 0.0)
    # origin is outside the charging disk and no other sensor exists
    want = 10.0 * SIGMA * 1.0 * 3.0**-3.0
    assert received_power_origin(sample, pr) == pytest.approx(want, rel=1e-12)
    assert received_power_origin(
        sample, pr, Allocation.FORCED_OMNI
    ) == pytest.approx(want, rel=1e-12)


def test_power_robust_splits_by_counts():
    pr = params_for(charging_radius=2.0)
    # second sensor sits in a different sector of the same beacon
    sample = one_beacon_sample((0.5, 0.0), 0.0, extra_sensors=[(1.3, 0.0)])
    got = received_power_origin(sample, pr, Allocation.ROBUST)
    assert got == pytest.approx(10.0 * SIGMA * 2.0, rel=1e-12)
    greedy = [
        received_power_origin(
            sample, pr, Allocation.GREEDY, trial_stream(1, i, substream=2)
        )
        for i in range(30)
    ]
    values = sorted(set(round(v, 18) for v in greedy))
    assert values == pytest.approx([0.0, 10.0 * SIGMA * 4.0], rel=1e-12)


def test_power_empty_network():
    sample = NetworkSample(
        pb_points=np.empty((0, 2)),
        sn_points=np.zeros((1, 2)),
        pb_orientations=np.empty(0),
    )
    assert received_power_origin(sample, params_for()) == 0.0


# --- engine consistency ---


@pytest.mark.parametrize(
    "scheme", [Allocation.UNIFORM, Allocation.ROBUST, Allocation.GREEDY]
)
def test_origin_gains_match_pb_beam_state(scheme):
    # sparse sensors leave many beacons with tied top sectors. Five one-trial
    # batches and one of twelve trials, whose more than 255 beacons would
    # wrap a uint8 sector times the beacon count, at N = 1, 2, 4, 7 and 64
    moved = 0
    for sectors in (1, 2, 4, 7, 64):
        pr = params_for(charging_radius=2.0, sn_density=0.4, sectors=sectors)
        samples = [draw_network(pr, 9.0, trial_stream(seed, 0)) for seed in range(12)]
        for seed, batch in enumerate([[s] for s in samples[:5]] + [samples]):
            u = np.random.default_rng(seed).random(sum(len(s.pb_points) for s in batch))
            assert len(batch) == 1 or len(u) > 255
            runs = []
            for draws in (u, (u + 0.5) % 1.0):
                want = scalar_batch_gains(batch, pr, scheme, draws)
                got = kernel_origin_gains(batch, pr, scheme, draws)
                assert np.array_equal(got, want), (sectors, seed)
                runs.append(got)
                # three-candidate chunks
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(mcsim, "_CHUNK_CANDIDATES", 3)
                    assert np.array_equal(kernel_origin_gains(batch, pr, scheme, draws), want)
            moved += int(np.count_nonzero(runs[0] != runs[1]))
    # only greedy reads the draws, and there moving them must resolve some
    # tie the other way
    assert (moved > 0) == (scheme is Allocation.GREEDY)


def test_greedy_gains_need_tie_draws():
    # the public entry checks what the kernel no longer does: greedy needs
    # its tie-break stream, and a scheme must be an Allocation
    pr = params_for(charging_radius=2.0)
    sample = one_beacon_sample((0.5, 0.0), 0.0, extra_sensors=[(1.3, 0.0)])
    with pytest.raises(ValueError, match="^greedy tie-break needs an RNG stream$"):
        received_power_origin(sample, pr, Allocation.GREEDY)
    for scheme in ("greedy", None):
        with pytest.raises(ValueError, match=f"^unknown allocation scheme {scheme!r}$"):
            received_power_origin(sample, pr, scheme, trial_stream(0, 0))


def test_batched_engine_matches_composed_ops():
    pr = params_for(charging_radius=2.0, sn_density=0.4)
    window = 8.0
    seed = 99
    for scheme in Allocation:
        batched = mcsim._batch_powers(pr, scheme, seed, 0, 12, window, mcsim._Workspace())
        for i in range(12):
            sample = draw_network(pr, window, trial_stream(seed, i))
            # greedy's tie-breaks are on substream 2; the other schemes ignore u
            u = trial_stream(seed, i, substream=2).random(len(sample.pb_points))
            gains = scalar_origin_gains(sample, pr, scheme, u)
            dist = np.hypot(sample.pb_points[:, 0], sample.pb_points[:, 1])
            atten = np.maximum(dist, 1.0) ** -pr.path_loss_exp
            total = 0.0
            for g, a in zip(gains, atten):
                total += g * a
            # same draws, gains and summation order as the batch: exact
            assert batched[i] == pr.pb_power * pr.attenuation * total
            single = received_power_origin(
                sample, pr, scheme, trial_stream(seed, i, substream=2)
            )
            # one trial through the batch's own reduction
            assert single == batched[i]


@pytest.mark.parametrize("sn_density, rho", [(1.6, 0.5), (0.2, 2.0)], ids=["culled", "uncut"])
def test_sector_counts_serve_every_scheme(sn_density, rho):
    # one batch of a Fig. 3 deployment, its sector counts taken once over
    # every drawn sensor: each beam scheme's gains from those counts, times
    # the path losses and summed per trial, are that scheme's _batch_powers
    # bit for bit, whether the engine culls (lambda_s 1.6, rho 0.5) or not
    pr = params_for(pb_power=10.0, sn_density=sn_density, charging_radius=rho)
    window = mcsim._exact_zone_radius(pr)
    assert (mcsim._cull_grid(pr, window) is not None) == (rho == 0.5)
    trials = mcsim._batch_size(pr, window)
    u_pb, t_pb, orient, u_sn, t_sn, ties = mcsim._batch_draws(
        pr, Allocation.GREEDY, 3, 0, trials, window, mcsim._Workspace()
    )
    pb = mcsim._disk_points(u_pb, window, np.empty((2, len(u_pb))), u_pb[:, 0])
    sn = mcsim._disk_points(u_sn, window + rho, np.empty((2, len(u_sn))), u_sn[:, 0])
    orientations = orient * (2.0 * math.pi / pr.sectors)
    counts, k = mcsim._sector_counts(pb, t_pb, orientations, sn, t_sn, pr, mcsim._Workspace())
    atten = np.power(np.maximum(np.hypot(pb[0], pb[1]), 1.0), -pr.path_loss_exp)
    for scheme in (Allocation.UNIFORM, Allocation.ROBUST, Allocation.GREEDY):
        gains = mcsim._scheme_gains(counts, k, scheme, ties)
        powers = np.bincount(t_pb, weights=atten * gains, minlength=trials)
        want = mcsim._batch_powers(pr, scheme, 3, 0, trials, window, mcsim._Workspace())
        assert np.array_equal(pr.pb_power * pr.attenuation * powers, want), scheme


def lattice_batch(draw, trials, rho):
    """Beacons and sensors on a rho/4 lattice: cell edges and exact
    distance rho are representable, and every trial shares one region."""
    point = st.tuples(st.integers(-10, 10), st.integers(-10, 10))
    pb, t_pb, sn, t_sn = [], [], [], []
    for t in range(trials):
        beacons = draw(st.lists(point, max_size=6))
        sensors = draw(st.lists(point, max_size=10))
        pb += beacons
        t_pb += [t] * len(beacons)
        sn += [(0, 0)] + sensors  # the origin sensor of trial t
        t_sn += [t] * (len(sensors) + 1)
    step = rho / 4.0
    return (
        np.array(pb, dtype=np.float64).reshape(-1, 2) * step,
        np.array(t_pb, dtype=np.int64),
        np.array(sn, dtype=np.float64).reshape(-1, 2) * step,
        np.array(t_sn, dtype=np.int64),
    )


def brute_force_pairs(pb, t_pb, sn, t_sn, rho):
    dx = sn[np.newaxis, :, 0] - pb[:, np.newaxis, 0]
    dy = sn[np.newaxis, :, 1] - pb[:, np.newaxis, 1]
    near = (dx * dx + dy * dy <= rho * rho) & (t_pb[:, np.newaxis] == t_sn)
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(near))}


def pair_offsets(batch, pairs):
    """Sorted (beacon, dx, dy) of each (beacon, sensor) pair: the offsets are
    bitwise sensor minus beacon, so a pair read from the wrong sensor, missed
    or read twice changes the list."""
    pb, _, sn, _ = batch
    return sorted(
        (i, float(sn[j, 0] - pb[i, 0]), float(sn[j, 1] - pb[i, 1])) for i, j in pairs
    )


def joined_pairs(pb, t_pb, sn, t_sn, rho, split=1, min_cell=0.0):
    chunks = mcsim._pairs_bucketed(pb.T, t_pb, sn.T, t_sn, rho, split, min_cell, mcsim._Workspace())
    return sorted(
        (i, x, y) for chunk in chunks for i, x, y in zip(*(c.tolist() for c in chunk))
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    trials=st.integers(1, 3),
    rho=st.sampled_from([0.5, 1.0, 2.0]),
    split=st.integers(1, 5),
    coarse=st.sampled_from([0.0, 1.0, 2.5]),
)
def test_pair_join_matches_brute_force(data, trials, rho, split, coarse):
    # coarse sets the cell floor in radii: 0 leaves cells rho / split wide
    batch = lattice_batch(data.draw, trials, rho)
    want = pair_offsets(batch, brute_force_pairs(*batch, rho))
    # chunks of at most 1 or 3 candidates split each strip many times and
    # give a beacon with more candidates a chunk of its own
    for limit in (mcsim._CHUNK_CANDIDATES, 1, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_CHUNK_CANDIDATES", limit)
            assert joined_pairs(*batch, rho, split, coarse * rho) == want


def test_pair_join_counts_distance_rho_as_inside():
    # a beacon on a cell corner in negative coordinates; sensors at distance
    # exactly rho on both axes are inside, the origin and (-2, -1.25) are not
    for split in range(1, 6):
        pb = np.array([[-1.0, -2.0]])
        sn = np.array([[0.0, 0.0], [-2.0, -2.0], [-1.0, -1.0], [-2.0, -1.25]])
        batch = (pb, np.zeros(1, dtype=np.int64), sn, np.zeros(4, dtype=np.int64))
        want = pair_offsets(batch, {(0, 1), (0, 2)})
        assert joined_pairs(*batch, 1.0, split) == want
        # the rounded dx is -1.0, so the pair is inside, yet the points are
        # just over rho apart and would sit two rho-wide cells apart
        pb = np.array([[2.0, 0.5]])
        sn = np.array([[1.0 - 2.0**-53, 0.5]])
        batch = (pb, np.zeros(1, dtype=np.int64), sn, np.zeros(1, dtype=np.int64))
        assert brute_force_pairs(*batch, 1.0) == {(0, 0)}
        assert joined_pairs(*batch, 1.0, split) == pair_offsets(batch, {(0, 0)})


def test_pair_join_key_order_is_a_stable_argsort_up_to_63_bits():
    rng = np.random.default_rng(6)
    for n in (1, 2, 1000, 1025):
        bits = (n - 1).bit_length()
        # the largest key the packing holds at this length, and its neighbours
        top = 2 ** (63 - bits) - 1
        key = rng.choice(np.array([0, 1, 7, top - 1, top]), n)
        got = mcsim._key_order(key.copy())
        assert np.array_equal(got, np.argsort(key, kind="stable")), n


def join_cells_per_trial(params, window):
    """Upper bound on a trial's join keys: the sensor window in cells of the
    join's side, plus the 2 * split + 2 margin cells each way."""
    split, min_cell = mcsim._join_grid(params)
    cell = max(params.charging_radius * (1.0 + 2.0**-20) / split, min_cell)
    side = 2.0 * (window + params.charging_radius) / cell + 2 * split + 3
    return side * side


def test_pair_join_keys_fit_the_packed_sort_at_the_sizing_extremes():
    # the packed sort needs n_keys < 2**(63 - bits(n_sensors)); scan the
    # sizing rule over radii 1e-3 to 150 m and sensor densities over six
    # decades, each with the sensors a trial holds at 8 sigma
    most_keys = 0
    for rho in (1e-3, 0.02, 0.5, 2.0, 10.0, 150.0):
        for sn in (1e-3, 0.2, 1.6, 50.0, 1e3):
            for pb in (0.01, 0.1, 10.0):
                pr = params_for(charging_radius=rho, sn_density=sn, pb_density=pb)
                window = mcsim._exact_zone_radius(pr)
                trials = mcsim._batch_size(pr, window)
                expect_sn = sn * math.pi * (window + rho) ** 2
                n_sn = trials * math.ceil(expect_sn + 8.0 * math.sqrt(expect_sn) + 9.0)
                n_keys = trials * math.ceil(join_cells_per_trial(pr, window))
                assert n_keys.bit_length() + n_sn.bit_length() <= 63, (rho, sn, pb)
                # the cell floor: a trial's cells stay within a small
                # multiple of its expected sensors
                cells = join_cells_per_trial(pr, window)
                assert cells <= 48.0 * expect_sn + 4096.0, (rho, sn, pb)
                if trials > 1:
                    most_keys = max(most_keys, n_keys)
    # batches of two or more trials hold at most about 4e5 cells between them
    assert 2**18 < most_keys < 2**20


# --- the cull: sensors no beacon can reach skip the float64 geometry ---


def uniforms_toward(points, radius):
    """(u0, u1) rows whose disk point over radius lies nearest each (x, y)."""
    x, y = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
    u0 = np.minimum((np.hypot(x, y) / radius) ** 2, 1.0 - 2.0**-53)
    u1 = np.mod(np.arctan2(y, x), 2.0 * math.pi) / (2.0 * math.pi)
    return np.column_stack((u0, np.where(u1 < 1.0, u1, 0.0)))


def cull_and_positions(params, window, pb, t_pb, u_sn, t_sn, n_trials):
    """Float64 positions, as (2, n), of every sensor drawn as u_sn over
    window + rho, and the indices of the sensors the cull keeps."""
    cull = mcsim._cull_grid(params, window)
    assert cull is not None
    cell, side = cull
    radius = window + params.charging_radius
    kept = mcsim._cull(u_sn, t_sn, pb, t_pb, n_trials, cell, side, radius, mcsim._Workspace())
    sn = mcsim._disk_points(u_sn, radius, np.empty((2, len(u_sn))), np.empty(len(u_sn)))
    return sn, kept


def assert_cull_keeps_counts(params, pb, t_pb, orientations, sn, t_sn, kept, trials=0):
    """The sector counts over the kept sensors, and each beacon's origin
    sector, equal those over all of them, so every scheme's gains do too.
    Given trials, one origin sensor per trial joins both sides uncut;
    without, any origin rows are among the sensors the cull saw."""
    origins, labels = np.zeros((2, trials)), np.arange(trials)
    uncut, culled = (
        mcsim._sector_counts(
            pb, t_pb, orientations, np.hstack((sensors, origins)),
            np.concatenate((trial, labels)), params, mcsim._Workspace(),
        )
        for sensors, trial in ((sn, t_sn), (sn[:, kept], t_sn[kept]))
    )
    for got, want in zip(culled, uncut, strict=True):
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    trials=st.integers(1, 3),
    rho=st.sampled_from([0.5, 1.0, 2.0]),
    sn_density=st.sampled_from([0.8, 1.6]),
)
def test_pair_join_through_the_cull_matches_brute_force(data, trials, rho, sn_density):
    # beacons anywhere in a 6 m window; sensors anywhere, and at 0.5 to 1.5
    # radii from a beacon of their trial, the boundary included. The join
    # over the sensors the cull keeps must find every pair brute force finds
    # over all of them; at rho 2 the marked share (92%) switches the cull
    # off, so the switch is lifted for every radius
    params = params_for(sn_density=sn_density, charging_radius=rho)
    window = 6.0
    unit = st.floats(0.0, 1.0, exclude_max=True)
    beacons = [data.draw(st.lists(st.tuples(unit, unit), max_size=5)) for _ in range(trials)]
    t_pb = np.repeat(np.arange(trials), [len(b) for b in beacons])
    u_pb = np.array(sum(beacons, [])).reshape(-1, 2)
    pb = mcsim._disk_points(u_pb, window, np.empty((2, len(t_pb))), u_pb[:, 0])
    # each trial's sensors: uniforms, then points placed from its beacons
    u_sn, t_sn = [np.empty((0, 2))], []
    for t in range(trials):
        loose = data.draw(st.lists(st.tuples(unit, unit), max_size=8))
        first = int(np.searchsorted(t_pb, t))
        near = [] if not beacons[t] else data.draw(st.lists(st.tuples(
            st.integers(first, first + len(beacons[t]) - 1),
            st.sampled_from([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12]) | st.floats(0.5, 1.5),
            st.floats(0.0, 2.0 * math.pi),
        ), max_size=8))
        targets = [(pb[0, k] + f * rho * math.cos(a), pb[1, k] + f * rho * math.sin(a)) for k, f, a in near]
        u_sn += [np.array(loose).reshape(-1, 2), uniforms_toward(targets, window + rho)]
        t_sn += [t] * (len(loose) + len(near))
    u_sn = np.vstack(u_sn)
    t_sn = np.array(t_sn, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcsim, "_CULL_SHARE_MAX", 1.0)
        sn, kept = cull_and_positions(params, window, pb, t_pb, u_sn, t_sn, trials)
    # each trial's origin sensor joins both sides uncut; the engine culls
    # origins too, which check_cull_matches_uncut_gains covers
    origins, labels = np.zeros((trials, 2)), np.arange(trials)
    batch = (pb.T, t_pb, np.vstack((sn.T, origins)), np.concatenate((t_sn, labels)))
    want = pair_offsets(batch, brute_force_pairs(*batch, rho))
    split, min_cell = mcsim._join_grid(params)
    culled = (np.vstack((sn.T[kept], origins)), np.concatenate((t_sn[kept], labels)))
    assert joined_pairs(pb.T, t_pb, *culled, rho, split, min_cell) == want


#: Directions from beacon to sensor in edge_network: the axes, where a
#: pair at distance rho spans two cull cells less the margin, and two
#: diagonals.
EDGE_DIRECTIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.6, 0.8), (0.8, -0.6))


def edge_network(params, window):
    """Sensors on cull-cell edges and up to four float32 ulps of the
    sensor window either side, repeated in one trial per EDGE_DIRECTIONS entry and
    in a last trial with no beacon. In trial k each sensor's only beacons
    lie at distance rho along direction k: along an axis, three beacons
    one float64 step apart, which the engine's d2 <= rho^2 test reads as
    just inside, at and just outside rho. Returns pb, t_pb, u_sn, t_sn."""
    rho = params.charging_radius
    cell, _ = mcsim._cull_grid(params, window)
    radius = window + rho
    shift = radius / cell + 1.0
    # from float64 steps to float32 ones: a float64 point just below an
    # edge may round onto it in float32
    ulps = 4.0 * 2.0**-24 * radius
    offsets = (-ulps, -ulps / 64.0, -(2.0**-40) * radius, 2.0**-40 * radius, ulps / 64.0, ulps)
    moves = [(0.0, 0.0)] + [(d, 0.0) for d in offsets] + [(0.0, d) for d in offsets]
    # edge crossings 8 cells apart, so no sensor reaches another's beacons
    edges = [(round(8 * i + shift) - shift) * cell for i in range(-2, 3)]
    targets = [
        (x + mx, y + my)
        for (x, y), (mx, my) in zip(itertools.product(edges, edges), itertools.cycle(moves))
    ]
    u_sn = uniforms_toward(targets, radius)
    sn = mcsim._disk_points(u_sn, radius, np.empty((2, len(u_sn))), np.empty(len(u_sn)))
    pb, t_pb = [], []
    for k, (ux, uy) in enumerate(EDGE_DIRECTIONS):
        for x, y in sn.T:
            bx, by = x - rho * ux, y - rho * uy
            # along an axis, also nudged one step toward and away from the sensor
            steps = (-1.0, 0.0, 1.0) if 0.0 in (ux, uy) else (0.0,)
            for step in steps:
                pb.append((
                    np.nextafter(bx, bx + step * ux) if step and ux else bx,
                    np.nextafter(by, by + step * uy) if step and uy else by,
                ))
                t_pb.append(k)
    trials = len(EDGE_DIRECTIONS) + 1
    return (
        np.array(pb).T, np.array(t_pb, dtype=np.int64),
        np.tile(u_sn, (trials, 1)), np.repeat(np.arange(trials), len(u_sn)),
    )


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_cull_keeps_sensors_on_the_charging_boundary(monkeypatch, rho):
    # every pair the uncut join finds survives the cull, and the sector
    # counts are those of the uncut sensors; the pairs include distances
    # just inside, at and (missed) just outside rho as the engine's test
    # reads them. At rho 2 the share switch is lifted
    monkeypatch.setattr(mcsim, "_CULL_SHARE_MAX", 1.0)
    params = params_for(sn_density=1.6, charging_radius=rho)
    window = mcsim._exact_zone_radius(params)
    pb, t_pb, u_sn, t_sn = edge_network(params, window)
    trials = len(EDGE_DIRECTIONS) + 1
    sn, kept = cull_and_positions(params, window, pb, t_pb, u_sn, t_sn, trials)
    batch = (pb.T, t_pb, sn.T, t_sn)
    pairs = brute_force_pairs(*batch, rho)
    dx = sn[0, np.newaxis, :] - pb[0, :, np.newaxis]
    dy = sn[1, np.newaxis, :] - pb[1, :, np.newaxis]
    d2 = dx * dx + dy * dy
    edge = (t_pb[:, np.newaxis] == t_sn) & (np.abs(d2 - rho * rho) < 1e-9)
    assert set(np.sign(d2[edge] - rho * rho).tolist()) == {-1.0, 0.0, 1.0}
    assert set(kept.tolist()) >= {j for _, j in pairs}
    assert trials - 1 not in set(t_sn[kept].tolist())
    split, min_cell = mcsim._join_grid(params)
    assert joined_pairs(pb.T, t_pb, sn.T[kept], t_sn[kept], rho, split, min_cell) == pair_offsets(batch, pairs)
    rng = np.random.default_rng(3)
    orientations = rng.random(pb.shape[1]) * (2.0 * math.pi / params.sectors)
    assert_cull_keeps_counts(params, pb, t_pb, orientations, sn, t_sn, kept, trials)


#: Fig. 3 deployments at which the cull runs, and the rho 2 one with the
#: share switch lifted.
CULL_POINTS = ((0.8, 0.5), (0.8, 1.0), (1.6, 0.5), (1.6, 1.0), (1.6, 2.0))


def check_cull_matches_uncut_gains():
    """At each CULL_POINTS deployment (10 W, AUTO window), 6 trials of the
    engine's draws, each trial's origin row followed by its sensors as in
    the engine, give the same sector counts with the cull as over every
    sensor. Across the points the cull keeps some origin rows and drops
    others."""
    origins_kept = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcsim, "_CULL_SHARE_MAX", 1.0)
        for sn_density, rho in CULL_POINTS:
            params = params_for(sn_density=sn_density, charging_radius=rho)
            window = mcsim._exact_zone_radius(params)
            u_pb, t_pb, orient, u_sn, t_sn, _ = mcsim._batch_draws(
                params, Allocation.UNIFORM, 8, 0, 6, window, mcsim._Workspace()
            )
            pb = mcsim._disk_points(u_pb, window, np.empty((2, len(u_pb))), u_pb[:, 0])
            sn, kept = cull_and_positions(params, window, pb, t_pb, u_sn, t_sn, 6)
            assert 0 < len(kept) < len(u_sn)
            # a trial's origin row is its first
            origins_kept |= set(np.isin(t_sn.searchsorted(np.arange(6)), kept).tolist())
            orientations = orient * (2.0 * math.pi / params.sectors)
            assert_cull_keeps_counts(params, pb, t_pb, orientations, sn, t_sn, kept)
    assert origins_kept == {False, True}


def test_cull_matches_uncut_gains_at_fig3_points():
    check_cull_matches_uncut_gains()


def host_dispatch_targets():
    """The SIMD targets NumPy dispatches to on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


@pytest.mark.parametrize("level", ["avx512_off", "baseline_only"])
def test_cull_holds_across_simd_dispatch(level):
    # float32 cos and sin run different loops by dispatch level (their worst
    # error measured 1.205 ulp with AVX2 or AVX-512, 0.547 at the X86_V2
    # baseline); with the host's AVX-512 targets off, and with every
    # dispatched target off, the cull must still keep every sensor that
    # pairs. Gains are compared, not sample digests: np.power's bits depend
    # on dispatch
    targets = host_dispatch_targets()
    off = [t for t in targets if t == "X86_V4" or t.startswith("AVX512")]
    if not off:
        pytest.skip("the host dispatches no AVX-512 target")
    if level == "baseline_only":
        off = targets
    src = Path(mcsim.__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off), PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import test_mcsim\n"
        f"assert not set(test_mcsim.host_dispatch_targets()) & {set(off)!r}\n"
        "test_mcsim.check_cull_matches_uncut_gains()\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr


@needs_fork
@pytest.mark.parametrize("scheme", list(Allocation), ids=lambda s: s.value)
def test_cull_run_trials_match_uncut_for_any_lanes(monkeypatch, tmp_path, exact_zone, scheme):
    # lambda_s 1.6, rho 0.5: the cull runs, in the caller on one lane and in
    # two pool processes on two, and samples equal those of runs with it
    # switched off on one lane and on two, where no lane culls
    pr = params_for(sn_density=1.6, charging_radius=0.5)
    window = 6.0
    exact_zone(window)
    assert mcsim._cull_grid(pr, window) is not None
    config = SimConfig(trials=90, master_seed=17, allocation=scheme)
    culled = run_trials(pr, config).samples
    monkeypatch.setattr(mcsim, "_SPLIT_POINTS_MIN", 0)
    log = tmp_path / "cull.log"
    logged(monkeypatch, log, "_cull", lambda *args: 0)
    for cull in (True, False):
        for lanes in (1, 2):
            log.unlink(missing_ok=True)
            monkeypatch.setattr(mcsim, "_lanes", lambda workers: lanes)
            assert np.array_equal(run_trials(pr, config).samples, culled), (cull, lanes)
            pids = {pid for pid, _ in log_rows(log)}
            if not cull or scheme is Allocation.FORCED_OMNI:
                assert not pids
            else:
                assert pids == {os.getpid()} if lanes == 1 else pids and os.getpid() not in pids
        monkeypatch.setattr(mcsim, "_CULL_SHARE_MAX", 0.0)
        mcsim._stop_pool()
    assert mcsim._cull_grid(pr, window) is None


def test_cull_that_keeps_no_sensor_of_a_batch_joins_no_pairs(monkeypatch):
    # lambda_p 1e-5, lambda_s 0.5, rho 0.5, AUTO window: about one beacon in
    # 80 trials, so some batches hold beacons whose disks hold no sensor and
    # the cull keeps none of their sensors; such a batch joins to no pairs,
    # and the samples equal those of a run with the cull off
    empty = np.empty((2, 0))
    chunks = mcsim._pairs_bucketed(
        np.ones((2, 3)), np.zeros(3, np.int64), empty, np.zeros(0, np.int64),
        0.5, 1, 0.1, mcsim._Workspace(),
    )
    assert list(chunks) == []
    pr = params_for(pb_density=1e-5, sn_density=0.5, charging_radius=0.5)
    assert mcsim._cull_grid(pr, mcsim._exact_zone_radius(pr)) is not None
    config = SimConfig(trials=4000, master_seed=1)
    culled = run_trials(pr, config).samples
    monkeypatch.setattr(mcsim, "_CULL_SHARE_MAX", 0.0)
    assert np.array_equal(run_trials(pr, config).samples, culled)


def test_tiny_charging_radius_runs_in_bounded_memory(exact_zone):
    # rho = 1e-3 m, where radopt's scan starts: rho-wide cells would index
    # 1.6e9 cells a trial (12 GiB of counts); the cell floor keeps the grid
    # near 32 cells per expected sensor. Checked before running, so a lost
    # floor fails here rather than in the allocator
    pr = params_for(charging_radius=1e-3)
    window = 20.0
    expect_sn = pr.sn_density * math.pi * (window + 1e-3) ** 2
    assert join_cells_per_trial(pr, window) <= 48.0 * expect_sn
    exact_zone(window)
    config = SimConfig(trials=4, master_seed=13)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = run_trials(pr, config).samples
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0
    assert peak <= 4 * 2**20
    for i in range(4):
        sample = draw_network(pr, window, trial_stream(13, i))
        gains = scalar_origin_gains(sample, pr, Allocation.UNIFORM, np.zeros(len(sample.pb_points)))
        dist = np.hypot(sample.pb_points[:, 0], sample.pb_points[:, 1])
        total = 0.0
        for g, a in zip(gains, np.maximum(dist, 1.0) ** -pr.path_loss_exp):
            total += g * a
        assert got[i] == pr.pb_power * pr.attenuation * total + mcsim._tail_mean(pr, window)


def test_batch_grouping_does_not_change_results():
    pr = params_for()
    whole = mcsim._batch_powers(pr, Allocation.UNIFORM, 4, 0, 9, 10.0, mcsim._Workspace())
    pieces = np.concatenate(
        [mcsim._batch_powers(pr, Allocation.UNIFORM, 4, a, b, 10.0, mcsim._Workspace())
         for a, b in ((0, 2), (2, 3), (3, 9))]
    )
    assert np.array_equal(whole, pieces)


def test_batch_memory_peak():
    # Fig. 3 deployment at lambda_s 1.6, rho 1: of the sweep's twelve points,
    # the batch with the largest traced peak under the sizing rule (a
    # quarter step of 44 trials, ~100k sensors). With NumPy 2.4.6, built in
    # a fresh workspace, whose roles share buffers, it peaks at 8.1 MiB; the
    # bound is that peak plus 10%
    pr = params_for(pb_power=10.0, sn_density=1.6, charging_radius=1.0)
    window = mcsim._exact_zone_radius(pr)
    stop = mcsim._batch_size(pr, window)
    tracemalloc.start()
    try:
        mcsim._batch_powers(pr, Allocation.UNIFORM, 1, 0, stop, window, mcsim._Workspace())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.0 * 2**20


def test_batch_memory_peak_through_the_cull():
    # the same check at the Fig. 3 point where the cull discards the most
    # (lambda_s 1.6, rho 0.5: 85% of the sensors), whose batch also holds
    # the cull grid and its widened copy over all its trials, and counts a
    # join cell as half a row; with NumPy 2.4.6 its 26 trials (~56k
    # sensors) peak at 5.7 MiB, and the bound is that peak plus 10%
    pr = params_for(pb_power=10.0, sn_density=1.6, charging_radius=0.5)
    window = mcsim._exact_zone_radius(pr)
    assert mcsim._cull_grid(pr, window) is not None
    stop = mcsim._batch_size(pr, window)
    tracemalloc.start()
    try:
        mcsim._batch_powers(pr, Allocation.UNIFORM, 1, 0, stop, window, mcsim._Workspace())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.3 * 2**20


# large, small, large, then short: a reused buffer holds more than the
# next batch asks for, then has to grow again
WORKSPACE_PLAN = ((0, 40), (40, 43), (43, 90), (90, 92))


def fresh_batches(pr, scheme, window, plan):
    return [mcsim._batch_powers(pr, scheme, 7, lo, hi, window, mcsim._Workspace()) for lo, hi in plan]


@pytest.mark.parametrize("chunk", [None, 4], ids=["chunks", "lone_strips"])
@pytest.mark.parametrize("scheme", list(Allocation), ids=lambda s: s.value)
def test_reused_workspace_matches_fresh_batches(monkeypatch, exact_zone, scheme, chunk):
    # batches through one workspace, and 93 trials in batches of 7 on one
    # lane and on two, bit for bit as fresh single-batch passes over the
    # same trials: data a buffer kept from an earlier batch, such as its
    # sensors where this batch's origin sensors go, would show. With chunks
    # of at most 4 candidates a beacon whose strip holds more gets a chunk
    # of its own, so the chunk buffers grow mid-batch; the chunk size does
    # not change a sample, so the fresh passes keep the default one
    pr = params_for(charging_radius=2.0, sn_density=0.8)
    window = 8.0
    want = fresh_batches(pr, scheme, window, WORKSPACE_PLAN)
    steps = [(lo, min(lo + 7, 93)) for lo in range(0, 93, 7)]
    want_steps = np.concatenate(fresh_batches(pr, scheme, window, steps))
    if chunk is not None:
        monkeypatch.setattr(mcsim, "_CHUNK_CANDIDATES", chunk)
    work = mcsim._Workspace()
    for (lo, hi), powers in zip(WORKSPACE_PLAN, want):
        got = mcsim._batch_powers(pr, scheme, 7, lo, hi, window, work)
        assert np.array_equal(got, powers), (lo, hi)
    if chunk is not None and scheme is not Allocation.FORCED_OMNI:
        assert len(work._buffers["dx"]) > chunk
    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 7)
    exact_zone(window)
    config = SimConfig(trials=93, master_seed=7, allocation=scheme)
    want_steps += mcsim._tail_mean(pr, window)
    for lanes in (1, 2):
        assert np.array_equal(mcsim._run_batches(pr, config, lanes), want_steps), lanes


def test_no_workspace_outlives_its_call(exact_zone):
    # a run's workspaces die with it, and so does the fresh one handed to a
    # direct batch call: traced memory comes back to within 64 KiB, the
    # returned powers included (a 256-trial batch's workspace holds some
    # 0.8 MiB here)
    pr = params_for()
    exact_zone(8.0)
    config = SimConfig(trials=300, master_seed=2)
    run_trials(pr, config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_trials(pr, config)
        after_run = tracemalloc.get_traced_memory()[0]
        powers = mcsim._batch_powers(pr, Allocation.UNIFORM, 2, 0, 256, 8.0, mcsim._Workspace())
        after_batch = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(summary.samples) == 300 and len(powers) == 256
    assert after_run - before <= 64 * 2**10
    assert after_batch - after_run <= 64 * 2**10


def test_run_trials_deterministic_and_worker_invariant(exact_zone):
    pr = params_for()
    exact_zone(8.0)
    config = SimConfig(trials=60, master_seed=12)
    first = run_trials(pr, config)
    again = run_trials(pr, config)
    assert np.array_equal(first.samples, again.samples)
    spread = run_trials(pr, config, workers=3)
    assert np.array_equal(first.samples, spread.samples)
    # an uneven split (7 trials on 3 workers: 2/2/3) and an oversubscribed
    # one (2 trials on 4 workers run on 2) merge in trial order too
    for trials, workers in ((7, 3), (2, 4)):
        part = SimConfig(trials=trials, master_seed=12)
        got = run_trials(pr, part, workers=workers).samples
        assert np.array_equal(got, first.samples[:trials]), (trials, workers)
    assert first.mean == pytest.approx(np.mean(first.samples), rel=1e-15)
    assert first.variance == pytest.approx(
        np.var(first.samples, ddof=1), rel=1e-12
    )
    assert first.mean_ci95 == pytest.approx(
        1.96 * math.sqrt(first.variance / 60.0), rel=1e-12
    )


@pytest.mark.parametrize("scheme", list(Allocation), ids=lambda s: s.value)
def test_run_trials_lane_invariant(monkeypatch, exact_zone, scheme):
    # lanes: one in this process, and two and three pool processes. 300
    # trials of 256-trial batches, and of 64-trial ones once the points
    # floor is lifted, leave a short last batch either way; the unpatched
    # run takes the host's own lane rule
    pr = params_for()
    window = 8.0
    assert mcsim._batch_size(pr, window) == 256
    exact_zone(window)
    config = SimConfig(trials=300, master_seed=21, allocation=scheme)
    host = run_trials(pr, config).samples
    for floor in (mcsim._SPLIT_POINTS_MIN, 0):
        monkeypatch.setattr(mcsim, "_SPLIT_POINTS_MIN", floor)
        for lanes in (1, 2, 3):
            monkeypatch.setattr(mcsim, "_lanes", lambda workers: lanes)
            got = run_trials(pr, config).samples
            assert np.array_equal(got, host), (floor, lanes)


def test_more_lanes_than_cores_under_fast_switching(monkeypatch, exact_zone):
    # four pool processes on 32-trial batches, the caller's threads (the
    # pool's manager and queue feeder among them) switching every
    # microsecond: a batch written outside its own slice, or results merged
    # out of trial order, would show
    pr = params_for()
    exact_zone(4.0)
    config = SimConfig(trials=300, master_seed=9, allocation=Allocation.GREEDY)
    want = mcsim._run_batches(pr, config, 1)
    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = mcsim._run_batches(pr, config, 4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


#: The default deployment, and a sparse one whose trials often draw no
#: beacon or no field sensor (0.5 and 0.8 expected).
DRAW_POINTS = ((params_for(charging_radius=2.0), 8.0), (params_for(pb_density=0.01, sn_density=0.01), 4.0))


def assert_batch_draws_are_each_trials(pr, scheme, seed, window, trials, work):
    """The batch's draws in work are, trial by trial, those of the stream
    layout's allocating calls on each trial's own fresh streams: a Poisson
    count, random((n, 2)), random(n), a Poisson count, random((m, 2)), and
    greedy's random(n) on substream 2. So is the one-trial _trial_draws
    that draw_network calls. Returns the trial sizes in beacons and in
    sensors, the origin row included (None without sensors)."""
    mean_pb, mean_sn = mcsim._field_means(pr, window)
    if scheme is Allocation.FORCED_OMNI:
        mean_sn = None
    parts = [[] for _ in range(4)]
    for i in range(trials):
        g = trial_stream(seed, i)
        u_pb = g.random((int(g.poisson(mean_pb)), 2))
        want = [u_pb, None, None]
        if mean_sn is not None:
            want[1] = g.random(len(u_pb))
            want[2] = np.vstack((mcsim._ORIGIN, g.random((int(g.poisson(mean_sn)), 2))))
        one = mcsim._trial_draws(trial_stream(seed, i), mean_pb, mean_sn)
        for got, w in zip(one, want):
            assert got is None if w is None else np.array_equal(got, w.ravel())
        want.append(trial_stream(seed, i, 2).random(len(u_pb)))
        for part, w in zip(parts, want):
            part.append(w)
    n_pb = [len(u) for u in parts[0]]
    n_sn = None if mean_sn is None else [len(u) for u in parts[2]]
    labels = np.arange(trials)
    want = [np.concatenate(parts[0]), np.repeat(labels, n_pb)]
    want += [None] * 4 if mean_sn is None else [
        np.concatenate(parts[1]), np.concatenate(parts[2]), np.repeat(labels, n_sn),
        np.concatenate(parts[3]) if scheme is Allocation.GREEDY else None,
    ]
    got = mcsim._batch_draws(pr, scheme, seed, 0, trials, window, work)
    for g, w in zip(got, want, strict=True):
        assert g is None if w is None else np.array_equal(g, w)
    return n_pb, n_sn


@pytest.mark.parametrize("scheme", list(Allocation), ids=lambda s: s.value)
def test_batch_draws_hold_each_trials_own(scheme):
    # the batch joins each trial's own draws, in trial order, once per
    # role; the sparse deployment's trials include ones with no beacon and
    # ones with only the origin sensor. A workspace that an earlier, larger
    # batch filled holds the same draws and the same samples as a fresh one
    seed, trials = 5, 40
    sparse = False
    for pr, window in DRAW_POINTS:
        want = mcsim._batch_powers(pr, scheme, seed, 0, trials, window, mcsim._Workspace())
        n_pb, n_sn = assert_batch_draws_are_each_trials(pr, scheme, seed, window, trials, mcsim._Workspace())
        sparse |= 0 in n_pb and (n_sn is None or 1 in n_sn)
        used = mcsim._Workspace()
        mcsim._batch_powers(pr, scheme, seed + 1, 0, 2 * trials, window, used)
        assert_batch_draws_are_each_trials(pr, scheme, seed, window, trials, used)
        assert np.array_equal(mcsim._batch_powers(pr, scheme, seed, 0, trials, window, used), want)
    assert sparse


@needs_fork
def test_draw_sections_never_overlap(monkeypatch, tmp_path, exact_zone):
    # three pool processes on 32-trial greedy batches: a process runs one
    # batch at a time on its one workspace, so no two of its batches
    # overlap, from the first draw to the last stage, and none runs in the
    # caller
    pr = params_for()
    exact_zone(4.0)
    config = SimConfig(trials=300, master_seed=9, allocation=Allocation.GREEDY)
    want = mcsim._run_batches(pr, config, 1)
    log = tmp_path / "batches.log"
    real = mcsim._batch_powers

    def timed(*args):
        begin = time.monotonic_ns()
        out = real(*args)
        with open(log, "a") as spans:
            spans.write(f"{os.getpid()} {begin} {time.monotonic_ns()}\n")
        return out

    monkeypatch.setattr(mcsim, "_batch_powers", timed)
    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 32)
    assert np.array_equal(mcsim._run_batches(pr, config, 3), want)
    rows = log_rows(log)
    assert len(rows) == 10 and os.getpid() not in {pid for pid, _, _ in rows}
    for (pid, _, end), (after, begin, _) in zip(rows, rows[1:]):
        assert pid != after or end <= begin


@needs_fork
def test_draw_error_raises_in_trial_order_on_every_lane(monkeypatch, exact_zone):
    # one lane and two: of four 32-trial batches, the draws of batch 0 and
    # batch 2 raise mid-loop; each call raises batch 0's error, every time,
    # and once the draws are mended, calls on a fresh pool run
    pr = params_for()
    exact_zone(8.0)
    config = SimConfig(trials=128, master_seed=3)
    want = mcsim._run_batches(pr, config, 1)
    reset = mcsim._TrialStreams.at

    def at(self, trial_index, substream=0):
        if trial_index in (20, 70):
            raise RuntimeError(f"draw {trial_index} failed")
        return reset(self, trial_index, substream)

    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 32)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcsim._TrialStreams, "at", at)
        for lanes in (1, 2):
            for _ in range(3):
                with pytest.raises(RuntimeError, match="^draw 20 failed$"):
                    mcsim._run_batches(pr, config, lanes)
    mcsim._stop_pool()
    for lanes in (1, 2):
        assert np.array_equal(mcsim._run_batches(pr, config, lanes), want), lanes


def recorded_batches(monkeypatch, log, on_call=None):
    """Patch the batch kernel with one that returns zeros and appends each
    call's "pid seed start stop" to the file log (read with log_rows),
    before it runs on_call(seed, start) in the process that runs it."""

    def record(params, scheme, seed, start, stop, window, work):
        if on_call is not None:
            on_call(seed, start)
        return np.zeros(stop - start)

    def line(params, scheme, seed, start, stop, window, work):
        return f"{seed} {start} {stop}"

    logged(monkeypatch, log, "_batch_powers", line, record)


@needs_fork
def test_batches_run_in_the_lanes_a_call_names(monkeypatch, tmp_path, exact_zone):
    # one lane, or a single batch, runs in the caller; two and three lanes
    # run every batch in pool processes, never the caller, and calls on as
    # many lanes reuse the pool
    log = tmp_path / "batches.log"
    recorded_batches(monkeypatch, log, lambda seed, start: time.sleep(0.05))
    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 5)
    exact_zone(8.0)
    caller = os.getpid()

    def pids(trials, lanes):
        log.unlink(missing_ok=True)
        monkeypatch.setattr(mcsim, "_lanes", lambda workers: lanes)
        run_trials(params_for(), SimConfig(trials=trials, master_seed=1))
        rows = log_rows(log)
        assert sorted((start, stop) for _, _, start, stop in rows) == [
            (lo, min(lo + 5, trials)) for lo in range(0, trials, 5)
        ]
        return {pid for pid, *_ in rows}

    assert pids(58, 1) == {caller}
    assert pids(4, 2) == {caller}
    for lanes in (2, 3):
        first = pids(58, lanes)
        pool = mcsim._pool
        assert caller not in first and len(first) == lanes, lanes
        assert pids(60, lanes) <= first and mcsim._pool is pool, lanes


@needs_fork
def test_run_trials_lane_error_cancels_queued_batches(monkeypatch, tmp_path, exact_zone):
    # 64 batches on two pool processes; the second raises while the others
    # take 20 ms: the call raises its error, fewer than 16 batches of it
    # start, and the same pool runs every batch of the next call
    def fail_second(seed, start):
        if seed == 3 and start == 32:
            raise RuntimeError("batch failed")
        time.sleep(0.02)

    monkeypatch.setattr(mcsim, "_lanes", lambda workers: 2)
    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 32)
    exact_zone(8.0)
    log = tmp_path / "batches.log"
    recorded_batches(monkeypatch, log, fail_second)
    with pytest.raises(RuntimeError, match="^batch failed$"):
        run_trials(params_for(), SimConfig(trials=32 * 64, master_seed=3))
    pool = mcsim._pool
    run_trials(params_for(), SimConfig(trials=32 * 64, master_seed=4))
    rows = log_rows(log)
    assert mcsim._pool is pool
    assert len([row for row in rows if row[1] == 3]) < 16
    assert sorted(start for _, seed, start, _ in rows if seed == 4) == list(range(0, 32 * 64, 32))


@needs_fork
def test_run_trials_raises_the_first_failed_batch_in_trial_order(monkeypatch, tmp_path, exact_zone):
    # batch 1 fails at once and batch 0 only later, with another error:
    # the call raises batch 0's every time, not the one that failed first,
    # on one lane (where batch 0 runs first) and on two pool processes
    # (where batch 0 waits until batch 1 has failed)
    failed = tmp_path / "failed"
    caller = os.getpid()

    def fail(params, scheme, seed, start, stop, window, work):
        if start > 0:
            failed.touch()
            raise RuntimeError(f"batch at {start} failed")
        deadline = time.monotonic() + 10
        while os.getpid() != caller and not failed.exists():
            assert time.monotonic() < deadline
            time.sleep(0.005)
        time.sleep(0.05)
        raise ValueError("batch 0 failed")

    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 32)
    monkeypatch.setattr(mcsim, "_batch_powers", fail)
    exact_zone(8.0)
    config = SimConfig(trials=4 * 32, master_seed=3)
    for lanes in (1, 2):
        monkeypatch.setattr(mcsim, "_lanes", lambda workers: lanes)
        for _ in range(3):
            failed.unlink(missing_ok=True)
            with pytest.raises(ValueError, match="^batch 0 failed$"):
                run_trials(params_for(), config)
            assert failed.exists() == (lanes == 2), lanes


@needs_fork
def test_batch_split_keeps_a_points_floor(monkeypatch, tmp_path):
    # a trial with some 2,400 beacons and sensors runs quarter steps, but a
    # trial with some 400, whose quarter step would hold fewer than
    # _SPLIT_POINTS_MIN, runs whole ones; run_trials runs the same batches
    # on one lane and on two, which set only how many run at once
    log = tmp_path / "batches.log"
    recorded_batches(monkeypatch, log)
    for pr, split in ((params_for(sn_density=1.6), 4), (params_for(charging_radius=0.25), 1)):
        window = mcsim._exact_zone_radius(pr)
        batch = mcsim._batch_size(pr, window)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_SPLIT_POINTS_MIN", 1e12)  # every batch a whole step
            assert batch == mcsim._batch_size(pr, window) // split, pr
        runs = []
        for lanes in (1, 2):
            monkeypatch.setattr(mcsim, "_lanes", lambda workers: lanes)
            log.unlink(missing_ok=True)
            run_trials(pr, SimConfig(trials=3 * split * batch, master_seed=1))
            runs.append([stop - start for *_, start, stop in log_rows(log)])
        assert runs == [[batch] * (3 * split)] * 2, pr


@needs_fork
@pytest.mark.parametrize("scheme", list(Allocation), ids=lambda s: s.value)
def test_batch_size_by_scheme(monkeypatch, tmp_path, scheme):
    # default deployment (5 W, rho 2 m, AUTO window): forced omni draws no
    # sensors, so only its ~128 beacons a trial count toward the row budget
    # and the points floor, and run_trials runs those batches on one lane
    # and on two
    pr = params_for(pb_power=5.0, charging_radius=2.0)
    window = mcsim._exact_zone_radius(pr)
    omni = scheme is Allocation.FORCED_OMNI
    size = mcsim._batch_size(pr, window, not omni)
    assert size == (256 if omni else 75)
    log = tmp_path / "batches.log"
    recorded_batches(monkeypatch, log)
    for lanes in (1, 2):
        monkeypatch.setattr(mcsim, "_lanes", lambda workers: lanes)
        log.unlink(missing_ok=True)
        run_trials(pr, SimConfig(trials=3 * size, master_seed=1, allocation=scheme))
        assert [stop - start for *_, start, stop in log_rows(log)] == [size] * 3, lanes
    # the lane-invariance test's window: 300 trials end in a short batch
    # of 256-trial batches, and of 64-trial ones once the floor is lifted
    assert mcsim._batch_size(params_for(), 8.0, not omni) == 256


def test_lanes_rule(monkeypatch):
    monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
    assert mcsim._lanes(1) == 2
    assert mcsim._lanes(2) == 2
    assert mcsim._lanes(10**6) == 2
    monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 1)
    assert mcsim._lanes(1) == 1
    assert mcsim._lanes(3) == 1
    monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 16)
    assert mcsim._lanes(1) == 2
    assert mcsim._lanes(4) == 8
    assert mcsim._lanes(16) == 16
    assert mcsim._lanes(10**6) == 16


def test_huge_worker_count_asks_for_no_more_lanes_than_cpus(monkeypatch, exact_zone):
    # a million workers on two usable CPUs ask the pool for two processes;
    # the pool is replaced by a recorder that raises, so none is started
    asked = []

    def pool_map(lanes, batch, starts):
        asked.append(lanes)
        raise RuntimeError("no pool in this test")

    monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mcsim, "_pool_map", pool_map)
    exact_zone(8.0)
    config = SimConfig(trials=10**6, master_seed=1)
    with pytest.raises(RuntimeError, match="^no pool in this test$"):
        run_trials(params_for(), config, workers=10**6)
    assert asked == [2]


def test_pool_serves_concurrent_callers(monkeypatch, exact_zone):
    # four caller threads on two lanes start one pool between them, and
    # each gets its own samples
    made = []
    make = concurrent.futures.ProcessPoolExecutor

    def counted(*args, **kwargs):
        made.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    monkeypatch.setattr(mcsim, "_lanes", lambda workers: 2)
    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 32)
    pr = params_for()
    exact_zone(8.0)
    configs = [SimConfig(trials=300, master_seed=seed) for seed in range(4)]
    want = [mcsim._run_batches(pr, config, 1) for config in configs]
    got = [None] * len(configs)

    def call(i):
        got[i] = run_trials(pr, configs[i]).samples

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(configs))]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=120)
        assert not caller.is_alive()
    assert len(made) == 1
    for i, samples in enumerate(got):
        assert np.array_equal(samples, want[i]), i


@needs_fork
def test_broken_pool_fails_the_call_and_the_next_starts_fresh(monkeypatch, tmp_path, exact_zone):
    # a pool process killed mid-batch breaks the pool: that call raises
    # BrokenProcessPool, and the next call runs on a new pool
    pr = params_for()
    exact_zone(8.0)
    config = SimConfig(trials=128, master_seed=3)
    monkeypatch.setattr(mcsim, "_batch_size", lambda *args: 32)
    want = mcsim._run_batches(pr, config, 1)
    armed = tmp_path / "armed"
    real = mcsim._batch_powers

    def killed(params, scheme, seed, start, stop, window, work):
        if start == 32 and armed.exists():
            armed.unlink()
            os.kill(os.getpid(), signal.SIGKILL)
        return real(params, scheme, seed, start, stop, window, work)

    monkeypatch.setattr(mcsim, "_batch_powers", killed)
    monkeypatch.setattr(mcsim, "_lanes", lambda workers: 2)
    armed.touch()
    with pytest.raises(BrokenProcessPool):
        run_trials(pr, config)
    assert mcsim._pool is None
    assert np.array_equal(run_trials(pr, config).samples, want)


#: A child interpreter's first lines: an alarm that ends it should it hang,
#: a two-lane run_trials call of four batches, which starts the pool, then
#: the pool's process ids on stdout.
POOL_CHILD = (
    "import os, signal, sys, time\n"
    "signal.alarm(150)\n"
    "from beamharvest import mcsim\n"
    "from beamharvest.scenario import params_from_mapping\n"
    "mcsim._lanes = lambda workers: 2\n"
    "params = params_from_mapping({})\n"
    "config = mcsim.SimConfig(trials=300, master_seed=1)\n"
    "samples = mcsim.run_trials(params, config).samples\n"
    "pool = mcsim._pool\n"
    "print(*pool._processes, flush=True)\n"
)


def pool_child(code: str) -> subprocess.Popen:
    src = Path(mcsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.Popen([sys.executable, "-c", POOL_CHILD + code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def parent_of(pid: int) -> int | None:
    """A process's parent pid, from /proc; None once it has gone. A
    zombie, which no parent has reaped yet, counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state, ppid = stat.read().rsplit(")", 1)[1].split()[:2]
    except FileNotFoundError:
        return None
    return None if state == "Z" else int(ppid)


def all_gone(pids, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while any(parent_of(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(parent_of(pid) for pid in pids)


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")


@needs_proc
def test_pool_processes_end_with_a_clean_exit():
    child = pool_child("")
    try:
        out, err = child.communicate(timeout=120)
    finally:
        child.kill()
    assert child.returncode == 0 and err == ""
    pids = [int(pid) for pid in out.split()]
    assert len(pids) == 2 and all_gone(pids, 5.0)


@needs_proc
def test_pool_processes_end_when_their_caller_is_killed():
    # leaving the with closes the pipes, which pool processes left alive
    # would hold open, and reaps the child
    with pool_child("time.sleep(300)\n") as child:
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2
            assert [parent_of(pid) for pid in pids] == [child.pid] * 2
        finally:
            child.kill()
    gone = all_gone(pids, 5.0)
    for pid in pids:
        if not gone and parent_of(pid):
            os.kill(pid, signal.SIGKILL)  # or the survivors outlive the test
    assert gone


@needs_proc
def test_a_forked_child_starts_its_own_pool():
    # the fork child's pool is its own, its processes its children, and
    # its samples the parent's; the parent keeps its pool
    child = pool_child(
        "def ppid(pid):\n"
        "    with open(f'/proc/{pid}/stat') as stat:\n"
        "        return int(stat.read().rsplit(')', 1)[1].split()[1])\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(60)\n"
        "    again = mcsim.run_trials(params, config).samples\n"
        "    mine = set(mcsim._pool._processes)\n"
        "    ok = (mcsim._pool is not pool and (again == samples).all()\n"
        "          and not mine & set(pool._processes)\n"
        "          and {ppid(p) for p in mine} == {os.getpid()})\n"
        "    mcsim._stop_pool()\n"
        "    os._exit(0 if ok else 1)\n"
        "assert os.waitpid(pid, 0)[1] == 0\n"
        "again = mcsim.run_trials(params, config).samples\n"
        "assert mcsim._pool is pool and (again == samples).all()\n"
        "print('parent kept its pool')\n"
    )
    try:
        out, err = child.communicate(timeout=120)
    finally:
        child.kill()
    assert child.returncode == 0, err
    assert out.splitlines()[1:] == ["parent kept its pool"]


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(mcsim.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 3)
    assert mcsim._usable_cpus() == 3
    monkeypatch.setattr(mcsim.os, "cpu_count", lambda: None)
    assert mcsim._usable_cpus() == 1


def test_auto_window_adds_exact_tail_constant():
    pr = params_for()
    zone = mcsim._exact_zone_radius(pr)
    tail = mcsim._tail_mean(pr, zone)
    auto = run_trials(pr, SimConfig(trials=40, master_seed=5))
    exact = mcsim._batch_powers(pr, Allocation.UNIFORM, 5, 0, 40, zone, mcsim._Workspace())
    np.testing.assert_allclose(auto.samples - exact, tail, rtol=1e-12)
    assert tail > 0.0


def test_single_sector_uniform_equals_forced_omni(exact_zone):
    pr = params_for(sectors=1)
    exact_zone(9.0)
    a = run_trials(pr, SimConfig(trials=50, master_seed=2))
    b = run_trials(pr, SimConfig(trials=50, master_seed=2, allocation=Allocation.FORCED_OMNI))
    assert np.array_equal(a.samples, b.samples)


def test_lone_origin_sensor_makes_all_schemes_agree(exact_zone):
    # with (almost surely) no other sensors, every scheme pours all power
    # at the origin, so the paired-network seeding gives identical samples
    pr = params_for(sn_density=1e-12, charging_radius=2.0)
    exact_zone(10.0)
    runs = [
        run_trials(pr, SimConfig(trials=40, master_seed=8, allocation=scheme)).samples
        for scheme in (Allocation.UNIFORM, Allocation.ROBUST, Allocation.GREEDY)
    ]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_auto_mean_tracks_closed_form():
    pr = params_for()
    got = run_trials(pr, SimConfig(trials=2000, master_seed=11))
    want = analytic.mean_power(pr)
    assert abs(got.mean - want) <= 3.0 * math.sqrt(got.variance / 2000.0)


# --- window policy ---


def test_exact_zone_radius_bounds():
    assert mcsim._exact_zone_radius(params_for()) >= 20.0
    assert mcsim._exact_zone_radius(params_for(charging_radius=90.0)) == 270.0
    assert mcsim._exact_zone_radius(params_for(path_loss_exp=2.05)) <= 300.0


def test_bench_probe_window_is_the_engine_window(monkeypatch):
    # bench/workloads.py mirrors the AUTO window so its stage probes draw the
    # networks the engine draws; a sizing change must move both
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads_mirror", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    kinds = set()
    for n in (1, 4, 64):
        for alpha in (2.05, 3.0, 5.0):
            for rho in (0.5, 10.0, 150.0):
                pr = params_for(sectors=n, path_loss_exp=alpha, charging_radius=rho)
                zone = mcsim._exact_zone_radius(pr)
                assert workloads.exact_zone_radius(pr) == zone
                if zone in (20.0, 300.0):
                    kinds.add(zone)
                else:
                    kinds.add("3 rho" if zone == 3.0 * rho else "interior")
    assert kinds == {20.0, 300.0, "3 rho", "interior"}


def test_config_guards():
    pr = params_for(charging_radius=3.0)
    with pytest.raises(ConfigError, match="trials"):
        run_trials(pr, SimConfig(trials=0, master_seed=1))
    with pytest.raises(ConfigError, match="master_seed"):
        run_trials(pr, SimConfig(trials=5, master_seed=-3))
    # bool is an int subclass; True must not pass as one trial or seed 1
    with pytest.raises(ConfigError, match="trials"):
        run_trials(pr, SimConfig(trials=True, master_seed=1))
    with pytest.raises(ConfigError, match="master_seed"):
        run_trials(pr, SimConfig(trials=5, master_seed=False))
    for workers in (0, -3, None, 2.0, True):
        with pytest.raises(ConfigError, match="workers"):
            run_trials(pr, SimConfig(trials=5, master_seed=1), workers=workers)


def test_run_trials_refuses_a_scheme_given_by_name():
    with pytest.raises(ConfigError, match="^unknown allocation scheme 'uniform'$"):
        run_trials(params_for(), SimConfig(2, 1, allocation="uniform"))


def test_trials_whose_samples_cannot_be_allocated_are_a_config_error():
    # under a 3 GiB address-space limit, 2**31 trials need 16 GiB of samples;
    # the limit is set in a child process, never here: a machine that
    # overcommits memory might otherwise start running the trials
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    src = Path(mcsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from beamharvest import mcsim, scenario\n"
        "params = scenario.params_from_mapping({})\n"
        "try:\n"
        "    mcsim.run_trials(params, mcsim.SimConfig(2**31, 1))\n"
        "except scenario.ConfigError as exc:\n"
        "    print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        f"cannot allocate the {8 * 2**31} bytes of samples that trials={2**31} needs\n"
    )


def test_run_trials_shares_the_sector_cap():
    # the closed forms' sector cap is a scenario rule, so it binds here too
    with pytest.raises(ParameterError, match="sector"):
        run_trials(params_for(sectors=65), SimConfig(trials=5, master_seed=1))


def test_run_trials_shares_the_radius_range(monkeypatch):
    # a radius whose square overflows is out of range for the closed forms,
    # and here too, before any draw
    def no_draws(*args, **kwargs):
        raise AssertionError("run_trials drew before its range check")

    monkeypatch.setattr(mcsim, "_run_batches", no_draws)
    for rho in (1e155, 1e200):
        params = params_for(charging_radius=rho)
        with pytest.raises(RangeError, match="charging_radius"):
            analytic.mean_power(params)
        with pytest.raises(RangeError, match="charging_radius"):
            run_trials(params, SimConfig(trials=5, master_seed=1))


def test_run_trials_refuses_trials_too_large_to_draw(monkeypatch, exact_zone):
    # a trial whose expected beacons or sensors overflow, or pass what the
    # pair join's packed keys hold (far below the largest mean
    # Generator.poisson takes), is out of range before any draw
    def no_draws(*args, **kwargs):
        raise AssertionError("run_trials drew before its range check")

    monkeypatch.setattr(mcsim, "_run_batches", no_draws)
    config = SimConfig(trials=2, master_seed=1)

    def refused(params, name):
        with pytest.raises(RangeError, match=f"expects .* {name}, more than the pair join can key$"):
            run_trials(params, config)

    for overrides, name in (
        ({"charging_radius": 1e150}, "beacons"),
        ({"pb_density": 1e300}, "beacons"),
        ({"sn_density": 1e17}, "sensors"),
    ):
        refused(params_for(**overrides), name)
    # an infinite mean, then 9.5e18 beacons, past what NumPy can draw;
    # drawable, but past the join's 5e8: 3.1e13 beacons (457 TiB of
    # uniforms), then 2.8e8 beacons and 5.7e8 sensors
    for window, name in ((1e300, "beacons"), (5.5e9, "beacons"), (1e7, "beacons"), (3e4, "sensors")):
        exact_zone(window)
        refused(params_for(), name)


# --- aggregation and output formats ---


@pytest.mark.parametrize("samples, level", [(0.0, 0.0), (2e-4, 2e-4)], ids=["zero", "equal"])
def test_summary_json_ccdf_of_samples_without_spread(samples, level):
    # no positive sample, or one positive value: one threshold, reached by all
    pr = params_for()
    config = SimConfig(trials=3, master_seed=1)
    summary = mcsim.TrialSummary(np.full(3, samples), samples, 0.0, 0.0)
    assert json.loads(summary_to_json(summary, pr, config))["ccdf"] == [[level, 1.0]]


def test_empirical_ccdf_counts_at_or_above():
    table = empirical_ccdf([1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 2.5, 4.0, 5.0])
    assert table == [(0.0, 1.0), (2.0, 0.75), (2.5, 0.5), (4.0, 0.25), (5.0, 0.0)]
    with pytest.raises(ValueError):
        empirical_ccdf([], [1.0])


def test_samples_csv_format(tmp_path, exact_zone):
    pr = params_for()
    exact_zone(6.0)
    summary = run_trials(pr, SimConfig(trials=5, master_seed=3))
    path = tmp_path / "samples.csv"
    samples_to_csv(summary, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial_index,power_w"
    assert len(lines) == 6
    idx, val = lines[3].split(",")
    assert idx == "2"
    assert float(val) == summary.samples[2]


def test_samples_csv_streams_in_bounded_memory(tmp_path):
    # rows go out one at a time: traced, this peaks near 43 kB, where a body
    # joined in memory first peaked at 21.7 MB (about 110 B a trial)
    n = 200_000
    samples = np.random.default_rng(5).random(n)
    summary = mcsim.TrialSummary(samples, float(samples.mean()), float(samples.var()), 0.0)
    path = tmp_path / "samples.csv"
    tracemalloc.start()
    try:
        samples_to_csv(summary, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1
    assert [float(line.split(",")[1]) for line in lines[1:]] == samples.tolist()


def test_summary_json_round_trip():
    pr = params_for()
    config = SimConfig(trials=8, master_seed=21)
    summary = run_trials(pr, config)
    doc = json.loads(summary_to_json(summary, pr, config))
    assert doc["trials"] == 8
    assert doc["master_seed"] == 21
    assert doc["allocation"] == "uniform"
    assert doc["window_radius"] == mcsim._exact_zone_radius(pr) == 20.205155046766233
    assert doc["mean_w"] == summary.mean
    assert doc["params"]["sectors"] == 4
    assert len(doc["ccdf"]) >= 1
