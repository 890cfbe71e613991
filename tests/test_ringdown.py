"""Block synthesis, spectral amplitude extraction, and decay fitting.

The envelope oracle used here is independent of the FFT path: for an
on-bin tone the windowed peak equals the Hann-weighted mean of the
decaying envelope, computed directly as a weighted sum.
"""

import dataclasses
import io
import math
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levosc import ringdown
from levosc.errors import ConfigError, DataError, FitError
from levosc.ringdown import (
    BIN_MAGIC,
    BIN_VERSION,
    MAX_SCHEDULE_SAMPLES,
    AmplitudeSeries,
    Block,
    BlockSchedule,
    DecayFit,
    RingdownParams,
    analyze_ringdown,
    amplitude_series,
    decay_fit_dict,
    fit_decay,
    map_blocks,
    measure_block,
    measure_blocks,
    read_block_bin,
    synthesize_block,
    synthesize_ringdown,
    write_block_bin,
    write_series_csv,
)
from levosc.ringdown import _median, _offset_arrays

REFERENCE_PARAMS = RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0)
REFERENCE_SCHEDULE = BlockSchedule(sample_rate=50.0, total_duration=432000.0)


def tone(n, fs, f0, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return amp * np.cos(2.0 * math.pi * f0 * t + phase)


# ---------------------------------------------------------------- schedule

def test_reference_schedule_block_count_and_size():
    starts = REFERENCE_SCHEDULE.block_starts()
    assert len(starts) == 120
    assert starts[0] == 0.0
    assert starts[-1] == 428400.0
    diffs = set(b - a for a, b in zip(starts, starts[1:]))
    assert diffs == {3600.0}
    assert REFERENCE_SCHEDULE.samples_per_block == 15000


def test_schedule_single_block_edge():
    s = BlockSchedule(sample_rate=10.0, total_duration=3600.0)
    assert s.block_starts() == [0.0]


def test_schedule_validation():
    with pytest.raises(ValueError):
        BlockSchedule(sample_rate=50.0, total_duration=1e5,
                      block_length=4000.0, block_interval=3600.0)
    with pytest.raises(ValueError):
        BlockSchedule(sample_rate=0.0, total_duration=1e5)
    with pytest.raises(ValueError):
        BlockSchedule(sample_rate=50.0, total_duration=1000.0,
                      block_interval=3600.0)


def test_schedule_capped_at_max_samples():
    # 2**20 samples per block: 128 blocks reach the cap, 129 pass it
    side = float(2**20)
    at_cap = BlockSchedule(sample_rate=1.0, total_duration=128 * side,
                           block_length=side, block_interval=side)
    assert at_cap.n_blocks * at_cap.samples_per_block == MAX_SCHEDULE_SAMPLES
    with pytest.raises(ValueError, match="samples"):
        BlockSchedule(sample_rate=1.0, total_duration=129 * side,
                      block_length=side, block_interval=side)
    # the block count is never materialized, however large it is
    with pytest.raises(ValueError, match="samples"):
        BlockSchedule(sample_rate=50.0, total_duration=1e300)
    with pytest.raises(ValueError, match="samples"):
        BlockSchedule(sample_rate=1e300, total_duration=1e300,
                      block_length=1e300, block_interval=1e300)


def test_params_validation():
    with pytest.raises(ValueError):
        RingdownParams(amplitude0=0.0, f0=2.7, tau=1e5)
    with pytest.raises(ValueError):
        RingdownParams(amplitude0=1.0, f0=-1.0, tau=1e5)
    with pytest.raises(ValueError):
        RingdownParams(amplitude0=1.0, f0=2.7, tau=0.0)
    with pytest.raises(ValueError):
        RingdownParams(amplitude0=1.0, f0=2.7, tau=1e5, noise_rms=-0.1)
    with pytest.raises(ValueError):
        RingdownParams(amplitude0=1.0, f0=2.7, tau=1e5, seed=2**64)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["amplitude0", "f0", "tau", "phase0",
                                   "noise_rms"])
def test_params_non_finite_rejected(field, value):
    kwargs = {"amplitude0": 1.0, "f0": 2.7, "tau": 1e5, field: value}
    with pytest.raises(ValueError, match="finite"):
        RingdownParams(**kwargs)


def test_block_validation():
    with pytest.raises(ValueError):
        Block(start_time=0.0, sample_rate=50.0, samples=np.array([1.0]))
    with pytest.raises(ValueError):
        Block(start_time=0.0, sample_rate=0.0,
              samples=np.array([1.0, 2.0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["sample_rate", "start_time"])
def test_block_non_finite_rejected(field, value):
    kwargs = {"start_time": 0.0, "sample_rate": 50.0,
              "samples": np.array([1.0, 2.0]), field: value}
    with pytest.raises(ValueError, match="finite"):
        Block(**kwargs)


# --------------------------------------------------------------- synthesis

SYNTH_PARAMS = RingdownParams(amplitude0=0.7, f0=2.7, tau=410400.0,
                              phase0=0.3)


def synthesis_bound(p, block):
    """How far two float64 evaluations of the formula may differ on a
    block. The cosine argument w t + phi rounds in t, in w (pi and the
    product with f0), in the product w t and in the sum, each by at most
    about one ulp of the argument at the block's last sample, so the
    samples differ by at most A0 times a few of those ulps; the products
    with the envelope add a few eps of A0."""
    t_last = block.start_time + (len(block.samples) - 1) / block.sample_rate
    arg = abs(2 * math.pi * p.f0 * t_last) + abs(p.phase0)
    return 4.0 * p.amplitude0 * (np.spacing(arg) + np.finfo(float).eps)


def test_synthesis_matches_formula_noiseless():
    # each block is split into its start's scalars times cached offset
    # arrays, so it rounds differently from the direct formula, but
    # within the argument's rounding; blocks run to t = 4.3e5 s, where
    # the argument is near 7e6 rad
    p = SYNTH_PARAMS
    blocks = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    assert len(blocks) == 120 and blocks[1].start_time == 3600.0
    for b in blocks:
        t = b.start_time + np.arange(len(b.samples)) / 50.0
        want = p.amplitude0 * np.exp(-t / p.tau) * np.cos(
            2 * math.pi * p.f0 * t + p.phase0)
        assert np.max(np.abs(b.samples - want)) <= synthesis_bound(p, b)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is float64 on this platform, so "
                           "it is no more exact than the synthesis")
def test_synthesis_matches_longdouble_formula():
    # the same bound holds against the formula in extended precision,
    # so the split is not less exact than the direct evaluation
    ld, p = np.longdouble, SYNTH_PARAMS
    pi = 4 * np.arctan(ld(1))
    blocks = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    for k in (0, 1, 60, 77, 119):
        b = blocks[k]
        t = ld(b.start_time) + np.arange(len(b.samples), dtype=ld) / ld(50)
        want = ld(p.amplitude0) * np.exp(-t / ld(p.tau)) * np.cos(
            2 * pi * ld(p.f0) * t + ld(p.phase0))
        assert np.max(np.abs(b.samples - want)) <= synthesis_bound(p, b)


NOISE_SCHEDULE = BlockSchedule(sample_rate=50.0, total_duration=40 * 3600.0,
                               block_length=60.0, block_interval=3600.0)


def noise_is_the_draw_bit_for_bit(p, k):
    """Whether block ``k`` of ``p`` is the noiseless block plus block k's
    own normal() draw, byte for byte: -0.0 is not 0.0 here."""
    s = NOISE_SCHEDULE
    clean = synthesize_block(dataclasses.replace(p, noise_rms=0.0), s, k)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(p.seed, spawn_key=(k,))))
    want = clean.samples + rng.normal(0.0, p.noise_rms, 3000)
    return synthesize_block(p, s, k).samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise", [1e-3, 0.4, 7.0, 1e308])
@pytest.mark.parametrize("k", [0, 1, 37])
@pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
def test_synthesis_matches_formula_with_noise(seed, k, noise):
    # the noise is block k's own normal() draw added to the noiseless
    # block, bit for bit, at every rms
    assert noise_is_the_draw_bit_for_bit(RingdownParams(
        amplitude0=0.7, f0=2.7, tau=5e4, phase0=0.3, noise_rms=noise,
        seed=seed), k)


def test_synthesis_with_noise_keeps_no_negative_zero():
    # at the smallest amplitude, noiseless samples of block 1 are -0.0,
    # and at the smallest rms negative draws underflow to -0.0; normal()
    # draws 0.0 + rms z, so the sum there is +0.0
    p = RingdownParams(amplitude0=5e-324, f0=2.7, tau=5e4, phase0=0.3,
                       noise_rms=5e-324, seed=5)
    clean = synthesize_block(dataclasses.replace(p, noise_rms=0.0),
                             NOISE_SCHEDULE, 1).samples
    assert np.count_nonzero(np.signbit(clean) & (clean == 0)) > 0
    assert noise_is_the_draw_bit_for_bit(p, 1)


def test_synthesis_offset_arrays_are_read_only_and_shared():
    # both threads read one cached pair of offset arrays: neither may
    # write it, no block holds it, and the threads give the plain loop's
    # blocks
    p = RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0,
                       noise_rms=1.5, seed=7)
    blocks = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    pair = _offset_arrays(15000, 50.0, 410400.0, 2.7)
    assert _offset_arrays(15000, 50.0, 410400.0, 2.7) is pair
    for array in pair:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
        assert not any(np.shares_memory(array, b.samples) for b in blocks)
    loop = [synthesize_block(p, REFERENCE_SCHEDULE, k) for k in range(120)]
    assert [b.start_time for b in blocks] == [b.start_time for b in loop]
    assert all(np.array_equal(a.samples, b.samples)
               for a, b in zip(blocks, loop))


def test_synthesis_deterministic_per_seed():
    p = RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0,
                       noise_rms=1.5, seed=7)
    a = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    b = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))
    p2 = RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0,
                        noise_rms=1.5, seed=8)
    c = synthesize_ringdown(p2, REFERENCE_SCHEDULE)
    assert not np.array_equal(a[0].samples, c[0].samples)


def test_block_noise_independent_of_run_length():
    # shortening the run must not change the blocks it still contains
    p = RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0,
                       noise_rms=1.5, seed=7)
    full = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    short = synthesize_ringdown(p, BlockSchedule(
        sample_rate=50.0, total_duration=43200.0))
    assert len(short) == 12
    for a, b in zip(short, full):
        assert np.array_equal(a.samples, b.samples)


class Boom(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 16), data=st.data())
def test_map_blocks_keeps_order_and_raises_the_first_fault(n, data):
    faulty = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    pauses = data.draw(st.lists(st.sampled_from([0.0, 1e-4, 1e-3]),
                                min_size=n, max_size=n))
    events = []     # ("start" or "fault", index), in the order they happen

    def fn(i):
        events.append(("start", i))
        time.sleep(pauses[i])
        if i in faulty:
            events.append(("fault", i))
            raise Boom(i)
        return -i

    # threads change hands only where one blocks (the sleeps in fn), never
    # between a fault's log entry and map_blocks recording it, so the log
    # is in the order that map_blocks sees
    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)
    try:
        if faulty:
            with pytest.raises(Boom) as caught:
                map_blocks(fn, range(n))
            assert caught.value.args == (min(faulty),)
        else:
            assert map_blocks(fn, range(n)) == [-i for i in range(n)]
    finally:
        sys.setswitchinterval(interval)
    starts = [i for kind, i in events if kind == "start"]
    assert starts == sorted(set(starts))
    assert set(range(min(faulty, default=n - 1) + 1)) <= set(starts)
    for at, (kind, i) in enumerate(events):
        if kind == "fault":
            assert all(j < i for later, j in events[at:] if later == "start")


def test_map_blocks_runs_each_item_once_under_fast_switching():
    # the two threads trade the interpreter every microsecond: a lost
    # update of the shared index would skip or repeat an item
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            ran = []
            got = map_blocks(lambda i: ran.append(i) or -i, range(500))
            assert got == [-i for i in range(500)]
            assert sorted(ran) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


def test_synthesis_rejects_low_sample_rate():
    p = RingdownParams(amplitude0=1.0, f0=2.7, tau=1e5)
    s = BlockSchedule(sample_rate=10.8, total_duration=43200.0)
    with pytest.raises(ConfigError, match="4 f0"):
        synthesize_ringdown(p, s)


# ----------------------------------------------------- amplitude extraction

@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 8000), seed=st.integers(0, 2**32 - 1),
       nans=st.integers(0, 3), levels=st.sampled_from([0, 3, 1000]),
       tail=st.lists(st.floats(0.0), max_size=4))
def test_median_floor_equals_np_median(m, seed, nans, levels, tail):
    # magnitudes as measure_block sees them: non-negative, possibly
    # repeated (few levels), infinite or NaN; odd and even lengths
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=m)
    if levels:
        values = np.floor(values * levels) / levels
    values[:len(tail)] = tail[:m]
    values[rng.integers(0, m, size=nans)] = np.nan
    rng.shuffle(values)
    with np.errstate(over="ignore"):    # two huge middle values: inf
        got, want = _median(values), float(np.median(values))
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_measure_block_rows_equal_the_median_floor_rows(monkeypatch):
    # the partition floor and the cached gain leave every row's bits as
    # np.median and a per-call sum of the window gave them
    rng = np.random.default_rng(11)
    blocks = [Block(3600.0 * k, 50.0, 1e-3 * k * tone(n, 50.0, 2.7 + 1e-3 * k)
                    + noise * rng.standard_normal(n))
              for k, (n, noise) in enumerate([(15000, 1.2), (15001, 1.2),
                                              (15000, 0.0), (4000, 0.3),
                                              (3001, 7.0), (600, 1e-9)])]
    rows = [measure_block(b, 2.7) for b in blocks]

    def uncached_hann(n):
        w = 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(n) / n))
        return w, float(np.sum(w))

    monkeypatch.setattr(ringdown, "_hann", uncached_hann)
    monkeypatch.setattr(ringdown, "_median",
                        lambda off: float(np.median(off)))
    assert np.array(rows).tobytes() == np.array(
        [measure_block(b, 2.7) for b in blocks]).tobytes()


def test_on_bin_amplitude_exact():
    fs, n = 50.0, 4000
    f0 = 200 * fs / n
    row = amplitude_series(
        [Block(0.0, fs, tone(n, fs, f0, amp=0.7, phase=0.4))], f0)
    assert abs(row.amplitude - 0.7) / 0.7 < 1e-12
    assert abs(row.frequency - f0) < 1e-6 * fs / n
    assert not row.flagged
    assert row.snr > 1e6


def test_quarter_bin_amplitude():
    fs, n = 50.0, 4000
    f0 = 200.25 * fs / n
    row = amplitude_series(
        [Block(0.0, fs, tone(n, fs, f0, amp=0.7, phase=0.4))], f0)
    assert abs(row.amplitude - 0.7) / 0.7 < 2e-2
    assert abs(row.frequency - f0) * n / fs < 0.05


def test_half_bin_amplitude_worst_case():
    fs, n = 50.0, 4000
    f0 = 200.5 * fs / n
    row = amplitude_series([Block(0.0, fs, tone(n, fs, f0, amp=0.7))], f0)
    # log-parabolic peak interpolation undershoots between bins
    assert abs(row.amplitude - 0.7) / 0.7 < 5e-2
    assert abs(row.frequency - f0) * n / fs < 0.05


def test_amplitude_linearity():
    fs, n = 50.0, 4000
    f0 = 200 * fs / n
    a1 = amplitude_series([Block(0.0, fs, tone(n, fs, f0, amp=1.0))],
                          f0).amplitude
    a3 = amplitude_series([Block(0.0, fs, tone(n, fs, f0, amp=3.0))],
                          f0).amplitude
    assert abs(a3 - 3.0 * a1) < 1e-12 * a3


def test_hint_selects_local_peak_not_global():
    fs, n = 50.0, 4000
    f1 = 180 * fs / n
    f2 = 220.3 * fs / n
    x = tone(n, fs, f1, amp=0.3) + tone(n, fs, f2, amp=1.0, phase=1.1)
    r1 = amplitude_series([Block(0.0, fs, x)], f1)
    r2 = amplitude_series([Block(0.0, fs, x)], f2)
    assert abs(r1.amplitude - 0.3) / 0.3 < 1e-3
    assert abs(r1.frequency - f1) * n / fs < 0.01
    assert abs(r2.amplitude - 1.0) < 5e-2


def test_dc_offset_does_not_shift_amplitude():
    fs, n = 50.0, 4000
    f0 = 180 * fs / n
    x = tone(n, fs, f0, amp=0.3)
    base = amplitude_series([Block(0.0, fs, x)], f0).amplitude
    shifted = amplitude_series([Block(0.0, fs, x + 10.0)], f0).amplitude
    assert abs(shifted - base) / base < 1e-3


def test_block_shorter_than_20_periods_rejected():
    fs, n = 50.0, 1000
    with pytest.raises(DataError, match="20 periods"):
        amplitude_series([Block(0.0, fs, tone(n, fs, 0.9))], 0.9)


def test_hint_outside_band_rejected():
    fs, n = 50.0, 200
    x = tone(n, fs, 10.0)
    with pytest.raises(DataError, match="resolvable band"):
        amplitude_series([Block(0.0, fs, x)], 30.0)


def test_noise_dominated_rows_flagged():
    p = RingdownParams(amplitude0=1.0, f0=2.7, tau=36000.0,
                       noise_rms=0.02, seed=11)
    blocks = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    series = amplitude_series(blocks, 2.7)
    flags = series.flagged.tolist()
    assert len(flags) == 120
    assert not any(flags[:30])        # strong early signal
    assert sum(flags) > 20            # late blocks buried in noise
    assert np.all(series.snr[~series.flagged] >= 3.0)
    assert np.all(series.snr[series.flagged] < 3.0)


def test_series_times_come_from_block_starts():
    blocks = synthesize_ringdown(
        RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0),
        REFERENCE_SCHEDULE)
    series = amplitude_series(blocks, 2.7)
    assert series.time.tolist() == REFERENCE_SCHEDULE.block_starts()


def test_series_rows_equal_per_block_amplitudes():
    # the series shares one window across blocks of the same length;
    # a one-block series builds its own, and mixed lengths rebuild it
    rng = np.random.default_rng(5)
    blocks = [Block(start_time=3600.0 * k, sample_rate=50.0,
                    samples=tone(n, 50.0, 2.7, amp=0.9 ** k)
                    + 0.01 * rng.normal(size=n))
              for k, n in enumerate([1500, 1500, 1201, 1201, 1500])]
    series = amplitude_series(blocks, 2.7)
    for i, block in enumerate(blocks):
        ref = amplitude_series([Block(0.0, block.sample_rate,
                                      block.samples)], 2.7)
        assert (series.frequency[i], series.amplitude[i], series.snr[i],
                series.flagged[i]) == \
            (ref.frequency[0], ref.amplitude[0], ref.snr[0], ref.flagged[0])


def test_series_validation():
    f, snr = [2.7, 2.7], [10.0, 10.0]
    with pytest.raises(ValueError):
        AmplitudeSeries([0.0, 0.0], f, [1.0, 1.0], snr)
    with pytest.raises(ValueError):
        AmplitudeSeries([0.0, 1.0], f, [1.0, -1.0], snr)
    with pytest.raises(ValueError, match="equal lengths"):
        AmplitudeSeries([0.0, 1.0], f, [1.0], snr)


# -------------------------------------------------------------- decay fit

@pytest.mark.parametrize("tau,f0,fs,bl,bi,total", [
    (1e3, 5.0, 25.0, 20.0, 40.0, 400.0),
    (1e4, 2.0, 10.0, 50.0, 250.0, 2500.0),
    (1e5, 1.0, 5.0, 100.0, 2500.0, 25000.0),
    (1e6, 20.0, 100.0, 10.0, 25000.0, 250000.0),
    (1e4, 2.7, 50.0, 20.0, 37.0, 2220.0),
])
def test_noiseless_round_trip(tau, f0, fs, bl, bi, total):
    p = RingdownParams(amplitude0=0.8, f0=f0, tau=tau, phase0=0.3)
    s = BlockSchedule(sample_rate=fs, total_duration=total,
                      block_length=bl, block_interval=bi)
    series, fit = analyze_ringdown(synthesize_ringdown(p, s), s, f0)
    assert abs(fit.tau - tau) / tau < 1e-3
    assert abs(fit.A0 - 0.8) / 0.8 < 2e-2
    assert fit.sigma_tau < 1e-3 * tau


def test_fitted_a0_matches_windowed_envelope_mean():
    # independent route: on-bin peak reads the Hann-weighted envelope
    # average of the first block, times nothing else
    blocks = synthesize_ringdown(REFERENCE_PARAMS, REFERENCE_SCHEDULE)
    _, fit = analyze_ringdown(blocks, REFERENCE_SCHEDULE, 2.7)
    n = REFERENCE_SCHEDULE.samples_per_block
    w = 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(n) / n))
    s = np.arange(n) / 50.0
    expected = float(np.sum(w * np.exp(-s / 410400.0)) / np.sum(w))
    assert abs(fit.tau - 410400.0) / 410400.0 < 1e-9
    assert abs(fit.A0 - expected) / expected < 1e-6
    assert np.all(np.abs(_.frequency - 2.7) < 1e-6)


def test_noisy_recovery_within_a_percent():
    p = RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0,
                       noise_rms=1.5, seed=7)
    blocks = synthesize_ringdown(p, REFERENCE_SCHEDULE)
    _, fit = analyze_ringdown(blocks, REFERENCE_SCHEDULE, 2.7)
    assert abs(fit.tau - 410400.0) / 410400.0 < 0.05
    assert 500.0 < fit.sigma_tau < 2e4
    _, fit2 = analyze_ringdown(blocks, REFERENCE_SCHEDULE, 2.7)
    assert fit2.tau == fit.tau
    assert fit2.sigma_tau == fit.sigma_tau


def exact_series(tau, a0=1.0, n=10, dt=None, snr=1e6):
    dt = dt or 0.05 * tau
    return AmplitudeSeries([k * dt for k in range(n)], [2.7] * n,
                           [a0 * math.exp(-k * dt / tau) for k in range(n)],
                           [snr] * n)


def test_fit_exact_series():
    fit = fit_decay(exact_series(1e4, a0=0.8))
    assert abs(fit.tau - 1e4) / 1e4 < 1e-12
    assert abs(fit.A0 - 0.8) / 0.8 < 1e-12
    assert fit.sigma_tau < 1e-6 * fit.tau
    assert fit.residual_rms < 1e-12


def test_fit_amplitude_rescale_leaves_tau():
    base = exact_series(3e4, a0=1.0)
    scaled = AmplitudeSeries(base.time, base.frequency,
                             137.0 * base.amplitude, base.snr)
    f1 = fit_decay(base)
    f2 = fit_decay(scaled)
    assert abs(f2.tau - f1.tau) / f1.tau < 1e-12
    assert abs(f2.A0 - 137.0 * f1.A0) / f2.A0 < 1e-12


@given(tau=st.floats(min_value=1e2, max_value=1e7),
       a0=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=30, deadline=None)
def test_fit_recovers_any_exact_decay(tau, a0):
    fit = fit_decay(exact_series(tau, a0=a0))
    assert abs(fit.tau - tau) / tau < 1e-9
    assert abs(fit.A0 - a0) / a0 < 1e-9


def test_fit_residual_stays_finite_at_huge_amplitude():
    # squaring residuals of 1e300 overflows; the fit rescales instead
    base = exact_series(3e4, a0=1.0)
    wobble = 1.0 + 1e-3 * np.sin(np.arange(len(base.time)))
    fits = [fit_decay(AmplitudeSeries(base.time, base.frequency,
                                      scale * wobble * base.amplitude,
                                      base.snr))
            for scale in (1.0, 1e300)]
    assert math.isfinite(fits[1].residual_rms)
    assert fits[1].residual_rms == pytest.approx(
        1e300 * fits[0].residual_rms, rel=1e-9)


def test_fit_downweights_low_snr_row():
    base = exact_series(1e4, n=9)
    k = 4
    amplitude = base.amplitude.copy()
    amplitude[k] *= 2.0
    snr_lo = base.snr.copy()
    snr_lo[k] = 3.5
    hi = fit_decay(AmplitudeSeries(base.time, base.frequency, amplitude,
                                   base.snr))
    lo = fit_decay(AmplitudeSeries(base.time, base.frequency, amplitude,
                                   snr_lo))
    err_hi = abs(hi.tau - 1e4)
    err_lo = abs(lo.tau - 1e4)
    assert err_lo < 0.01 * err_hi
    assert err_lo / 1e4 < 1e-3


def test_fit_needs_five_usable_rows():
    base = exact_series(1e4, n=5)
    snr = base.snr.copy()
    snr[2] = 1.0
    with pytest.raises(DataError, match="usable"):
        fit_decay(AmplitudeSeries(base.time, base.frequency, base.amplitude,
                                  snr))


def test_fit_rejects_growth():
    series = AmplitudeSeries([1000.0 * k for k in range(8)], [2.7] * 8,
                             [math.exp(k / 5.0) for k in range(8)], [1e6] * 8)
    with pytest.raises(FitError, match="decay"):
        fit_decay(series)


def test_fit_rejects_short_span():
    # decay visible but the record covers far less than the time constant
    with pytest.raises(DataError, match="spans"):
        fit_decay(exact_series(1e6, n=8, dt=100.0))


def test_linewidth_identity():
    fit = fit_decay(exact_series(410400.0))
    assert abs(fit.linewidth - 1.0 / (math.pi * fit.tau)) < 1e-20
    assert abs(fit.linewidth - 7.7575e-7) / 7.7575e-7 < 1e-3


def test_decay_fit_dict_keys():
    d = decay_fit_dict(fit_decay(exact_series(1e4)))
    assert set(d) == {"A0", "tau_s", "sigma_tau_s", "residual_rms",
                      "linewidth_Hz"}
    assert d["tau_s"] > 0
    assert d["linewidth_Hz"] == 1.0 / (math.pi * d["tau_s"])


def test_decay_fit_validation():
    with pytest.raises(ValueError):
        DecayFit(A0=1.0, tau=-1.0, sigma_tau=0.0, residual_rms=0.0,
                 linewidth=1.0)
    with pytest.raises(ValueError):
        DecayFit(A0=1.0, tau=1.0, sigma_tau=-1.0, residual_rms=0.0,
                 linewidth=1.0)


# ------------------------------------------------------- analyze pipeline

def test_analyze_rejects_empty():
    with pytest.raises(DataError, match="no blocks"):
        analyze_ringdown([], REFERENCE_SCHEDULE, 2.7)


def test_analyze_rejects_rate_mismatch():
    blocks = synthesize_ringdown(REFERENCE_PARAMS, REFERENCE_SCHEDULE)
    bad = Block(start_time=blocks[0].start_time, sample_rate=49.0,
                samples=blocks[0].samples)
    with pytest.raises(DataError, match="sample rate"):
        analyze_ringdown([bad] + list(blocks[1:]), REFERENCE_SCHEDULE, 2.7)


def test_analyze_length_tolerance_is_one_sample():
    blocks = list(synthesize_ringdown(REFERENCE_PARAMS, REFERENCE_SCHEDULE))
    nearly = Block(start_time=blocks[0].start_time, sample_rate=50.0,
                   samples=blocks[0].samples[:-1])
    analyze_ringdown([nearly] + blocks[1:], REFERENCE_SCHEDULE, 2.7)
    toofar = Block(start_time=blocks[0].start_time, sample_rate=50.0,
                   samples=blocks[0].samples[:-2])
    with pytest.raises(DataError, match="14998"):
        analyze_ringdown([toofar] + blocks[1:], REFERENCE_SCHEDULE, 2.7)


def test_analyze_rejects_a_block_past_the_schedule():
    # 12 blocks an hour apart: the schedule's last block starts at 39600 s
    schedule = BlockSchedule(sample_rate=50.0, total_duration=43200.0)
    params = RingdownParams(amplitude0=1.0, f0=2.7, tau=1e5)
    blocks = synthesize_ringdown(params, schedule)
    last = blocks[-1]
    # a start that a caller computed may be rounded
    nearly = Block(last.start_time + 0.4 / 50.0, 50.0, last.samples)
    analyze_ringdown(blocks[:-1] + [nearly], schedule, 2.7)
    late = Block(500 * 3600.0, 50.0, last.samples)
    with pytest.raises(DataError, match=r"block at t = 1\.8e\+06 s starts "
                       r"after the schedule's last block, at t = 39600 s"):
        analyze_ringdown(blocks[:-1] + [late], schedule, 2.7)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_measure_blocks_raises_the_fault_of_the_lowest_index(n, data):
    # one pass: a block that cannot be loaded and one that cannot be
    # measured stop the blocks at their index alike
    faults = data.draw(st.dictionaries(st.integers(0, n - 1),
                                       st.sampled_from(["load", "zero"]),
                                       max_size=3))
    blocks = [Block(60.0 * k, 20.0, np.zeros(600) if faults.get(k) == "zero"
                    else tone(600, 20.0, 2.7, amp=0.9 ** k))
              for k in range(n)]

    def load(k):
        if faults.get(k) == "load":
            raise DataError(f"block {k} cannot be read")
        return blocks[k]

    if not faults:
        series = measure_blocks(load, range(n), 2.7)
        rows = [(b.start_time, *measure_block(b, 2.7)) for b in blocks]
        assert np.array_equal(np.column_stack(
            (series.time, series.frequency, series.amplitude, series.snr)),
            rows)
        return
    k = min(faults)
    with pytest.raises(DataError) as raised:
        measure_blocks(load, range(n), 2.7)
    assert str(raised.value) == (
        f"block {k} cannot be read" if faults[k] == "load" else
        f"block at t = {60.0 * k:g} s: spectral peak is zero or not finite")


# -------------------------------------------------------------- block io

def test_bin_block_round_trip(tmp_path):
    p = RingdownParams(amplitude0=1.0, f0=2.7, tau=410400.0,
                       noise_rms=1.5, seed=3)
    s = BlockSchedule(sample_rate=50.0, total_duration=3600.0,
                      block_length=60.0)
    block = synthesize_ringdown(p, s)[0]
    path = tmp_path / "b.rngd"
    write_block_bin(block, path)
    back = read_block_bin(path.read_bytes(), path,
                          start_time=block.start_time)
    assert np.array_equal(back.samples, block.samples)
    assert back.sample_rate == 50.0
    assert back.start_time == block.start_time
    raw = path.read_bytes()
    assert raw[:4] == BIN_MAGIC
    assert struct.unpack("<I", raw[4:8])[0] == BIN_VERSION == 2
    assert struct.unpack("<d", raw[8:16])[0] == 50.0
    assert struct.unpack("<d", raw[16:24])[0] == block.start_time
    assert len(raw) == 24 + 8 * len(block.samples)


STARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda k, interval: k * interval, st.integers(0, 10**6),
              st.floats(1e-3, 1e7)))


@settings(max_examples=200, deadline=None)
@given(rate=st.floats(1e-300, 1e300), start=STARTS, other=STARTS,
       samples=st.lists(st.floats(), min_size=2, max_size=64))
def test_bin_block_start_round_trip(tmp_path_factory, rate, start, other,
                                    samples):
    # the reader returns the written block at its written start, and
    # names both times when asked for the block at any other start
    path = tmp_path_factory.getbasetemp() / "start.rngd"
    block = Block(start_time=start, sample_rate=rate, samples=samples)
    write_block_bin(block, path)
    raw = path.read_bytes()
    back = read_block_bin(raw, path, start)
    assert np.array_equal(back.samples, block.samples, equal_nan=True)
    assert (back.sample_rate, back.start_time) == (rate, start)
    if other == start:
        return
    with pytest.raises(DataError) as raised:
        read_block_bin(raw, path, other)
    message = str(raised.value)
    assert message.startswith(f"{path}: ")
    assert f"t = {start!r} s" in message and f"t = {other!r} s" in message


def test_bin_block_version_1_is_refused():
    # a frame of version 1, with a 16-byte header that holds no start, is
    # no longer read: no levosc since version 2 writes one
    raw = struct.pack("<4sId3d", BIN_MAGIC, 1, 50.0, 0.5, -1.0, 2.25)
    for start in (0.0, 7200.0):
        with pytest.raises(DataError) as raised:
            read_block_bin(raw, "old.rngd", start)
        assert str(raised.value) == "old.rngd: unsupported block version 1"


def test_bin_block_writes_strided_samples(tmp_path):
    # the frame holds the samples' values, not the memory of a strided view
    x = np.arange(40.0)[::3]
    path = tmp_path / "b.rngd"
    write_block_bin(Block(start_time=0.0, sample_rate=50.0, samples=x), path)
    assert np.array_equal(read_block_bin(path.read_bytes(), path).samples, x)


def test_bin_block_malformed(tmp_path):
    good = tmp_path / "good.rngd"
    write_block_bin(Block(start_time=0.0, sample_rate=50.0,
                          samples=np.arange(10.0)), good)
    raw = bytearray(good.read_bytes())

    wrong_magic = tmp_path / "magic.rngd"
    wrong_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataError, match="magic.rngd"):
        read_block_bin(wrong_magic.read_bytes(), wrong_magic)

    stub = tmp_path / "stub.rngd"
    stub.write_bytes(bytes(raw[:10]))
    with pytest.raises(DataError, match="stub.rngd"):
        read_block_bin(stub.read_bytes(), stub)

    vers = bytearray(raw)
    vers[4:8] = struct.pack("<I", 99)
    bad_version = tmp_path / "vers.rngd"
    bad_version.write_bytes(bytes(vers))
    with pytest.raises(DataError, match="version 99"):
        read_block_bin(bad_version.read_bytes(), bad_version)

    trunc = tmp_path / "trunc.rngd"
    trunc.write_bytes(bytes(raw[:-3]))
    with pytest.raises(DataError, match="truncated"):
        read_block_bin(trunc.read_bytes(), trunc)

    tiny = tmp_path / "tiny.rngd"
    tiny.write_bytes(bytes(raw[:24]))
    with pytest.raises(DataError, match="fewer than two"):
        read_block_bin(tiny.read_bytes(), tiny)

    # a header value the block refuses names the file
    for rate in (math.nan, -50.0):
        bad_rate = tmp_path / "rate.rngd"
        bad_rate.write_bytes(bytes(raw[:8]) + struct.pack("<d", rate)
                             + bytes(raw[16:]))
        with pytest.raises(DataError, match="rate.rngd: sample_rate"):
            read_block_bin(bad_rate.read_bytes(), bad_rate)


def test_series_csv_format():
    series = AmplitudeSeries([0.0, 3600.0], [2.7, 2.69], [1.0, 0.5],
                             [math.inf, 2.5])
    buf = io.StringIO()
    write_series_csv(series, buf, header_comment="manifest beef")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# manifest beef"
    assert lines[1] == "t_s,f_Hz,amplitude,snr,flagged"
    assert lines[2].split(",") == ["0.0", "2.7", "1.0", "inf", "0"]
    fields = lines[3].split(",")
    assert float(fields[0]) == 3600.0
    assert fields[4] == "1"
