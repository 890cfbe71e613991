"""Free-decay signal synthesis and the block spectral measurement
pipeline: Hann-windowed Fourier amplitude extraction per block, then a
weighted log-linear fit of the amplitude envelope giving the ring-down
time, its uncertainty, and the implied resonance linewidth.

The block is the unit of work: :func:`synthesize_block` makes one and
:func:`measure_block` measures one. The analysis is one pass over the
blocks, then :func:`fit_decay`: :func:`measure_blocks` loads and
measures each block in one step, keeps its measurement, never its
samples, and raises the fault of the lowest block index. A loader that
checks each block with :meth:`BlockSchedule.check` puts the schedule's
faults in that same order. The list functions are these over a list.
:func:`map_blocks` runs per-block work on this thread and one helper
thread, two blocks in flight, in block order; every heavy step of a
block (the Philox draws, the FFT, file IO, the sha256 digest) releases
the interpreter lock, so the two overlap. There is no setting for the
thread count. A fault stops new blocks from starting, not the blocks
that the other thread took before it, so blocks past a failing one can
still be written.

A block file is one binary frame (:func:`write_block_bin`): a header
with the sample rate and start time, then the samples.

Synthesis evaluates ``exp`` and ``cos`` per run, not per sample: a
block is two scalars of its start times two offset arrays, cached by
:func:`_offset_arrays` and read by both threads. Its noise comes from a
counter-based (Philox) generator split per block, so a given seed
produces bit-identical signals on any platform and blocks are
independent of how many of them are generated.
"""

from __future__ import annotations

import functools
import io
import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, DataError, FitError
from .formats import write_csv

__all__ = [
    "RingdownParams",
    "BlockSchedule",
    "Block",
    "AmplitudeSeries",
    "DecayFit",
    "map_blocks",
    "synthesize_block",
    "synthesize_ringdown",
    "measure_block",
    "measure_blocks",
    "amplitude_series",
    "fit_decay",
    "analyze_ringdown",
    "write_block_bin",
    "read_block_bin",
    "write_series_csv",
    "decay_fit_dict",
    "BIN_MAGIC",
    "BIN_VERSION",
]

BIN_MAGIC = b"RNGD"
BIN_VERSION = 2
_BIN_HEADER = struct.Struct("<4sIdd")

SNR_FLAG_THRESHOLD = 3.0

# Most samples a schedule may ask for: 1 GiB of float64. The CLI holds
# two blocks at a time, one per thread, and synthesis two cached arrays
# of a block's length, so this bounds disk space and run time, not
# memory. The default record, 120 blocks of 15,000 samples, is 1.8 M.
MAX_SCHEDULE_SAMPLES = 2**27


@dataclass(frozen=True)
class RingdownParams:
    """Truth parameters of a synthesized free decay."""

    amplitude0: float
    f0: float
    tau: float
    phase0: float = 0.0
    noise_rms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("amplitude0", "f0", "tau"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not math.isfinite(self.phase0):
            raise ValueError("phase0 must be finite")
        if not 0 <= self.noise_rms < math.inf:
            raise ValueError("noise_rms must be finite and non-negative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class BlockSchedule:
    """Measurement cadence: a short block recorded every interval."""

    sample_rate: float
    total_duration: float
    block_length: float = 300.0
    block_interval: float = 3600.0

    def __post_init__(self):
        if not 0 < self.block_length <= self.block_interval:
            raise ValueError("need 0 < block_length <= block_interval")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.total_duration < self.block_interval:
            raise ValueError("total_duration must cover at least one interval")
        # the block count in floats, so that 1e296 blocks cannot overflow;
        # the first test keeps round() in samples_per_block finite
        blocks = (self.total_duration - self.block_length) \
            // self.block_interval + 1
        if self.block_length * self.sample_rate > MAX_SCHEDULE_SAMPLES \
                or blocks * self.samples_per_block > MAX_SCHEDULE_SAMPLES:
            raise ValueError(f"schedule asks for more than "
                             f"{MAX_SCHEDULE_SAMPLES} samples")
        if self.samples_per_block < 2:
            raise ValueError("a block needs at least 2 samples")

    @property
    def samples_per_block(self) -> int:
        return round(self.block_length * self.sample_rate)

    @property
    def n_blocks(self) -> int:
        return int((self.total_duration - self.block_length)
                   // self.block_interval) + 1

    def block_starts(self) -> list[float]:
        return [k * self.block_interval for k in range(self.n_blocks)]

    def check(self, block: Block) -> Block:
        """``block``, if its sample rate, length and start fit the
        schedule; else a :class:`DataError`, in that order."""
        # relative: a caller's block may carry a computed rate
        if abs(block.sample_rate - self.sample_rate) > 1e-9 * self.sample_rate:
            raise DataError("block sample rate differs from the schedule")
        n, start = len(block.samples), block.start_time
        if abs(n - self.samples_per_block) > 1:
            raise DataError(f"block at t = {start:g} s has {n} samples, "
                            f"schedule expects {self.samples_per_block}")
        # half a sample: a caller's block may carry a computed start
        last = (self.n_blocks - 1) * self.block_interval
        if start - last > 0.5 / self.sample_rate:
            raise DataError(f"block at t = {start:g} s starts after the "
                            f"schedule's last block, at t = {last:g} s")
        return block


@dataclass(frozen=True)
class Block:
    """One recorded block of displacement samples."""

    start_time: float
    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 1 or len(self.samples) < 2:
            raise ValueError("fewer than two samples, or not a 1-D array")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be finite and positive")
        if not math.isfinite(self.start_time):
            raise ValueError("start_time must be finite")


@dataclass(frozen=True, eq=False)
class AmplitudeSeries:
    """Per-block measurements as columns, one entry per block: start
    time, peak frequency, amplitude and the peak's SNR."""

    time: np.ndarray
    frequency: np.ndarray
    amplitude: np.ndarray
    snr: np.ndarray

    def __post_init__(self):
        names = ("time", "frequency", "amplitude", "snr")
        for name in names:
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if len({len(getattr(self, name)) for name in names}) != 1:
            raise ValueError("series columns must have equal lengths")
        if np.any(np.diff(self.time) <= 0):
            raise ValueError("row times must be strictly increasing")
        if np.any(self.amplitude < 0):
            raise ValueError("amplitudes must be non-negative")

    @property
    def flagged(self) -> np.ndarray:
        """Rows whose SNR is below the flag threshold: noise-dominated."""
        return self.snr < SNR_FLAG_THRESHOLD


@dataclass(frozen=True)
class DecayFit:
    A0: float
    tau: float
    sigma_tau: float
    residual_rms: float
    linewidth: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.sigma_tau < 0:
            raise ValueError("sigma_tau must be non-negative")


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def map_blocks(fn: Callable[[_Item], _Result],
               items: Sequence[_Item]) -> list[_Result]:
    """``[fn(item) for item in items]``, run on this thread and one helper
    thread, so that two items are in flight.

    Both threads take the next index from one counter, so items start in
    index order. No item starts once an item has raised, but the items
    that the other thread took before then still run: several of them
    when the failing item is slow. The exception of the lowest-indexed
    item that raised is raised here: the one that the plain loop would
    raise.
    """
    results: list = [None] * len(items)
    faults: dict[int, BaseException] = {}
    lock = threading.Lock()
    next_index, stop = 0, len(items)    # stop: the first not to start

    def work():
        nonlocal next_index, stop
        while True:
            with lock:
                i = next_index
                if i >= stop:
                    return
                next_index += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:    # the caller raises it below
                with lock:
                    faults[i] = exc
                    stop = min(stop, i)
                return

    helper = threading.Thread(target=work, daemon=True)
    helper.start()
    work()
    helper.join()
    if faults:
        raise faults[min(faults)]
    return results


def synthesize_block(params: RingdownParams, schedule: BlockSchedule,
                     k: int) -> Block:
    """Block ``k`` of the run: x(t) = A0 exp(-t/tau) cos(2 pi f0 t + phi),
    t from the start of the run, plus white gaussian noise of the
    requested rms from block ``k``'s own stream."""
    if schedule.sample_rate <= 4.0 * params.f0:
        raise ConfigError(
            f"sample rate {schedule.sample_rate:g} Hz too low for "
            f"f0 = {params.f0:g} Hz (need > 4 f0)")
    n = schedule.samples_per_block
    start = k * schedule.block_interval
    cos_o, sin_o = _offset_arrays(n, schedule.sample_rate, params.tau,
                                  params.f0)
    # numpy scalars, so that an extreme config overflows as arrays do
    a = params.amplitude0 * np.exp(-start / params.tau)
    phase = 2.0 * math.pi * params.f0 * start + params.phase0
    x = np.multiply(cos_o, a * np.cos(phase))
    buf = np.multiply(sin_o, a * np.sin(phase))
    x -= buf
    if params.noise_rms > 0:
        seeds = np.random.SeedSequence(int(params.seed), spawn_key=(k,))
        rng = np.random.Generator(np.random.Philox(seeds))
        noise = rng.standard_normal(n, out=buf)
        with np.errstate(over="ignore"):    # normal() warns of none either
            noise *= params.noise_rms
        noise += 0.0    # normal(0.0, rms) draws 0.0 + rms z: no -0.0
        x += noise
    return Block(start, schedule.sample_rate, x)


def synthesize_ringdown(params: RingdownParams,
                        schedule: BlockSchedule) -> list[Block]:
    """Every block of the run, by :func:`synthesize_block`."""
    return map_blocks(functools.partial(synthesize_block, params, schedule),
                      range(schedule.n_blocks))


@functools.lru_cache(maxsize=1)     # shared by every block of the run
def _offset_arrays(n: int, rate: float, tau: float, f0: float) -> tuple:
    """Read-only exp(-o/tau) cos(w o) and exp(-o/tau) sin(w o) at n offsets."""
    o = np.arange(n, dtype=float) / rate
    envelope, wo = np.exp(-o / tau), 2.0 * math.pi * f0 * o
    pair = envelope * np.cos(wo), envelope * np.sin(wo)
    for array in pair:
        array.flags.writeable = False
    return pair


@functools.lru_cache(maxsize=4)     # shared by every block of length n
def _hann(n: int) -> tuple[np.ndarray, float]:     # and its coherent gain
    w = 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(n) / n))
    return w, float(np.sum(w))


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` of a non-empty array, bit for bit and NaN
    included, from one partition with numpy's own kth."""
    m = len(values)
    part = np.partition(values, [(m - 1) // 2, m // 2, -1])
    if math.isnan(part[-1]):    # numpy's NaN check: NaNs sort last
        return float(part[-1])
    return float(np.mean(part[(m - 1) // 2:m // 2 + 1]))


def measure_block(block: Block, f0_hint: float) -> tuple[float, float, float]:
    """The peak frequency, amplitude and SNR of one block.

    Hann-windowed real FFT; the peak is searched within two bins of the
    hint, refined by parabolic interpolation of the log magnitude, and
    normalized by the window's coherent gain so a pure sinusoid of
    amplitude A reads back as A. SNR is peak over median off-peak
    magnitude; below 3 the row is flagged as noise-dominated but kept.
    """
    n = len(block.samples)
    w, gain = _hann(n)
    if n * f0_hint / block.sample_rate < 20.0:
        raise DataError("block shorter than 20 periods of the hint frequency")
    # a huge signal overflows the transform; the peak check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(np.fft.rfft(block.samples * w))
    hint_bin = f0_hint * n / block.sample_rate
    lo = max(1, round(hint_bin) - 2)
    hi = min(len(mag) - 2, round(hint_bin) + 2)
    if lo > hi:
        raise DataError("hint frequency outside the resolvable band")
    k = lo + int(np.argmax(mag[lo:hi + 1]))
    around = mag[k - 1:k + 2]
    if not np.all((around > 0.0) & (around < math.inf)):
        raise DataError(f"block at t = {block.start_time:g} s: spectral "
                        "peak is zero or not finite")
    # parabolic refinement on log magnitude (exact for a gaussian-ish
    # peak, excellent for a Hann main lobe)
    alpha, beta, gamma = np.log(around)
    denom = alpha - 2.0 * beta + gamma
    delta = 0.0 if denom == 0.0 else 0.5 * (alpha - gamma) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    peak = math.exp(beta - 0.25 * (alpha - gamma) * delta)
    off = np.concatenate([mag[1:max(k - 3, 1)], mag[k + 4:]])
    floor = _median(off) if len(off) else 0.0
    return ((k + delta) * block.sample_rate / n,
            peak * 2.0 / gain,
            math.inf if floor == 0.0 else peak / floor)


def measure_blocks(load: Callable[[int], Block], indices: Sequence[int],
                   f0_hint: float) -> AmplitudeSeries:
    """The :func:`measure_block` row of block ``load(k)`` for each index,
    as columns. Each block is loaded and measured in one step of
    :func:`map_blocks`, which drops its samples after, and the fault of
    the lowest index, in loading or in measuring, is raised."""
    def row(k):
        block = load(k)
        return (block.start_time, *measure_block(block, f0_hint))
    return AmplitudeSeries(*np.reshape(map_blocks(row, indices), (-1, 4)).T)


def amplitude_series(blocks: Sequence[Block],
                     f0_hint: float) -> AmplitudeSeries:
    """The :func:`measure_block` row of each block, as columns."""
    return measure_blocks(blocks.__getitem__, range(len(blocks)), f0_hint)


def fit_decay(series: AmplitudeSeries) -> DecayFit:
    """Weighted linear regression of log amplitude against time.

    Weights are SNR^2 (flagged rows excluded). tau = -1/slope with its
    uncertainty from the regression covariance scaled by the observed
    scatter, so it tracks the actual noise level rather than the
    nominal weights.
    """
    usable = ~series.flagged
    t = series.time[usable]
    if len(t) < 5:
        raise DataError(f"need >= 5 usable rows, have {len(t)}")
    y = np.log(series.amplitude[usable])
    # Python floats, so the squares round as they always have
    wt = np.array([min(s, 1e12)**2 for s in series.snr[usable].tolist()])
    W = wt.sum()
    t_bar = (wt * t).sum() / W
    y_bar = (wt * y).sum() / W
    s_tt = (wt * (t - t_bar)**2).sum()
    if s_tt == 0.0:
        raise DataError("all rows at the same time")
    slope = (wt * (t - t_bar) * (y - y_bar)).sum() / s_tt
    intercept = y_bar - slope * t_bar
    if slope >= 0.0:
        raise FitError("amplitude series does not decay")
    tau = -1.0 / slope
    if (t.max() - t.min()) < 0.2 * tau:
        raise DataError(
            f"series spans {t.max() - t.min():.3g} s, under 0.2 of the "
            f"estimated tau {tau:.3g} s")
    resid = y - (intercept + slope * t)
    chi2 = float((wt * resid**2).sum())
    dof = len(t) - 2
    var_slope = (chi2 / dof) / s_tt
    sigma_tau = math.sqrt(var_slope) * tau * tau
    A0 = math.exp(intercept)
    diff = np.exp(y) - A0 * np.exp(-t / tau)
    with np.errstate(over="ignore"):
        residual_rms = float(np.sqrt(np.mean(diff**2)))
    if not math.isfinite(residual_rms):     # the squares overflowed
        scale = float(np.max(np.abs(diff)))
        residual_rms = scale * float(np.sqrt(np.mean((diff / scale)**2)))
    return DecayFit(A0=A0, tau=tau, sigma_tau=sigma_tau,
                    residual_rms=residual_rms,
                    linewidth=1.0 / (math.pi * tau))


def analyze_ringdown(blocks: Sequence[Block], schedule: BlockSchedule,
                     f0_hint: float) -> tuple[AmplitudeSeries, DecayFit]:
    """Full pipeline: each block checked against the schedule and
    measured, the lowest index's fault first, then the decay fit."""
    if not blocks:
        raise DataError("no blocks to analyze")
    series = measure_blocks(lambda k: schedule.check(blocks[k]),
                            range(len(blocks)), f0_hint)
    return series, fit_decay(series)


def write_block_bin(block: Block, path: str | Path) -> None:
    """Binary frame, version 2: 24-byte header (magic, version, sample
    rate, start time) then little-endian float64 samples."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(
            BIN_MAGIC, BIN_VERSION, block.sample_rate, block.start_time))
        fh.write(np.ascontiguousarray(block.samples, dtype="<f8"))


def read_block_bin(raw: bytes, source: str | Path,
                   start_time: float = 0.0) -> Block:
    """The block in the bytes of a :func:`write_block_bin` frame; its
    samples are a view of ``raw``, not a copy. A frame whose start is
    not ``start_time``, the block's place in the schedule, is a
    :class:`DataError` naming both."""
    if len(raw) < _BIN_HEADER.size or raw[:4] != BIN_MAGIC:
        raise DataError(f"{source}: not a ring-down block file")
    _, version, fs, written = _BIN_HEADER.unpack_from(raw)
    if version != BIN_VERSION:
        raise DataError(f"{source}: unsupported block version {version}")
    if (len(raw) - _BIN_HEADER.size) % 8:
        raise DataError(f"{source}: truncated sample payload")
    if written != float(start_time):
        raise DataError(f"{source}: block starts at t = {written!r} s "
                        f"by its header but at t = {float(start_time)!r} s "
                        "by its place in the schedule")
    try:
        return Block(start_time=start_time, sample_rate=fs,
                     samples=np.frombuffer(raw, dtype="<f8",
                                           offset=_BIN_HEADER.size))
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from exc


def write_series_csv(series: AmplitudeSeries, fh: io.TextIOBase,
                     header_comment: str | None = None) -> None:
    write_csv(fh, [header_comment],
              ["t_s", "f_Hz", "amplitude", "snr", "flagged"],
              [series.time, series.frequency, series.amplitude, series.snr,
               series.flagged.astype(int)])


def decay_fit_dict(fit: DecayFit) -> dict[str, float]:
    return {"A0": fit.A0, "tau_s": fit.tau, "sigma_tau_s": fit.sigma_tau,
            "residual_rms": fit.residual_rms,
            "linewidth_Hz": fit.linewidth}
