"""Free-decay signal synthesis and the block spectral measurement
pipeline: Hann-windowed Fourier amplitude extraction per block, then a
weighted log-linear fit of the amplitude envelope giving the ring-down
time, its uncertainty, and the implied resonance linewidth. The
per-block measurements leave as columns: :class:`AmplitudeSeries` holds
one array per quantity, and a row is flagged when its SNR is below
``SNR_FLAG_THRESHOLD``.

Synthesis noise comes from a counter-based (Philox) generator split per
block, so a given seed produces bit-identical signals on any platform
and blocks are independent of how many of them are generated.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, FitError
from .formats import read_numeric_csv, write_csv

__all__ = [
    "RingdownParams",
    "BlockSchedule",
    "Block",
    "AmplitudeSeries",
    "DecayFit",
    "synthesize_ringdown",
    "amplitude_series",
    "fit_decay",
    "analyze_ringdown",
    "write_block_csv",
    "read_block_csv",
    "write_block_bin",
    "read_block_bin",
    "write_series_csv",
    "decay_fit_dict",
    "BIN_MAGIC",
    "BIN_VERSION",
]

BIN_MAGIC = b"RNGD"
BIN_VERSION = 1
_BIN_HEADER = struct.Struct("<4sId")    # magic, version, sample rate

SNR_FLAG_THRESHOLD = 3.0

# Most samples a schedule may ask for: 1 GiB of float64. The default
# record, 120 blocks of 15,000 samples, is 1.8 M.
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


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


def synthesize_ringdown(params: RingdownParams,
                        schedule: BlockSchedule) -> list[Block]:
    """Generate the blocks a real run would record.

    Within each block x(t) = A0 exp(-t/tau) cos(2 pi f0 t + phi) plus
    white gaussian noise of the requested rms, with t measured from the
    start of the whole run.
    """
    if schedule.sample_rate <= 4.0 * params.f0:
        raise ConfigError(
            f"sample rate {schedule.sample_rate:g} Hz too low for "
            f"f0 = {params.f0:g} Hz (need > 4 f0)")
    n = schedule.samples_per_block
    blocks = []
    for k, start in enumerate(schedule.block_starts()):
        t = start + np.arange(n) / schedule.sample_rate
        x = (params.amplitude0 * np.exp(-t / params.tau)
             * np.cos(2.0 * math.pi * params.f0 * t + params.phase0))
        if params.noise_rms > 0:
            x = x + _block_rng(params.seed, k).normal(
                0.0, params.noise_rms, n)
        blocks.append(Block(start_time=start,
                            sample_rate=schedule.sample_rate, samples=x))
    return blocks


def _hann(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(n) / n))


def amplitude_series(blocks: Sequence[Block],
                     f0_hint: float) -> AmplitudeSeries:
    """Extract the oscillation amplitude of each block.

    Hann-windowed real FFT; the peak is searched within two bins of the
    hint, refined by parabolic interpolation of the log magnitude, and
    normalized by the window's coherent gain so a pure sinusoid of
    amplitude A reads back as A. SNR is peak over median off-peak
    magnitude; below 3 the row is flagged as noise-dominated but kept.
    """
    frequency, amplitude, snr = [], [], []
    w = None    # one window for every block of the same length
    for block in blocks:
        x = block.samples
        n = len(x)
        if w is None or len(w) != n:
            w = _hann(n)
        if n * f0_hint / block.sample_rate < 20.0:
            raise DataError(
                "block shorter than 20 periods of the hint frequency")
        # a huge signal overflows the transform; the peak check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.abs(np.fft.rfft(x * w))
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
        floor = float(np.median(off)) if len(off) else 0.0
        frequency.append((k + delta) * block.sample_rate / n)
        amplitude.append(peak * 2.0 / float(np.sum(w)))
        snr.append(math.inf if floor == 0.0 else peak / floor)
    return AmplitudeSeries([b.start_time for b in blocks], frequency,
                           amplitude, snr)


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
    amp = np.exp(y)
    model = A0 * np.exp(-t / tau)
    residual_rms = float(np.sqrt(np.mean((amp - model)**2)))
    return DecayFit(A0=A0, tau=tau, sigma_tau=sigma_tau,
                    residual_rms=residual_rms,
                    linewidth=1.0 / (math.pi * tau))


def analyze_ringdown(blocks: Sequence[Block], schedule: BlockSchedule,
                     f0_hint: float) -> tuple[AmplitudeSeries, DecayFit]:
    """Full pipeline: per-block amplitudes, then the decay fit."""
    if not blocks:
        raise DataError("no blocks to analyze")
    n_expect = schedule.samples_per_block
    for b in blocks:
        # rates recovered from timestamp columns carry representation
        # rounding, so compare with a tight relative tolerance
        if abs(b.sample_rate - schedule.sample_rate) \
                > 1e-9 * schedule.sample_rate:
            raise DataError("block sample rate differs from the schedule")
        if abs(len(b.samples) - n_expect) > 1:
            raise DataError(
                f"block at t = {b.start_time:g} s has {len(b.samples)} "
                f"samples, schedule expects {n_expect}")
    series = amplitude_series(blocks, f0_hint)
    return series, fit_decay(series)


def write_block_csv(block: Block, fh: io.TextIOBase,
                    header_comment: str | None = None) -> None:
    times = block.start_time + np.arange(len(block.samples)) \
        / block.sample_rate
    write_csv(fh, [header_comment], ["time_s", "displacement"],
              [times, block.samples])


def _block(source: str | Path, start_time: float, sample_rate: float,
           samples: np.ndarray) -> Block:
    """A block read from ``source``; a value it refuses names the file."""
    try:
        return Block(start_time=start_time, sample_rate=sample_rate,
                     samples=samples)
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from exc


def read_block_csv(data: bytes, source: str | Path) -> Block:
    """The block in the bytes of a CSV that :func:`write_block_csv`
    wrote; its time column gives the start time and sample rate."""
    header = next((line for line in io.BytesIO(data)
                   if not line.startswith(b"#")), b"")
    if b"time_s" not in header:
        raise DataError(f"{source}: missing time_s header")
    times, values = zip(*read_numeric_csv(data, source, "block", 2))
    if len(times) < 2:
        raise DataError(f"{source}: fewer than two samples")
    # write_block_csv's times carry rounding of about 1e-8 of the step
    mean_step = (times[-1] - times[0]) / (len(times) - 1)
    with np.errstate(over="ignore", invalid="ignore"):   # inf: no even step
        even = mean_step > 0 and np.all(
            np.abs(np.diff(times) - mean_step) <= 1e-6 * mean_step)
    if not even:
        raise DataError(f"{source}: time column does not rise by an even "
                        "step")
    fs = (len(times) - 1) / (times[-1] - times[0])
    return _block(source, times[0], fs, np.array(values))


def write_block_bin(block: Block, path: str | Path) -> None:
    """Binary frame: 16-byte header (magic, version, sample rate) then
    little-endian float64 samples. Block start time travels outside the
    frame (file naming or a run manifest)."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(BIN_MAGIC, BIN_VERSION, block.sample_rate))
        fh.write(block.samples.astype("<f8").tobytes())


def read_block_bin(raw: bytes, source: str | Path,
                   start_time: float = 0.0) -> Block:
    """The block in the bytes of a :func:`write_block_bin` frame; its
    samples are a view of ``raw``, not a copy."""
    size = _BIN_HEADER.size
    if len(raw) < size or raw[:4] != BIN_MAGIC:
        raise DataError(f"{source}: not a ring-down block file")
    _, version, fs = _BIN_HEADER.unpack_from(raw)
    if version != BIN_VERSION:
        raise DataError(f"{source}: unsupported block version {version}")
    if (len(raw) - size) % 8:
        raise DataError(f"{source}: truncated sample payload")
    return _block(source, start_time, fs,
                  np.frombuffer(raw, dtype="<f8", offset=size))


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
