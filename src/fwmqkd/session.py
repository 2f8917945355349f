"""Key distribution session over the delay-encoded polarization channel.

A message is carried one bit per slot.  Within a slot Alice prepares many
pulses, each with a randomly chosen pump delay (her raw bit: bit 1 uses the
short delay, bit 0 the long one) while Bob randomly alternates his wave
plate between the splitting and mixing settings.  After the exchange the
slots keep only pulses where Alice's random bit happened to match the bit
designated for that slot and Bob sat on the decoding basis, a quarter of
the traffic on average.

Bob never sees amplitudes, only photon counts.  Each slot's sifted counts
pool into a cumulative contrast, and bits are read off by comparing slot
contrasts against a threshold: the mean contrast of the decided slots when
they show enough spread, or the calibrated midpoint when they do not.
Which side of the threshold means "1" follows from the calibration
orientation, since some channels invert the contrast ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import BACKEND, STREAM_SESSION, pulse_randoms
from .errors import DegenerateInputError, MessageEncodingError, ParameterError
from .optics import detected_intensities, polarization_contrast
from .photons import AttenuationConfig, counts_from_uniforms
from .reconstruct import THETA_MIX, THETA_SPLIT
from .spectral import ModelParams, field_components, wavelength_to_energy

BITS_PER_CHAR = 7

THRESHOLD_MODES = ("running-mean", "fixed")

# Snapshot milestones on the photons-per-bit axis, roughly logarithmic.
SNAPSHOT_BUDGETS = (1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300, 500, 1000)

# Pulses drawn per block in run_session, rounded down to whole slots and
# never less than one slot.
BLOCK_PULSES = 1 << 16


def encode_message(text: str) -> np.ndarray:
    """Expand ASCII text to its 7-bit big-endian bit stream.

    The empty string encodes to an empty vector.
    """
    bits = []
    for ch in text:
        code = ord(ch)
        if code > 127:
            raise MessageEncodingError(f"character {ch!r} is not 7-bit ASCII")
        bits.extend((code >> shift) & 1 for shift in range(BITS_PER_CHAR - 1, -1, -1))
    return np.asarray(bits, dtype=np.int64)


def decode_to_text(bits) -> str:
    """Collapse a decoded bit stream back to text.

    Any character whose 7-bit group contains an undecided bit (-1) renders
    as '?'.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % BITS_PER_CHAR != 0:
        raise MessageEncodingError("bit stream length is not a multiple of 7")
    chars = []
    for k in range(0, bits.size, BITS_PER_CHAR):
        group = bits[k : k + BITS_PER_CHAR]
        if np.any(group < 0):
            chars.append("?")
            continue
        code = 0
        for b in group:
            code = (code << 1) | int(b)
        chars.append(chr(code))
    return "".join(chars)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session run depends on.

    delay_bit1 and delay_bit0 are the pump delays (fs) that physically stand
    for the two bit values; decode_theta is the wave plate setting Bob's
    sifting selects.  cycles is the number of pulses spent per message bit.
    threshold_mode picks between the adaptive running-mean decoder and the
    calibrated fixed midpoint.
    """

    message: str = "Tar Heel"
    cycles: int = 1200
    seed: int = 20260814
    lambda_nm: float = 540.0
    decode_theta: float = THETA_SPLIT
    delay_bit1: float = 0.0
    delay_bit0: float = 500.0
    threshold_mode: str = "running-mean"
    attenuation: AttenuationConfig = field(default_factory=AttenuationConfig)
    params: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ParameterError("cycles must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")
        if self.delay_bit1 < 0 or self.delay_bit0 < 0:
            raise ParameterError("delays must be non-negative")
        if self.delay_bit1 == self.delay_bit0:
            raise ParameterError("the two bit delays must be distinct")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ParameterError(f"threshold_mode must be one of {THRESHOLD_MODES}")


@dataclass(frozen=True)
class ChannelModel:
    """Precomputed per-pulse intensities and calibration of one channel.

    itable has shape (2, 2, 2): Alice bit, Bob basis (0 split, 1 mix), then
    the (I_H, I_V) pair.  cal_p1 and cal_p0 are the ideal slot contrasts of
    the two bit values at the decoding basis; their ordering fixes the
    orientation sign and their midpoint the fallback threshold.
    """

    energy: float
    itable: np.ndarray
    decode_basis: int
    cal_p1: float
    cal_p0: float

    @property
    def gap(self) -> float:
        return self.cal_p1 - self.cal_p0

    @property
    def orientation(self) -> float:
        return 1.0 if self.gap > 0 else -1.0

    @property
    def fixed_threshold(self) -> float:
        return 0.5 * (self.cal_p1 + self.cal_p0)

    @classmethod
    def from_config(cls, config: SessionConfig) -> "ChannelModel":
        energy = float(wavelength_to_energy(config.lambda_nm, config.params))
        decode_basis = _basis_index(config.decode_theta)
        delays = {1: config.delay_bit1, 0: config.delay_bit0}
        itable = np.empty((2, 2, 2), dtype=np.float64)
        for bit, delay in delays.items():
            fld = field_components(delay, config.lambda_nm, config.params)
            for basis, theta in enumerate((THETA_SPLIT, THETA_MIX)):
                itable[bit, basis] = detected_intensities(fld, theta)
        cal_p0, cal_p1 = polarization_contrast(*itable[:, decode_basis].T).tolist()
        if cal_p1 == cal_p0:
            raise DegenerateInputError(
                "the two delays give identical contrast at the decoding basis"
            )
        return cls(energy, itable, decode_basis, cal_p1, cal_p0)


def _basis_index(theta: float) -> int:
    for idx, known in enumerate((THETA_SPLIT, THETA_MIX)):
        if abs(theta - known) < 1e-12:
            return idx
    raise ParameterError("decode_theta must be one of the two sifted settings (0 or pi/4)")


def sift_mask(alice_bits, basis_bits, designated_bits, decode_basis: int) -> np.ndarray:
    """Pulses kept after basis reconciliation and slot matching."""
    alice = np.asarray(alice_bits)
    basis = np.asarray(basis_bits)
    designated = np.asarray(designated_bits)
    return (alice == designated) & (basis == decode_basis)


@dataclass(frozen=True)
class PulseRecord:
    alice_bit: int
    basis_bit: int
    n_h: int
    n_v: int
    clamped: bool


def _draw_batch(config: SessionConfig, channel: ChannelModel, start: int, count: int,
                alice_force: int | None = None, basis_force: int | None = None):
    """Counts and settings for pulses [start, start + count).

    The per-pulse uniforms, Alice's bit and Bob's basis all come from the
    same generator block, so the result depends only on the absolute pulse
    index.  Forcing a bit or basis replaces the random choice but leaves the
    photon uniforms untouched.
    """
    u_gain, u_h, u_v, alice, basis = pulse_randoms(config.seed, STREAM_SESSION, start, count)
    if alice_force is not None:
        alice = np.full(count, alice_force, dtype=alice.dtype)
    if basis_force is not None:
        basis = np.full(count, basis_force, dtype=basis.dtype)
    _, n_h, n_v, clamped = counts_from_uniforms(
        u_gain, u_h, u_v, channel.itable[alice, basis, 0], channel.itable[alice, basis, 1],
        config.attenuation,
    )
    return n_h, n_v, alice.astype(np.int64), basis.astype(np.int64), clamped


def run_pulse(config: SessionConfig, channel: ChannelModel, index: int,
              alice_bit: int | None = None, basis_bit: int | None = None) -> PulseRecord:
    """Simulate the single pulse at an absolute index.

    By default the delay and basis come from the pulse's own random bits;
    passing alice_bit or basis_bit pins the setting, which is how calibration
    runs hold one configuration fixed while keeping the photon randomness.
    """
    n_h, n_v, alice, basis, clamped = _draw_batch(
        config, channel, index, 1, alice_force=alice_bit, basis_force=basis_bit
    )
    return PulseRecord(int(alice[0]), int(basis[0]), int(n_h[0]), int(n_v[0]), bool(clamped[0]))


def decode_matrix(p_cum: np.ndarray, channel: ChannelModel,
                  threshold_mode: str = "running-mean") -> tuple[np.ndarray, np.ndarray]:
    """Decode rows of slot contrasts into bits (1, 0, or -1 for undecided).

    Rows are independent decode attempts, columns are slots, NaN marks a
    slot that has not seen a photon.  In running-mean mode the threshold is
    the mean contrast of the decided slots in that row; when their spread is
    below half the calibrated gap the row falls back to the calibrated
    midpoint, since a tight cluster gives no internal evidence of where the
    boundary sits.  A contrast exactly on the threshold stays undecided.

    Returns the bits and, per row, whether the row used the calibrated
    midpoint (always so in fixed mode).
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ParameterError(f"threshold_mode must be one of {THRESHOLD_MODES}")
    p = np.atleast_2d(np.asarray(p_cum, dtype=np.float64))
    decided = np.isfinite(p)
    if threshold_mode == "fixed":
        midpoint = np.ones(p.shape[0], dtype=bool)
        threshold = np.full(p.shape[0], channel.fixed_threshold)
    else:
        n_dec = decided.sum(axis=1)
        mean = np.where(decided, p, 0.0).sum(axis=1) / np.maximum(n_dec, 1)
        p_max = np.where(decided, p, -np.inf).max(axis=1)
        p_min = np.where(decided, p, np.inf).min(axis=1)
        spread = np.where(n_dec > 0, p_max - p_min, 0.0)
        midpoint = spread < 0.5 * abs(channel.gap)
        threshold = np.where(midpoint, channel.fixed_threshold, mean)
    score = channel.orientation * (p - threshold[:, None])
    bits = np.where(score > 0, 1, np.where(score < 0, 0, -1)).astype(np.int64)
    bits[~decided] = -1
    return bits, midpoint


def decode_bits(p_cum, channel: ChannelModel, threshold_mode: str = "running-mean") -> np.ndarray:
    """Decode one vector of slot contrasts."""
    bits, _ = decode_matrix(np.asarray(p_cum, dtype=np.float64)[None, :], channel, threshold_mode)
    return bits[0]


@dataclass(frozen=True)
class Trajectory:
    """Decode evolution as the per-slot photon budget grows.

    budget is the cap on retained photons per slot; retained photon counts
    never exceed it but can sit below, because pulses are kept whole and a
    pulse that would cross the cap is dropped.  all_photons_mean counts every
    detected photon in the slot's pulse train up to the same point, sifted or
    not, since it is ambiguous which of the two a photons-per-bit axis should
    count.  used_midpoint says, per budget value, whether the decoder used
    the calibrated midpoint rather than the running mean as its threshold.
    The per-slot matrices have one row per budget value and one column per
    slot.
    """

    budget: np.ndarray
    retained_mean: np.ndarray
    all_photons_mean: np.ndarray
    accuracy: np.ndarray
    undecided: np.ndarray
    used_midpoint: np.ndarray
    slot_photons: np.ndarray
    slot_contrast: np.ndarray
    slot_estimate: np.ndarray

    def curve_rows(self) -> list[dict]:
        return [
            {
                "budget": int(b),
                "retained_mean": float(r),
                "all_photons_mean": float(ap),
                "percent_correct": float(100.0 * a),
                "undecided": int(u),
                "threshold": "midpoint" if m else "running-mean",
            }
            for b, r, ap, a, u, m in zip(self.budget, self.retained_mean, self.all_photons_mean,
                                         self.accuracy, self.undecided, self.used_midpoint)
        ]


@dataclass(frozen=True)
class SessionReport:
    message: str
    decoded_message: str
    bits: np.ndarray
    decoded_bits: np.ndarray
    accuracy: float
    sift_retention: float
    total_pulses: int
    clamped_pulses: int
    slot_h: np.ndarray
    slot_v: np.ndarray
    slot_contrast: np.ndarray
    trajectory: Trajectory
    snapshots: list[tuple[int, float, str]]
    converged: bool
    convergence_budget: int | None
    convergence_retained_mean: float | None
    channel: ChannelModel
    backend: str

    def to_dict(self) -> dict:
        return {
            "message": self.message,
            "decoded_message": self.decoded_message,
            "bits": [int(b) for b in self.bits],
            "decoded_bits": [int(b) for b in self.decoded_bits],
            "percent_correct": 100.0 * self.accuracy,
            "sift_retention": self.sift_retention,
            "total_pulses": self.total_pulses,
            "clamped_pulses": self.clamped_pulses,
            "slot_photons_h": [int(n) for n in self.slot_h],
            "slot_photons_v": [int(n) for n in self.slot_v],
            "slot_contrast": [float(p) for p in self.slot_contrast],
            "convergence": {
                "converged": self.converged,
                "budget_photons_per_bit": self.convergence_budget,
                "retained_mean_photons_per_bit": self.convergence_retained_mean,
            },
            "trajectory": self.trajectory.curve_rows(),
            "snapshots": [
                {"budget": b, "retained_mean": r, "decoded": text}
                for b, r, text in self.snapshots
            ],
            "channel": {
                "energy": self.channel.energy,
                "decode_basis": self.channel.decode_basis,
                "cal_p1": self.channel.cal_p1,
                "cal_p0": self.channel.cal_p0,
                "gap": self.channel.gap,
                "orientation": self.channel.orientation,
                "fixed_threshold": self.channel.fixed_threshold,
            },
            "backend": self.backend,
        }


def run_session(config: SessionConfig, channel: ChannelModel | None = None) -> SessionReport:
    """Run a full session and trace how decoding sharpens with photon budget.

    Pulses are drawn, sifted and tallied in blocks of whole slots, so memory
    grows with the block and the sifted events, not with the pulse count.
    The generator is positional, so the block size never changes a result.
    """
    bits = encode_message(config.message)
    if bits.size == 0:
        raise ParameterError("message is empty, nothing to transmit")
    if channel is None:
        channel = ChannelModel.from_config(config)
    n_slots = bits.size
    cycles = config.cycles
    total_pulses = n_slots * cycles
    block_slots = max(1, BLOCK_PULSES // cycles)

    slot_h = np.zeros(n_slots, dtype=np.int64)
    slot_v = np.zeros(n_slots, dtype=np.int64)
    kept = clamped_kept = 0
    events = []
    for first in range(0, n_slots, block_slots):
        last = min(first + block_slots, n_slots)
        n_h, n_v, alice, basis, clamped = _draw_batch(
            config, channel, first * cycles, (last - first) * cycles
        )
        slot = np.repeat(np.arange(first, last), cycles)
        mask = sift_mask(alice, basis, bits[slot], channel.decode_basis)
        kept += int(np.count_nonzero(mask))
        clamped_kept += int(np.count_nonzero(clamped & mask))
        slot_h[first:last] = np.where(mask, n_h, 0).reshape(-1, cycles).sum(axis=1)
        slot_v[first:last] = np.where(mask, n_v, 0).reshape(-1, cycles).sum(axis=1)
        # Events are the sifted pulses that produced at least one photon; the
        # all-photons count runs over every pulse of the slot, kept or not.
        totals = n_h + n_v
        c_all = np.cumsum(totals.reshape(-1, cycles), axis=1).ravel()
        ev = mask & (totals > 0)
        events.append((slot[ev], n_h[ev], n_v[ev], c_all[ev]))
    ev_slot, ev_h, ev_v, ev_all = (np.concatenate(parts) for parts in zip(*events))

    slot_total = slot_h + slot_v
    with np.errstate(invalid="ignore"):
        slot_contrast = np.where(slot_total > 0, (slot_h - slot_v) / np.maximum(slot_total, 1), np.nan)
    decoded = decode_bits(slot_contrast, channel, config.threshold_mode)
    accuracy = float(np.mean(decoded == bits))

    trajectory = _build_trajectory(ev_slot, ev_h, ev_v, ev_all, n_slots, bits,
                                   channel, config.threshold_mode)
    snapshots = _snapshots(trajectory)
    converged, budget, retained = _convergence(trajectory)

    return SessionReport(
        message=config.message,
        decoded_message=decode_to_text(decoded),
        bits=bits,
        decoded_bits=decoded,
        accuracy=accuracy,
        sift_retention=kept / total_pulses,
        total_pulses=total_pulses,
        clamped_pulses=clamped_kept,
        slot_h=slot_h,
        slot_v=slot_v,
        slot_contrast=slot_contrast,
        trajectory=trajectory,
        snapshots=snapshots,
        converged=converged,
        convergence_budget=budget,
        convergence_retained_mean=retained,
        channel=channel,
        backend=BACKEND,
    )


def _slot_cumsum(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running sum of values restarting at each slot's first event."""
    run = np.cumsum(values)
    return run - (run - values)[first]


def _build_trajectory(ev_slot, ev_h, ev_v, ev_all, n_slots, bits, channel,
                      threshold_mode) -> Trajectory:
    """Forward-fill per-slot cumulative counts over a photon budget axis.

    The event arrays hold, in pulse order, the slot, the two port counts and
    the slot's all-photon running count of every sifted pulse that produced
    a photon.  Each event is scattered at the budget row equal to its slot's
    retained running total; a running maximum down the budget axis then
    carries the latest event within budget to every row below the next one.
    """
    first = np.searchsorted(ev_slot, ev_slot)
    ch = _slot_cumsum(ev_h, first)
    cv = _slot_cumsum(ev_v, first)
    ct = ch + cv
    r_max = int(ct.max()) if ct.size else 0
    budgets = np.arange(r_max + 1)
    idx = np.full((r_max + 1, n_slots), -1, dtype=np.int64)
    idx[ct, ev_slot] = np.arange(ct.size)
    np.maximum.accumulate(idx, axis=0, out=idx)

    # A trailing zero makes index -1 (no event yet) read as zero counts.
    def fill(cum):
        return np.append(cum, 0).astype(np.float64)[idx]

    h_mat = fill(ch)
    v_mat = fill(cv)
    a_mat = fill(ev_all)
    t_mat = h_mat + v_mat
    with np.errstate(invalid="ignore"):
        p_mat = np.where(t_mat > 0, (h_mat - v_mat) / np.maximum(t_mat, 1), np.nan)
    decoded, used_midpoint = decode_matrix(p_mat, channel, threshold_mode)
    correct = decoded == bits[None, :]
    accuracy = correct.mean(axis=1)
    undecided = (decoded < 0).sum(axis=1)
    return Trajectory(budgets, t_mat.mean(axis=1), a_mat.mean(axis=1), accuracy,
                      undecided, used_midpoint, t_mat.astype(np.int64), p_mat, decoded)


def _snapshots(traj: Trajectory) -> list[tuple[int, float, str]]:
    """Decoded text at milestone budgets, always including the final state."""
    if traj.budget.size == 0:
        return []
    last = int(traj.budget[-1])
    marks = sorted({b for b in SNAPSHOT_BUDGETS if b <= last} | {last})
    return [
        (b, float(traj.retained_mean[b]), decode_to_text(traj.slot_estimate[b]))
        for b in marks
    ]


def _convergence(traj: Trajectory) -> tuple[bool, int | None, float | None]:
    """Smallest budget from which decoding stays perfect to the end."""
    perfect = traj.accuracy >= 1.0
    if traj.budget.size == 0 or not perfect[-1]:
        return False, None, None
    stays = np.minimum.accumulate(perfect[::-1])[::-1]
    idx = int(np.argmax(stays))
    return True, int(traj.budget[idx]), float(traj.retained_mean[idx])
