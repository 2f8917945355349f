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

# Budget x slot cells built and decoded at once by _build_trajectory, rounded
# down to whole budget rows and never less than one row.
TRAJECTORY_CHUNK_CELLS = 1 << 16


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
    groups = bits.reshape(-1, BITS_PER_CHAR)
    codes = groups @ (1 << np.arange(BITS_PER_CHAR - 1, -1, -1))
    codes[(groups < 0).any(axis=1)] = ord("?")
    return "".join(map(chr, codes.tolist()))


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


def _draw_batch(config: SessionConfig, channel: ChannelModel, start: int, count: int):
    """Counts and settings for pulses [start, start + count).

    The per-pulse uniforms, Alice's bit and Bob's basis all come from the
    same generator block, so the result depends only on the absolute pulse
    index.
    """
    u_gain, u_h, u_v, alice, basis = pulse_randoms(config.seed, STREAM_SESSION, start, count)
    _, n_h, n_v, clamped = counts_from_uniforms(
        u_gain, u_h, u_v, channel.itable[alice, basis, 0], channel.itable[alice, basis, 1],
        config.attenuation,
    )
    return n_h, n_v, alice.astype(np.int64), basis.astype(np.int64), clamped


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

    The change_* columns hold one row per slot and budget value at which the
    slot's retained photons, pooled contrast (NaN before its first photon) or
    decoded estimate differs from the budget before; every slot has a row at
    budget 0.  Rows run by slot, then budget.  snapshot_estimate holds the
    decoded bits at each snapshot_budget, one row per milestone.
    """

    budget: np.ndarray
    retained_mean: np.ndarray
    all_photons_mean: np.ndarray
    accuracy: np.ndarray
    undecided: np.ndarray
    used_midpoint: np.ndarray
    change_slot: np.ndarray
    change_budget: np.ndarray
    change_photons: np.ndarray
    change_contrast: np.ndarray
    change_estimate: np.ndarray
    snapshot_budget: np.ndarray
    snapshot_estimate: np.ndarray

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
    count_dtype = _count_dtype(config)

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
        # Blocks hold whole slots, so each slot's running counts are taken
        # within its block.
        totals = n_h + n_v
        c_all = np.cumsum(totals.reshape(-1, cycles), axis=1).ravel()
        ev = mask & (totals > 0)
        ev_slot = slot[ev]
        first_event = np.searchsorted(ev_slot, ev_slot)
        events.append((ev_slot.astype(np.int32),
                       _slot_cumsum(n_h[ev], first_event).astype(count_dtype),
                       _slot_cumsum(n_v[ev], first_event).astype(count_dtype),
                       c_all[ev].astype(count_dtype)))
    ev_slot, ev_ch, ev_cv, ev_all = (np.concatenate(parts) for parts in zip(*events))
    del events

    slot_total = slot_h + slot_v
    with np.errstate(invalid="ignore"):
        slot_contrast = np.where(slot_total > 0, (slot_h - slot_v) / np.maximum(slot_total, 1), np.nan)

    trajectory = _build_trajectory(ev_slot, ev_ch, ev_cv, ev_all, n_slots, bits,
                                   channel, config.threshold_mode)
    snapshots = _snapshots(trajectory)
    converged, budget, retained = _convergence(trajectory)

    # The last budget row is the last snapshot mark and holds every slot's
    # full tally, so it is the decode of slot_contrast.
    return SessionReport(
        message=config.message,
        decoded_message=snapshots[-1][2],
        bits=bits,
        decoded_bits=trajectory.snapshot_estimate[-1].astype(np.int64),
        accuracy=float(trajectory.accuracy[-1]),
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


def _count_dtype(config: SessionConfig) -> np.dtype:
    """Integer type of a session's per-slot photon counts.

    Each port is clamped at max_photons per pulse, so no running count of a
    slot can exceed 2 * max_photons * cycles.
    """
    bound = 2 * config.attenuation.max_photons * config.cycles
    return np.dtype(np.int32 if bound < 2**31 else np.int64)


def _filled(values: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Float matrix holding values where seen is set and zero elsewhere."""
    out = np.zeros(seen.shape)
    out[seen] = values
    return out


def _build_trajectory(ev_slot, ev_ch, ev_cv, ev_all, n_slots, bits, channel,
                      threshold_mode) -> Trajectory:
    """Decode along the photon budget axis, a chunk of budget rows at a time.

    The event arrays hold, in pulse order and so grouped by slot, the slot,
    the slot's retained H and V running totals and its all-photon running
    count at every sifted pulse that produced a photon.  Row r of the
    budget x slot state points each slot at its last event with retained
    total ct <= r.  A chunk starts from the previous chunk's last row,
    scatters the events whose ct falls inside it at row ct and carries them
    down with a running maximum; this is exact because ct strictly
    increases within a slot.  Rows decode independently, so decoding chunk
    by chunk gives the same bits as decoding the whole matrix.

    Only the per-budget curves, the snapshot rows and the state-change rows
    are kept.  A slot's photons and contrast change exactly at its events,
    so the change rows are the event rows plus the estimate flips that come
    without a photon (among them every slot's row at budget 0); each flip is
    inserted among the events at its place in (slot, budget) order.
    """
    ct = ev_ch + ev_cv
    n_rows = (int(ct.max()) if ct.size else 0) + 1
    budgets = np.arange(n_rows)
    rows_per_chunk = max(1, TRAJECTORY_CHUNK_CELLS // n_slots)
    # Events grouped by chunk, and where each chunk's events start.
    chunk_of = ct // rows_per_chunk
    order = np.argsort(chunk_of, kind="stable")
    n_chunks = -(-n_rows // rows_per_chunk)
    chunk_start = np.concatenate(([0], np.cumsum(np.bincount(chunk_of, minlength=n_chunks))))
    del chunk_of
    slot_start = np.searchsorted(ev_slot, np.arange(n_slots))
    marks = np.array(sorted({b for b in SNAPSHOT_BUDGETS if b < n_rows} | {n_rows - 1}))

    retained = np.empty(n_rows)
    all_photons = np.empty(n_rows)
    accuracy = np.empty(n_rows)
    undecided = np.empty(n_rows, dtype=np.int64)
    used_midpoint = np.empty(n_rows, dtype=bool)
    snapshot_estimate = np.empty((marks.size, n_slots), dtype=np.int8)
    ev_contrast = np.empty(ct.size)
    ev_estimate = np.empty(ct.size, dtype=np.int8)
    flips = []
    last_idx = np.full(n_slots, -1, dtype=np.intp)
    # No estimate equals -2, so every slot's budget-0 row counts as a change.
    last_est = np.full(n_slots, -2, dtype=np.int64)

    for k in range(n_chunks):
        lo, hi = k * rows_per_chunk, min((k + 1) * rows_per_chunk, n_rows)
        ev = order[chunk_start[k]:chunk_start[k + 1]]
        # Flat index of each event's cell in the chunk.
        cell = (ct[ev] - lo) * n_slots + ev_slot[ev]
        idx = np.full((hi - lo, n_slots), -1, dtype=np.intp)
        idx[0] = last_idx
        np.put(idx, cell, ev)
        np.maximum.accumulate(idx, axis=0, out=idx)
        seen = idx >= 0
        hit = idx[seen]
        h_mat = _filled(ev_ch[hit], seen)
        v_mat = _filled(ev_cv[hit], seen)
        t_mat = h_mat + v_mat
        with np.errstate(invalid="ignore"):
            p_mat = np.where(t_mat > 0, (h_mat - v_mat) / np.maximum(t_mat, 1), np.nan)
        decoded, used_midpoint[lo:hi] = decode_matrix(p_mat, channel, threshold_mode)

        retained[lo:hi] = t_mat.mean(axis=1)
        all_photons[lo:hi] = _filled(ev_all[hit], seen).mean(axis=1)
        accuracy[lo:hi] = (decoded == bits[None, :]).mean(axis=1)
        undecided[lo:hi] = (decoded < 0).sum(axis=1)
        in_chunk = (marks >= lo) & (marks < hi)
        snapshot_estimate[in_chunk] = decoded[marks[in_chunk] - lo]

        ev_contrast[ev] = np.take(p_mat, cell)
        ev_estimate[ev] = np.take(decoded, cell)
        flip = np.empty(decoded.shape, dtype=bool)
        np.not_equal(decoded[0], last_est, out=flip[0])
        np.not_equal(decoded[1:], decoded[:-1], out=flip[1:])
        np.put(flip, cell, False)
        row, col = np.nonzero(flip)
        # Events of the slot up to this row come before the flip.
        before = np.maximum(idx[row, col] + 1, slot_start[col])
        flips.append((col, row + lo, t_mat[row, col], p_mat[row, col], decoded[row, col], before))
        last_idx, last_est = idx[-1], decoded[-1]
    del order

    f_slot, f_budget, f_photons, f_contrast, f_estimate, f_before = (
        np.concatenate(parts) for parts in zip(*flips))
    # Each flip goes in before event f_before, the slot's first past its row;
    # np.insert keeps flips at one position in their (slot, budget) order.
    by_slot = np.lexsort((f_budget, f_slot))

    def merged(ev_values, flip_values):
        return np.insert(ev_values, f_before[by_slot], flip_values[by_slot])

    return Trajectory(
        budgets, retained, all_photons, accuracy, undecided, used_midpoint,
        change_slot=merged(ev_slot.astype(np.int32, copy=False), f_slot),
        change_budget=merged(ct, f_budget),
        change_photons=merged(ct, f_photons),
        change_contrast=merged(ev_contrast, f_contrast),
        change_estimate=merged(ev_estimate, f_estimate),
        snapshot_budget=marks,
        snapshot_estimate=snapshot_estimate,
    )


def _snapshots(traj: Trajectory) -> list[tuple[int, float, str]]:
    """Decoded text at milestone budgets, always including the final state."""
    n_chars = traj.snapshot_estimate.shape[1] // BITS_PER_CHAR
    text = decode_to_text(traj.snapshot_estimate.ravel())
    return [
        (b, float(traj.retained_mean[b]), text[k * n_chars:(k + 1) * n_chars])
        for k, b in enumerate(traj.snapshot_budget.tolist())
    ]


def _convergence(traj: Trajectory) -> tuple[bool, int | None, float | None]:
    """Smallest budget from which decoding stays perfect to the end."""
    perfect = traj.accuracy >= 1.0
    if traj.budget.size == 0 or not perfect[-1]:
        return False, None, None
    stays = np.minimum.accumulate(perfect[::-1])[::-1]
    idx = int(np.argmax(stays))
    return True, int(traj.budget[idx]), float(traj.retained_mean[idx])
