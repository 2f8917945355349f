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
import numbers
from dataclasses import dataclass, field

import numpy as np

# pulse_randoms stays a name of this module: perfbench's tracer tests wrap it here.
from ._kernels import BACKEND, CHUNK_PULSES, STREAM_SESSION, pulse_randoms  # noqa: F401
from .errors import DegenerateInputError, MessageEncodingError, ParameterError
from .optics import SETTINGS, THETA_SPLIT, polarization_contrast, setting_intensities
from .photons import AttenuationConfig, draw_photon_counts
from .spectral import ModelParams, field_arrays, wavelength_to_energy

BITS_PER_CHAR = 7

THRESHOLD_MODES = ("running-mean", "fixed")

# Snapshot milestones on the photons-per-bit axis, roughly logarithmic.
SNAPSHOT_BUDGETS = (1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300, 500, 1000)

# Pulses drawn per block in run_session and detector-check: one Philox pass.
# A block may start and end inside a slot.
BLOCK_PULSES = CHUNK_PULSES

# Budget x slot cells built and decoded at once by _build_trajectory and
# Trajectory.change_rows, rounded down to whole rows or slots, never below one.
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
        if not isinstance(self.cycles, numbers.Integral) or self.cycles < 1:
            raise ParameterError("cycles must be an integer of at least 1")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")
        if not math.isfinite(self.lambda_nm):
            raise ParameterError("lambda_nm must be finite")
        for name in ("delay_bit1", "delay_bit0"):
            if not getattr(self, name) >= 0:  # NaN fails, inf passes
                raise ParameterError(f"{name} must be a non-negative number")
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
        itable = np.concatenate([
            setting_intensities(*field_arrays(delay, [config.lambda_nm], config.params))
            for delay in (config.delay_bit0, config.delay_bit1)])
        cal_p0, cal_p1 = polarization_contrast(*itable[:, decode_basis].T).tolist()
        if cal_p1 == cal_p0:
            raise DegenerateInputError(
                "the two delays give identical contrast at the decoding basis"
            )
        return cls(energy, itable, decode_basis, cal_p1, cal_p0)


def _basis_index(theta: float) -> int:
    for idx, known in enumerate(SETTINGS):
        if abs(theta - known) < 1e-12:
            return idx
    raise ParameterError("decode_theta must be one of the two sifted settings (0 or pi/4)")


def decode_matrix(p_cum: np.ndarray, channel: ChannelModel,
                  threshold_mode: str = "running-mean") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode rows of slot contrasts into bits (1, 0, or -1 for undecided).

    Rows are independent decode attempts, columns are slots, NaN marks a
    slot that has not seen a photon.  In running-mean mode the threshold is
    the mean contrast of the decided slots in that row; when their spread is
    below half the calibrated gap the row falls back to the calibrated
    midpoint, since a tight cluster gives no internal evidence of where the
    boundary sits.  A contrast exactly on the threshold stays undecided.

    Returns the bits and, per row, the threshold and whether it is the
    calibrated midpoint (always so in fixed mode).
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ParameterError(f"threshold_mode must be one of {THRESHOLD_MODES}")
    p = np.atleast_2d(np.asarray(p_cum, dtype=np.float64))
    if threshold_mode == "fixed":
        threshold = np.full(p.shape[0], channel.fixed_threshold)
        midpoint = np.ones(p.shape[0], dtype=bool)
    else:
        decided = np.isfinite(p)
        n_dec = decided.sum(axis=1)
        mean = np.where(decided, p, 0.0).sum(axis=1) / np.maximum(n_dec, 1)
        p_max = np.where(decided, p, -np.inf).max(axis=1)
        p_min = np.where(decided, p, np.inf).min(axis=1)
        spread = np.where(n_dec > 0, p_max - p_min, 0.0)
        midpoint = spread < 0.5 * abs(channel.gap)
        threshold = np.where(midpoint, channel.fixed_threshold, mean)
    return _compare(p, threshold[:, None], channel.orientation), threshold, midpoint


def _compare(p: np.ndarray, threshold, orientation: float) -> np.ndarray:
    """Bits of contrasts p against a threshold broadcast to them: 1 or 0 by
    the oriented side, -1 on the threshold or where p is not finite."""
    score = orientation * (p - threshold)
    bits = np.where(score > 0, 1, np.where(score < 0, 0, -1)).astype(np.int64)
    bits[~np.isfinite(p)] = -1
    return bits


@dataclass(frozen=True)
class Trajectory:
    """Decode evolution as the per-slot photon budget grows.

    budget is the cap on retained photons per slot; retained photon counts
    never exceed it but can sit below, because pulses are kept whole and a
    pulse that would cross the cap is dropped.  all_photons_mean counts every
    detected photon in the slot's pulse train up to the same point, sifted or
    not, since it is ambiguous which of the two a photons-per-bit axis should
    count.  used_midpoint says, per budget value, whether the decoder used
    the calibrated midpoint rather than the running mean as its threshold,
    and threshold is the value it compared against.  snapshot_estimate holds
    the decoded bits at each snapshot_budget, one row per milestone.

    events holds what change_rows reads: where each slot's events start (one
    offset per slot, then the event count) and the retained H and V running
    totals at each event.  orientation is the channel's, which side of the
    threshold reads as 1.
    """

    budget: np.ndarray
    retained_mean: np.ndarray
    all_photons_mean: np.ndarray
    accuracy: np.ndarray
    undecided: np.ndarray
    used_midpoint: np.ndarray
    threshold: np.ndarray
    snapshot_budget: np.ndarray
    snapshot_estimate: np.ndarray
    orientation: float = field(compare=False)
    events: tuple = field(repr=False, compare=False)

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

    def change_rows(self):
        """Yield the per-slot decode history as blocks of (slot, budget,
        photons, contrast, estimate) columns.

        A slot has a row at budget 0 and at every budget where its retained
        photons, pooled contrast (NaN before its first photon) or decoded
        estimate differs from the budget before; rows run by slot, then
        budget.  A slot's photons and contrast change exactly at its events,
        and its estimate depends only on its own contrast and the budget's
        threshold, so each block of max(1, TRAJECTORY_CHUNK_CELLS // budget
        rows) slots is filled by _window over every budget row and decided
        against the stored thresholds, the same compare as the budget pass.
        """
        start, ev_h, ev_v = self.events
        n_rows = self.budget.size
        n_block = max(1, TRAJECTORY_CHUNK_CELLS // n_rows)
        for a in range(0, start.size - 1, n_block):
            b = min(a + n_block, start.size - 1)
            first = start[a:b]
            idx = _window(ev_h, ev_v, first, start[a + 1:b + 1], 0, n_rows)
            _, photons, p = _cells(idx, first, ev_h, ev_v)
            estimate = _compare(p, self.threshold[:, None], self.orientation)
            changed = np.empty(idx.shape, dtype=bool)
            changed[0] = True
            np.not_equal(idx[1:], idx[:-1], out=changed[1:])
            changed[1:] |= estimate[1:] != estimate[:-1]
            slot, budget = np.nonzero(changed.T)
            yield ((slot + a).astype(np.int32), budget, photons[budget, slot],
                   p[budget, slot], estimate[budget, slot].astype(np.int8))


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

    Pulses are drawn, sifted and tallied in blocks of BLOCK_PULSES, so
    memory grows with the block and the sifted events, not with the pulse
    count.  The generator is positional and each slot's running totals carry
    across blocks, so the block size never changes a result.
    """
    bits = encode_message(config.message)
    if bits.size == 0:
        raise ParameterError("message is empty, nothing to transmit")
    if channel is None:
        channel = ChannelModel.from_config(config)
    n_slots = bits.size
    cycles = config.cycles
    total_pulses = n_slots * cycles
    # The I_H and I_V tables of the settings 2 * bit + basis, and each slot's kept setting.
    ports = channel.itable.reshape(4, 2).T
    sifted = (2 * bits + channel.decode_basis).astype(np.uint8)
    count_dtype = _count_dtype(config)

    # Per slot: retained H and V photons, every photon, and events, so far.
    slot_h, slot_v, slot_all, slot_events = np.zeros((4, n_slots), dtype=np.int64)
    kept = clamped_kept = 0
    parts = ([], [], [])
    for start in range(0, total_pulses, BLOCK_PULSES):
        count = min(BLOCK_PULSES, total_pulses - start)
        block_kept, block_clamped, block_events = _sift_block(
            config, ports, sifted, start, count, (slot_h, slot_v, slot_all, slot_events),
            count_dtype)
        kept += block_kept
        clamped_kept += block_clamped
        for field_parts, part in zip(parts, block_events):
            field_parts.append(part)
    del block_events

    slot_total = slot_h + slot_v
    with np.errstate(invalid="ignore"):
        slot_contrast = np.where(slot_total > 0, (slot_h - slot_v) / np.maximum(slot_total, 1), np.nan)

    start = np.concatenate(([0], np.cumsum(slot_events)))
    # Fields join one at a time, each freeing its parts before the next joins.
    trajectory = _build_trajectory(*map(_join, parts), start, bits, channel,
                                   config.threshold_mode)
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


def _sift_block(config, ports, sifted, start, count, totals, count_dtype):
    """Draw and sift pulses [start, start + count), which may start and end
    inside a slot.  A pulse is kept when its setting is sifted[slot], the
    slot's bit on the decoding basis.

    totals are the per-slot retained H, retained V, all-photon and event
    counts so far; the block adds its pulses to them.  Returns the block's
    kept and clamped-kept pulse counts and its event arrays (the slot's
    running H, V and all-photon counts).  The pulse arrays are locals here,
    so none of them outlives the block.
    """
    cycles = config.cycles
    n_h, n_v, setting, clamped = draw_photon_counts(*ports, config.attenuation, config.seed,
                                                    STREAM_SESSION, start, count)
    first, last = start // cycles, (start + count - 1) // cycles + 1
    # Block slot j holds the block's pulses edges[j] to edges[j + 1] - 1.
    edges = np.clip(np.arange(first, last + 1) * cycles - start, 0, count)
    mask = setting == np.repeat(sifted[first:last], np.diff(edges))
    # Events are the sifted pulses that produced at least one photon; the
    # all-photons count runs over every pulse of the slot, kept or not.
    photons = n_h + n_v
    ev = np.flatnonzero(mask & (photons > 0))
    ev_edges = np.searchsorted(ev, edges)
    per_slot = np.diff(ev_edges)
    slot_h, slot_v, slot_all, slot_events = (t[first:last] for t in totals)
    slot_events += per_slot
    events = (_running(n_h[ev], ev_edges, slice(None), per_slot, slot_h).astype(count_dtype),
              _running(n_v[ev], ev_edges, slice(None), per_slot, slot_v).astype(count_dtype),
              _running(photons, edges, ev, per_slot, slot_all).astype(count_dtype))
    return int(np.count_nonzero(mask)), int(np.count_nonzero(clamped & mask)), events


def _running(values, edges, at, per_slot, total):
    """Running sums of values within each block slot at positions at, each
    continuing from the slot's total so far; adds the block to total.

    values[edges[j]:edges[j + 1]] belong to block slot j, which has
    per_slot[j] of the positions at.
    """
    run = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=run[1:])
    base = run[edges[:-1]]
    out = run[1:][at] + np.repeat(total - base, per_slot)
    total += run[edges[1:]] - base
    return out


def _count_dtype(config: SessionConfig) -> np.dtype:
    """Smallest signed integer type that holds a session's per-slot photon
    counts.

    Each port is clamped at max_photons per pulse, so no running count of a
    slot can exceed 2 * max_photons * cycles.
    """
    bound = 2 * config.attenuation.max_photons * config.cycles
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _build_trajectory(ev_ch, ev_cv, ev_all, start, bits, channel, threshold_mode) -> Trajectory:
    """Decode along the photon budget axis, a chunk of budget rows at a time.

    The event arrays hold, in pulse order, the slot's retained H and V
    running totals and its all-photon running count at every sifted pulse
    that produced a photon; slot s owns events start[s] to start[s + 1] - 1.
    Row r of the budget x slot state points each slot at its last event with
    retained total <= r; _window builds it a chunk of rows at a time, each
    chunk reading every slot from the first event the chunk before did not
    reach.  Rows decode independently, so decode_matrix on one chunk after
    another gives the same bits as on the whole matrix.

    Only the per-budget curves and thresholds, the snapshot rows and the
    retained H and V totals of the events are kept; Trajectory.change_rows
    rebuilds the per-slot history from them when it is asked for.
    """
    n_slots = bits.size
    first, end = start[:-1], start[1:]
    # A slot's retained total grows from event to event, so its last is its largest.
    last = end[end > first] - 1
    n_rows = (int((ev_ch[last].astype(np.intp) + ev_cv[last]).max()) if last.size else 0) + 1
    budgets = np.arange(n_rows)
    rows_per_chunk = max(1, TRAJECTORY_CHUNK_CELLS // n_slots)
    marks = np.array(sorted({b for b in SNAPSHOT_BUDGETS if b < n_rows} | {n_rows - 1}))

    retained = np.empty(n_rows)
    all_photons = np.empty(n_rows)
    accuracy = np.empty(n_rows)
    undecided = np.empty(n_rows, dtype=np.int64)
    used_midpoint = np.empty(n_rows, dtype=bool)
    threshold = np.empty(n_rows)
    snapshot_estimate = np.empty((marks.size, n_slots), dtype=np.int8)
    cursor = first

    for lo in range(0, n_rows, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_rows)
        idx = _window(ev_ch, ev_cv, cursor, end, lo, hi)
        seen, photons, p = _cells(idx, first, ev_ch, ev_cv)
        decoded, threshold[lo:hi], used_midpoint[lo:hi] = decode_matrix(p, channel, threshold_mode)
        all_seen = np.zeros(idx.shape, dtype=ev_all.dtype)
        all_seen[seen] = ev_all[idx[seen]]

        retained[lo:hi] = photons.mean(axis=1)
        all_photons[lo:hi] = all_seen.mean(axis=1)
        accuracy[lo:hi] = (decoded == bits[None, :]).mean(axis=1)
        undecided[lo:hi] = (decoded < 0).sum(axis=1)
        in_chunk = (marks >= lo) & (marks < hi)
        snapshot_estimate[in_chunk] = decoded[marks[in_chunk] - lo]
        cursor = idx[-1] + 1
    return Trajectory(
        budgets, retained, all_photons, accuracy, undecided, used_midpoint, threshold,
        snapshot_budget=marks,
        snapshot_estimate=snapshot_estimate,
        orientation=channel.orientation,
        events=(start, ev_ch, ev_cv),
    )


def _join(parts: list) -> np.ndarray:
    """Concatenate a list of arrays and empty it, so the parts can go."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _cells(idx, first, ev_h, ev_v):
    """Each cell of a _window index matrix: whether its slot has reached
    its first event (first[s]), its retained photons in the count dtype (0
    before that) and its pooled contrast (NaN there).  An event always adds
    a retained photon, so a seen cell's total is never 0."""
    seen = idx >= first
    hit = idx[seen]
    h, v = ev_h[hit], ev_v[hit]
    photons = np.zeros(idx.shape, dtype=ev_h.dtype)
    photons[seen] = total = h + v
    p = np.full(idx.shape, np.nan)
    p[seen] = (h - v) / total
    return seen, photons, p


def _window(ev_h, ev_v, cursor, end, lo: int, hi: int) -> np.ndarray:
    """Budget rows [lo, hi) of the slots' event pointers: cell (r, s) is the
    index of slot s's last event with retained total <= lo + r, or
    cursor[s] - 1 where no event from cursor[s] on is that small.

    cursor is each slot's first event with retained total >= lo and end one
    past its last; ev_h and ev_v are the events' retained H and V totals.
    A slot's retained total strictly grows from event to event, so only its
    first hi - lo events from cursor on, the candidates, can fall in the
    band.  Each is scattered to the row of its total and carried down the
    rows with a running maximum, so the window is the size of the band.
    """
    n_rows = hi - lo
    count = np.minimum(end - cursor, n_rows)
    s = np.repeat(np.arange(cursor.size), count)
    ev = np.arange(s.size) + np.repeat(cursor - np.cumsum(count) + count, count)
    row = ev_h[ev].astype(np.intp) + ev_v[ev] - lo
    inside = row < n_rows
    idx = np.tile(cursor - 1, (n_rows, 1))
    np.put(idx, row[inside] * cursor.size + s[inside], ev[inside])
    np.maximum.accumulate(idx, axis=0, out=idx)
    return idx


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
    if not perfect[-1]:
        return False, None, None
    stays = np.minimum.accumulate(perfect[::-1])[::-1]
    idx = int(np.argmax(stays))
    return True, int(traj.budget[idx]), float(traj.retained_mean[idx])
