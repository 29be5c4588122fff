"""Seeded synthetic consumption traces for the benchmark workloads.

A workload definition (see workloads.json) fixes the consumer count, the
slot grid, the reading style and the share of missing readings; the seed
fixes everything else. The same definition and seed always give the same
CSV bytes. Energies are drawn from a heavy-tailed distribution so that
slot cells reach every tier of the scaled KEPCO schedule.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from typing import Optional

PERIOD_START = datetime(2025, 1, 1, tzinfo=timezone.utc)
PERIOD_START_TEXT = "2025-01-01T00:00:00Z"


@dataclass(frozen=True)
class Reading:
    """One trace row, with times as whole seconds from the period start."""

    consumer: str
    start_s: int
    end_s: Optional[int]
    energy: str


@dataclass(frozen=True)
class Shift:
    consumer: str
    from_slot: int
    to_slot: int
    amount: str


@dataclass(frozen=True)
class Trace:
    consumers: tuple[str, ...]
    slot_seconds: int
    slots: int
    readings: tuple[Reading, ...]
    csv_bytes: bytes
    shift: Optional[Shift]

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv_bytes).hexdigest()


def _stamp(offset_s: int) -> str:
    return (PERIOD_START + timedelta(seconds=offset_s)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _kwh(rng: random.Random, scale: float) -> str:
    # Three decimals keep every value an exact terminating decimal.
    return f"{max(0.001, scale * rng.lognormvariate(-0.2, 0.9)):.3f}"


def generate(name: str, defn: dict, seed: int, consumers: Optional[int] = None) -> Trace:
    """Build the trace for workload *name*; *consumers* overrides the size."""
    rng = random.Random(f"{name}/{seed}")
    count = consumers if consumers is not None else defn["consumers"]
    ids = tuple(f"c{index:04d}" for index in range(1, count + 1))
    slot_seconds = defn["slot_hours"] * 3600
    period_seconds = defn["period_days"] * 86400
    slots = period_seconds // slot_seconds
    missing = defn["missing_share"]
    readings = []
    for consumer in ids:
        scale = rng.lognormvariate(0.0, 0.6)
        if defn["readings"] == "point":
            for slot in range(slots):
                if rng.random() < missing:
                    continue
                start = slot * slot_seconds + rng.randrange(slot_seconds // 60) * 60
                readings.append(Reading(consumer, start, None, _kwh(rng, scale)))
        else:
            length = defn["interval_minutes"] * 60
            start = rng.randrange(defn["interval_minutes"]) * 60
            share = length / slot_seconds
            while start + length <= period_seconds:
                energy = _kwh(rng, scale * share)
                if rng.random() >= missing:
                    readings.append(Reading(consumer, start, start + length, energy))
                start += length
    shift = _choose_shift(rng, defn, ids, slots, slot_seconds, readings)

    has_end = defn["readings"] != "point"
    lines = ["consumer_id,interval_start,energy_kwh" + (",interval_end" if has_end else "")]
    for reading in readings:
        line = f"{reading.consumer},{_stamp(reading.start_s)},{reading.energy}"
        if has_end:
            line += f",{_stamp(reading.end_s)}"
        lines.append(line)
    return Trace(
        consumers=ids,
        slot_seconds=slot_seconds,
        slots=slots,
        readings=tuple(readings),
        csv_bytes=("\n".join(lines) + "\n").encode("ascii"),
        shift=shift,
    )


def _choose_shift(rng, defn, ids, slots, slot_seconds, readings) -> Optional[Shift]:
    """Move a seeded share of one consumer's peak cell into the quietest slot."""
    if "shift" not in defn:
        return None
    if defn["readings"] != "point":
        raise ValueError("shift workloads use point readings")
    consumer = rng.choice(ids)
    own = [Fraction(0)] * slots
    loads = [Fraction(0)] * slots
    for reading in readings:
        slot = reading.start_s // slot_seconds
        loads[slot] += Fraction(reading.energy)
        if reading.consumer == consumer:
            own[slot] += Fraction(reading.energy)
    from_slot = max(range(slots), key=lambda slot: (own[slot], -slot))
    to_slot = min(
        (slot for slot in range(slots) if slot != from_slot),
        key=lambda slot: (loads[slot], slot),
    )
    low, high = defn["shift"]["share_of_cell"]
    share = Fraction(round(rng.uniform(low, high) * 1000), 1000)
    # Floor to whole Wh so the amount never exceeds what the cell holds.
    wh = int(own[from_slot] * share * 1000)
    return Shift(consumer, from_slot, to_slot, f"{wh // 1000}.{wh % 1000:03d}")
