"""Independent checks of the CLI's output.

Nothing here imports progtariff: prices, the interval split and the
rounding are recomputed from the generator's own readings with a
straight tier walk, so a defect shared by the engine and its tests still
shows. Each check function returns a list of problems (empty when the
output is right) and a dict of observations such as the billed-level
inversion count.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Optional

from tracegen import Trace

Tiers = list[tuple[Optional[Fraction], Fraction]]


def load_tiers(path) -> tuple[Tiers, Fraction]:
    """Tiers and base period (days) of a schedule JSON file."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle, parse_float=str)
    tiers = [
        (None if tier["upper_kwh"] is None else Fraction(tier["upper_kwh"]), Fraction(tier["rate"]))
        for tier in raw["tiers"]
    ]
    return tiers, Fraction(raw.get("base_period_days", 30))


def scaled(tiers: Tiers, factor: Fraction) -> Tiers:
    return [(None if upper is None else upper * factor, rate) for upper, rate in tiers]


def price(tiers: Tiers, usage: Fraction) -> Fraction:
    total = Fraction(0)
    lower = Fraction(0)
    for upper, rate in tiers:
        if usage <= lower:
            break
        top = usage if upper is None else min(usage, upper)
        total += (top - lower) * rate
        if upper is None:
            break
        lower = upper
    return total


def cents(value: Fraction) -> Fraction:
    """Half-up rounding to minor units (negatives mirror positives)."""
    if value < 0:
        return -cents(-value)
    return Fraction(math.floor(value * 100 + Fraction(1, 2)), 100)


def fixed(value: Fraction, places: int) -> str:
    quantum = 10**places
    units = math.floor(abs(value) * quantum + Fraction(1, 2))
    sign = "-" if value < 0 and units else ""
    whole, frac = divmod(units, quantum)
    return f"{sign}{whole}.{frac:0{places}d}"


def cells(trace: Trace) -> dict[str, list[Fraction]]:
    """Per-consumer slot energies, splitting intervals by time overlap."""
    rows = {consumer: [Fraction(0)] * trace.slots for consumer in trace.consumers}
    width = trace.slot_seconds
    for reading in trace.readings:
        energy = Fraction(reading.energy)
        row = rows[reading.consumer]
        if reading.end_s is None:
            row[reading.start_s // width] += energy
            continue
        span = reading.end_s - reading.start_s
        for slot in range(reading.start_s // width, (reading.end_s - 1) // width + 1):
            overlap = min(reading.end_s, (slot + 1) * width) - max(reading.start_s, slot * width)
            row[slot] += energy * overlap / span
    return rows


def observed_cells(trace: Trace) -> int:
    seen = set()
    width = trace.slot_seconds
    for reading in trace.readings:
        last = reading.start_s if reading.end_s is None else reading.end_s - 1
        for slot in range(reading.start_s // width, last // width + 1):
            seen.add((reading.consumer, slot))
    return len(seen)


class Expected:
    """Reference figures for one trace under one schedule."""

    def __init__(self, trace: Trace, tiers: Tiers, base_days: Fraction, slot_hours: int):
        self.trace = trace
        factor = Fraction(slot_hours) / (24 * base_days)
        self.slot_tiers = scaled(tiers, factor)
        self.group_tiers = scaled(self.slot_tiers, len(trace.consumers))
        self.rows = cells(trace)
        self.monthly = {c: price(tiers, sum(row)) for c, row in self.rows.items()}
        self.slot_prices = {c: [price(self.slot_tiers, u) for u in row] for c, row in self.rows.items()}
        self.slotted = {c: sum(prices) for c, prices in self.slot_prices.items()}

    def loads(self, rows=None) -> list[Fraction]:
        rows = rows or self.rows
        return [sum(row[slot] for row in rows.values()) for slot in range(self.trace.slots)]

    def par(self, rows=None) -> Optional[Fraction]:
        loads = self.loads(rows)
        mean = sum(loads) / len(loads)
        return None if mean == 0 else max(loads) / mean


def _places(display: str) -> int:
    return len(display.split(".")[1]) if "." in display else 0


def _pairs(node, path, problems):
    """Every exact field parses and agrees with its display field."""
    if isinstance(node, dict):
        # A scheme aggregate bills the sum of rounded totals, so only a
        # consumer total pairs "billed" with the rounding of "exact".
        for shown in ("display", "billed") if path.endswith(".total") else ("display",):
            if shown in node and "exact" in node:
                try:
                    value = Fraction(node["exact"])
                except (ValueError, ZeroDivisionError):
                    problems.append(f"{path}.exact does not parse: {node['exact']!r}")
                    continue
                if fixed(value, _places(node[shown])) != node[shown]:
                    problems.append(f"{path}: {shown} {node[shown]} != exact {node['exact']}")
        for key, value in node.items():
            exact_key = f"{key}_exact"
            if isinstance(value, list) and isinstance(node.get(exact_key), list):
                shown, exact = value, node[exact_key]
                if len(shown) != len(exact):
                    problems.append(f"{path}.{key}: length differs from {exact_key}")
                for index, (text, lossless) in enumerate(zip(shown, exact)):
                    if fixed(Fraction(lossless), _places(text)) != text:
                        problems.append(f"{path}.{key}[{index}]: {text} != {lossless}")
            _pairs(value, f"{path}.{key}", problems)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            _pairs(item, f"{path}[{index}]", problems)


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got}, expected {want}")


def check_compare_json(text: str, ref: Expected) -> tuple[list[str], dict]:
    problems: list[str] = []
    doc = json.loads(text)
    _pairs(doc, "$", problems)
    ids = list(ref.trace.consumers)
    _expect(problems, "consumers", [row["id"] for row in doc["consumers"]], ids)
    _expect(problems, "grid.slots", doc["grid"]["slots"], ref.trace.slots)
    inversions = 0
    sums = {"monthly": Fraction(0), "slotted_individual": Fraction(0), "slotted_group": Fraction(0)}
    for row in doc["consumers"]:
        c = row["id"]
        _expect(problems, f"{c} monthly", row["monthly"], fixed(ref.monthly[c], 2))
        _expect(problems, f"{c} slotted_individual", row["slotted_individual"], fixed(ref.slotted[c], 2))
        billed = {key: Fraction(row[key]) for key in sums}
        for key in sums:
            sums[key] += billed[key]
        _expect(problems, f"{c} slot_premium", Fraction(row["slot_premium"]), billed["slotted_individual"] - billed["monthly"])
        _expect(problems, f"{c} group_saving", Fraction(row["group_saving"]), billed["slotted_individual"] - billed["slotted_group"])
        inversions += billed["slotted_group"] > billed["slotted_individual"]
    for key, total in sums.items():
        _expect(problems, f"aggregate {key}", Fraction(doc["aggregate"][key]), total)

    schemes = doc["schemes"]
    for row in schemes["monthly-individual"]["consumers"]:
        _expect(problems, f"monthly {row['id']} exact", Fraction(row["total"]["exact"]), ref.monthly[row["id"]])
    for row in schemes["slotted-individual"]["consumers"]:
        c = row["id"]
        _expect(problems, f"slotted {c} slot charges", [Fraction(v) for v in row["slot_charges_exact"]], ref.slot_prices[c])
        _expect(problems, f"slotted {c} exact", Fraction(row["total"]["exact"]), ref.slotted[c])

    for name, scheme in schemes.items():
        totals = [row["total"] for row in scheme["consumers"]]
        _expect(problems, f"{name} aggregate billed", Fraction(scheme["aggregate"]["billed"]), sum(Fraction(t["billed"]) for t in totals))
        _expect(problems, f"{name} aggregate exact", Fraction(scheme["aggregate"]["exact"]), sum(Fraction(t["exact"]) for t in totals))

    group = schemes["slotted-group"]
    shares = [[Fraction(v) for v in row["slot_charges_exact"]] for row in group["consumers"]]
    for row, row_shares in zip(group["consumers"], shares):
        _expect(problems, f"group {row['id']} exact", Fraction(row["total"]["exact"]), sum(row_shares))
    group_prices = [Fraction(v) for v in group["group_slot_prices_exact"]]
    loads = ref.loads()
    for slot, group_price in enumerate(group_prices):
        _expect(problems, f"slot {slot} group price", group_price, price(ref.group_tiers, loads[slot]))
        individual = sum(ref.slot_prices[c][slot] for c in ids)
        if group_price > individual:
            problems.append(f"slot {slot}: group price {group_price} exceeds individual sum {individual}")
        if doc["allocation_policy"] == "exact-sum":
            _expect(problems, f"slot {slot} shares", sum(s[slot] for s in shares), cents(group_price))
    _expect(problems, "zero_filled_cells", group["zero_filled_cells"], len(ids) * ref.trace.slots - observed_cells(ref.trace))
    _expect(problems, "slot loads", doc["demand"]["slot_loads_kwh"], [fixed(load, 4) for load in loads])
    return problems, {"billed_group_over_slotted": inversions}


_ROW = re.compile(r"^(\S+)\s+(-?\d+\.\d{2})\s+(-?\d+\.\d{2})\s+(-?\d+\.\d{2})\s+(-?\d+\.\d{2})\s+(-?\d+\.\d{2})$")


def check_compare_text(text: str, ref: Expected) -> tuple[list[str], dict]:
    problems: list[str] = []
    lines = text.splitlines()
    rows = [_ROW.match(line) for line in lines[1:-2]]
    if not rows or any(match is None for match in rows):
        return ["table rows do not parse"], {"billed_group_over_slotted": 0}
    ids = list(ref.trace.consumers)
    _expect(problems, "consumers", [m.group(1) for m in rows], ids + ["aggregate"])
    sums = [Fraction(0)] * 3
    inversions = 0
    for match in rows[:-1]:
        c = match.group(1)
        monthly, slotted, grouped, premium, saving = (Fraction(match.group(k)) for k in range(2, 7))
        _expect(problems, f"{c} monthly", monthly, cents(ref.monthly[c]))
        _expect(problems, f"{c} slotted", slotted, cents(ref.slotted[c]))
        _expect(problems, f"{c} premium", premium, slotted - monthly)
        _expect(problems, f"{c} saving", saving, slotted - grouped)
        sums = [total + value for total, value in zip(sums, (monthly, slotted, grouped))]
        inversions += grouped > slotted
    agg = [Fraction(rows[-1].group(k)) for k in range(2, 7)]
    _expect(problems, "aggregate", agg, sums + [sums[1] - sums[0], sums[1] - sums[2]])
    loads = ref.loads()
    mean = sum(loads) / len(loads)
    demand = f"peak {fixed(max(loads), 4)} kWh, mean {fixed(mean, 4)} kWh, PAR {fixed(max(loads) / mean, 4)}"
    _expect(problems, "demand line", lines[-1], demand)
    return problems, {"billed_group_over_slotted": inversions}


def check_shift_json(text: str, ref: Expected) -> tuple[list[str], dict]:
    problems: list[str] = []
    doc = json.loads(text)
    _pairs(doc, "$", problems)
    shift = ref.trace.shift
    _expect(problems, "shift", (doc["consumer"], doc["from_slot"], doc["to_slot"]), (shift.consumer, shift.from_slot, shift.to_slot))
    _expect(problems, "amount", Fraction(doc["amount_kwh"]["exact"]), Fraction(shift.amount))
    after_rows = dict(ref.rows)
    moved = list(after_rows[shift.consumer])
    moved[shift.from_slot] -= Fraction(shift.amount)
    moved[shift.to_slot] += Fraction(shift.amount)
    after_rows[shift.consumer] = moved
    solo = doc["slotted_individual"]
    before = ref.slotted[shift.consumer]
    after = sum(price(ref.slot_tiers, usage) for usage in moved)
    _expect(problems, "individual before", Fraction(solo["before"]["exact"]), before)
    _expect(problems, "individual after", Fraction(solo["after"]["exact"]), after)
    _expect(problems, "individual delta", Fraction(solo["delta"]["exact"]), after - before)
    for key in ("allocated", "group_aggregate"):
        part = doc[key]
        _expect(problems, f"{key} delta", Fraction(part["delta"]), Fraction(part["after"]) - Fraction(part["before"]))
    for key, rows in (("before", None), ("after", after_rows)):
        want = ref.par(rows)
        got = doc["par"][key]
        _expect(problems, f"par {key}", None if got is None else Fraction(got["exact"]), want)
    return problems, {}


CHECKS = {
    ("compare", True): check_compare_json,
    ("compare", False): check_compare_text,
    ("shift", True): check_shift_json,
}


def check_output(defn: dict, stdout: bytes, ref: Expected) -> tuple[list[str], dict]:
    """Problems found in one CLI stdout, plus observations."""
    try:
        return CHECKS[(defn["command"], defn["json"])](stdout.decode("utf-8"), ref)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as err:
        return [f"output does not have the expected shape: {err!r}"], {}
