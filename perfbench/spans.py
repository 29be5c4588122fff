"""Outside-in tracer for progtariff's public functions.

The tracer replaces each target function with a wrapper at every site
that holds it by name: its home module, every progtariff module that
imported it with ``from ... import``, and the package namespace. Methods
are wrapped on their class. Nothing in ``src/`` changes, and
``uninstall`` puts the originals back.

Spans (name, start, end, parent) are kept in flat arrays while a run is
traced and derived into per-name call counts and self time afterwards.
Self time is a span's duration minus the time its direct children
cover. A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

# Traced name -> (home module, attribute path within it).
TARGETS = {
    "cli.run_cli": ("progtariff.cli", "run_cli"),
    "fileio.parse_schedule_file": ("progtariff.fileio", "parse_schedule_file"),
    "fileio.parse_trace_csv": ("progtariff.fileio", "parse_trace_csv"),
    "fileio.comparison_to_dict": ("progtariff.fileio", "comparison_to_dict"),
    "fileio.shift_to_dict": ("progtariff.fileio", "shift_to_dict"),
    "fileio.render_comparison": ("progtariff.fileio", "render_comparison"),
    "fileio.to_json": ("progtariff.fileio", "to_json"),
    "simulate.slot_partition": ("progtariff.simulate", "slot_partition"),
    "simulate.compare_schemes": ("progtariff.simulate", "compare_schemes"),
    "simulate.what_if_shift": ("progtariff.simulate", "what_if_shift"),
    "simulate.run_scheme": ("progtariff.simulate", "run_scheme"),
    "simulate.demand_metrics": ("progtariff.simulate", "demand_metrics"),
    "simulate.SlotUsageMatrix.index_of": ("progtariff.simulate", "SlotUsageMatrix.index_of"),
    "simulate.SlotUsageMatrix.column": ("progtariff.simulate", "SlotUsageMatrix.column"),
    "grouping.individual_slot_prices": ("progtariff.grouping", "individual_slot_prices"),
    "grouping.group_slot_price": ("progtariff.grouping", "group_slot_price"),
    "grouping.proportional_allocation": ("progtariff.grouping", "proportional_allocation"),
    "tariff.progressive_price": ("progtariff.tariff", "progressive_price"),
    "tariff.scale_schedule": ("progtariff.tariff", "scale_schedule"),
    "amounts.format_money": ("progtariff.amounts", "format_money"),
    "amounts.exact_str": ("progtariff.amounts", "exact_str"),
    "amounts.round_money": ("progtariff.amounts", "round_money"),
}


def _matrix(args, result):
    cells = len(result.consumers) * result.slots
    return {"readings": len(args[0]), "cells": cells, "zero_filled": cells - len(result.observed)}


# Counters read from a traced call's arguments and result, summed per name.
COUNTERS = {
    "fileio.parse_trace_csv": lambda args, result: {"readings": len(result)},
    "fileio.to_json": lambda args, result: {"bytes": len(result.encode("utf-8"))},
    "simulate.slot_partition": _matrix,
    "grouping.proportional_allocation": lambda args, result: {
        "adjusted_units": sum(units for _, units in result.adjustments)
    },
}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name_ix = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: dict[str, dict[str, int]] = {}
        self.counter_errors: list[str] = []
        self._stack: list[int] = []

    def _wrapper(self, index: int, name: str, fn):
        name_ix, start, end, parent, stack = self.name_ix, self.start, self.end, self.parent, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = len(start)
            name_ix.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(span)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                self._count(name, counter, args, result)
            return result

        return traced

    def _count(self, name, counter, args, result):
        try:
            values = counter(args, result)
        except (AttributeError, TypeError, IndexError):
            self.counter_errors.append(name)
            return
        totals = self.counters.setdefault(name, {})
        for key, value in values.items():
            totals[key] = totals.get(key, 0) + value

    def install(self):
        """Wrap every target at every site; remember what to restore."""
        self.reset()
        self.absent = []
        modules = [m for key, m in list(sys.modules.items()) if key == "progtariff" or key.startswith("progtariff.")]
        for index, name in enumerate(self.names):
            module_name, attr = TARGETS[name]
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrapper(index, name, original)
            if owner_path:
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def summary(self) -> dict[str, dict[str, int]]:
        """Per name: call count, total and self time in ns, and counters."""
        count = len(self.start)
        child = [0] * count
        for span in range(count):
            up = self.parent[span]
            if up >= 0:
                child[up] += self.end[span] - self.start[span]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for span in range(count):
            entry = out[self.names[self.name_ix[span]]]
            duration = self.end[span] - self.start[span]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child[span]
        for name, values in self.counters.items():
            out[name].update(values)
        return out

    def write(self, path):
        """Spans as gzipped CSV: name, start_ns, end_ns, parent span index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for span in range(len(self.start)):
                handle.write(
                    f"{self.names[self.name_ix[span]]},{self.start[span]},{self.end[span]},{self.parent[span]}\n"
                )
