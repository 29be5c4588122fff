"""Command-line interface.

Subcommands: validate, bill, simulate, compare, allocate, shift.
Exit status is 0 on success, 1 on any input problem (bad flags, missing
or malformed files, violated preconditions), and 2 if an internal
pricing invariant fails.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from functools import partial

from .amounts import exact
from .errors import BillingError, InternalCheckError
from .fileio import (
    allocation_to_dict,
    bill_to_dict,
    comparison_to_dict,
    iter_trace_csv,
    parse_rfc3339,
    parse_schedule_file,
    render_allocation,
    render_bill,
    render_comparison,
    render_report,
    render_schedule_summary,
    render_shift,
    report_to_dict,
    schedule_to_dict,
    shift_to_dict,
    write_json,
)
from .grouping import AllocationPolicy, proportional_allocation
from .simulate import (
    FIRST_MIDNIGHT,
    SchemeKind,
    SlotGrid,
    check_period,
    compare_schemes,
    run_scheme,
    slot_partition,
    slot_partition_from_earliest,
    what_if_shift,
)


class _CliError(BillingError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally exits with status 2 on usage errors; those are
    # input errors here, so raise and let run_cli map them to 1.
    def error(self, message):
        raise _CliError(message)


def _integer(text: str) -> int:
    """A whole-number flag. ``int`` reads underscores ("3_0"), which
    amounts.exact refuses in every other number, so they are refused here
    too."""
    if "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _add_grid_flags(parser):
    parser.add_argument("--slot-hours", default="6", help="slot length in hours (default 6)")
    parser.add_argument(
        "--period-days", type=_integer, default=30, help="billing period length (default 30)"
    )
    parser.add_argument(
        "--period-start",
        default=None,
        help="RFC 3339 period start; default: midnight UTC of the earliest reading",
    )


def _add_policy_flag(parser):
    parser.add_argument(
        "--policy",
        choices=[policy.value for policy in AllocationPolicy],
        default=AllocationPolicy.EXACT_SUM.value,
        help="group price allocation policy (default exact-sum)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="progtariff", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("validate", help="check a schedule file and print a summary")
    cmd.add_argument("--schedule", required=True)
    cmd.set_defaults(func=_cmd_validate)

    cmd = commands.add_parser("bill", help="price a single usage and show the tier breakdown")
    cmd.add_argument("--schedule", required=True)
    cmd.add_argument("--usage", required=True, help="energy in kWh (decimal or p/q)")
    cmd.set_defaults(func=_cmd_bill)

    cmd = commands.add_parser("simulate", help="bill a trace under one scheme")
    cmd.add_argument("--schedule", required=True)
    cmd.add_argument("--trace", required=True)
    cmd.add_argument(
        "--scheme",
        choices=[kind.value for kind in SchemeKind],
        default=SchemeKind.SLOTTED_GROUP.value,
    )
    _add_grid_flags(cmd)
    _add_policy_flag(cmd)
    cmd.set_defaults(func=_cmd_simulate)

    cmd = commands.add_parser("compare", help="bill a trace under all three schemes")
    cmd.add_argument("--schedule", required=True)
    cmd.add_argument("--trace", required=True)
    _add_grid_flags(cmd)
    _add_policy_flag(cmd)
    cmd.set_defaults(func=_cmd_compare)

    cmd = commands.add_parser("allocate", help="split a group price over individual prices")
    cmd.add_argument("--group", required=True)
    cmd.add_argument("--individual", required=True, help="comma-separated prices")
    _add_policy_flag(cmd)
    cmd.set_defaults(func=_cmd_allocate)

    cmd = commands.add_parser("shift", help="evaluate moving energy between two slots")
    cmd.add_argument("--schedule", required=True)
    cmd.add_argument("--trace", required=True)
    cmd.add_argument("--consumer", required=True)
    cmd.add_argument("--from-slot", type=_integer, required=True)
    cmd.add_argument("--to-slot", type=_integer, required=True)
    cmd.add_argument("--amount", required=True, help="energy in kWh (decimal or p/q)")
    _add_grid_flags(cmd)
    _add_policy_flag(cmd)
    cmd.set_defaults(func=_cmd_shift)

    for cmd in commands.choices.values():
        cmd.add_argument("--json", action="store_true")
    return parser


def _emit(args, result, to_dict, render) -> int:
    """Print *result* as ``to_json(to_dict(result))`` under --json, else as
    ``render(result)``.

    The JSON text goes to stdout in chunks as it is rendered. The payload
    is built first, with every figure in it formatted or proven printable,
    so an error writes nothing; its slot-charge lists are rendered only as
    they are written.
    """
    if args.json:
        write_json(to_dict(result), sys.stdout)
    else:
        print(render(result))
    return 0


def _load(args) -> tuple:
    """The partitioned trace (a ``SlotUsageMatrix``), the schedule and the
    grid that *args* name, in the order the billing functions take them.

    A command passes them straight into billing, so it holds no reference
    to the matrix once billing returns, and the report is rendered
    without it.

    The trace, a file or a pipe, is read once, straight into the
    partition, and no list of readings is held. Without ``--period-start``
    the partition finds the period start as it reads: midnight UTC of the
    earliest reading. The grid flags, then the schedule's period, are
    checked before the trace is opened.
    """
    schedule = parse_schedule_file(args.schedule)
    slot_hours = exact(args.slot_hours)
    start = FIRST_MIDNIGHT if args.period_start is None else parse_rfc3339(args.period_start)
    grid = SlotGrid(slot_hours, args.period_days, start)
    check_period(schedule, grid.period_days)
    with closing(iter_trace_csv(args.trace)) as readings:
        if args.period_start is None:
            matrix, grid = slot_partition_from_earliest(readings, slot_hours, args.period_days)
        else:
            matrix = slot_partition(readings, grid)
    return matrix, schedule, grid


def _cmd_validate(args) -> int:
    schedule = parse_schedule_file(args.schedule)
    return _emit(args, schedule, schedule_to_dict, render_schedule_summary)


def _cmd_bill(args) -> int:
    schedule = parse_schedule_file(args.schedule)
    usage = exact(args.usage)
    return _emit(args, usage, partial(bill_to_dict, schedule), partial(render_bill, schedule))


def _cmd_simulate(args) -> int:
    report = run_scheme(*_load(args), args.scheme, args.policy)
    return _emit(args, report, report_to_dict, render_report)


def _cmd_compare(args) -> int:
    comparison = compare_schemes(*_load(args), args.policy)
    return _emit(args, comparison, comparison_to_dict, render_comparison)


def _cmd_allocate(args) -> int:
    prices = [item.strip() for item in args.individual.split(",")]
    if prices == [""]:
        raise _CliError("--individual needs at least one price")
    if "" in prices:
        raise _CliError(f"--individual: item {prices.index('') + 1} is empty")
    # Zero-padded ids keep lexicographic tie-breaking aligned with input order.
    width = len(str(len(prices)))
    pairs = [(f"{index:0{width}d}", price) for index, price in enumerate(prices, start=1)]
    result = proportional_allocation(args.group, pairs, args.policy)
    return _emit(args, result, allocation_to_dict, render_allocation)


def _cmd_shift(args) -> int:
    report = what_if_shift(
        *_load(args), args.consumer, args.from_slot, args.to_slot, exact(args.amount),
        args.policy,
    )
    return _emit(args, report, shift_to_dict, render_shift)


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except InternalCheckError as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return 2
    except (BillingError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
