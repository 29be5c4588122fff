"""Walkthrough: pricing three consumers collectively and splitting the bill.

Run from the repository root:  python demos/group_pricing.py
"""

from fractions import Fraction
from pathlib import Path

from progtariff import (
    format_money,
    group_saving,
    parse_schedule_file,
    proportional_allocation,
    round_money,
    scale_schedule,
    slot_factor,
)

schedule = parse_schedule_file(Path(__file__).parent.parent / "fixtures" / "kepco_residential.json")
slot_schedule = scale_schedule(schedule, slot_factor(6, 30))

usages = [("c1", Fraction(5, 2)), ("c2", Fraction(5, 3)), ("c3", Fraction(5, 6))]
print("Three consumers draw 5/2, 5/3 and 5/6 kWh in one 6-hour slot.")

result = group_saving(slot_schedule, usages)
print("\nPriced individually:")
for consumer, price in result.individual_prices.items():
    print(f"  {consumer}: {format_money(price)} {result.currency}")
# Each consumer pays a bill rounded to minor units; the comparison adds
# up those bills, not the exact prices.
billed_total = sum(round_money(price) for price in result.individual_prices.values())
billed_group = round_money(result.group_price)
print(f"  total: {format_money(billed_total)} {result.currency}")

print("\nPriced as one group of three (tier ranges widened by 3), the pooled")
print(f"5 kWh cost {format_money(billed_group)} {result.currency}: "
      f"the group saves {format_money(billed_total - billed_group)}.")
print("Convexity guarantees the collective price never exceeds the sum of")
print("the individual ones, whatever the usage pattern.")

print("\nThe group bill is split in proportion to the individual prices.")
independent = proportional_allocation(
    result.group_price, result.individual_prices, "independent"
)
exact_sum = proportional_allocation(
    result.group_price, result.individual_prices, "exact-sum"
)
print("  independent rounding:", ", ".join(format_money(v) for v in independent.shares.values()),
      f"(sums to {format_money(independent.total)})")
print("  exact-sum policy    :", ", ".join(format_money(v) for v in exact_sum.shares.values()),
      f"(sums to {format_money(exact_sum.total)})")
print("\nIndependent rounding can drift off the group total by a minor unit,")
print("so the exact-sum policy is the billing default: it floors every share")
print("and hands the leftover minor units to the largest remainders.")
