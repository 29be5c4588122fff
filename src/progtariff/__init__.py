"""Progressive block tariffs over time slots, with consumer grouping.

An exact-arithmetic billing engine: progressive tariff evaluation, slot
and group rescaling, collective pricing with proportional allocation,
trace-driven scheme simulation, and demand metrics. Every computation
runs on rational numbers; rounding happens only when a figure is
displayed.

All public objects are immutable and every operation is a pure function,
so any of this can run concurrently without coordination.
"""

from .amounts import (
    ENERGY_PLACES,
    MONEY_PLACES,
    exact,
    exact_str,
    energy_amount,
    format_energy,
    format_money,
    money_amount,
    round_money,
)
from .errors import (
    AllocationError,
    BillingError,
    InternalCheckError,
    ScheduleError,
    SimulationError,
    TraceError,
)
from .fileio import (
    emit_schedule,
    iter_trace_csv,
    parse_rfc3339,
    parse_schedule_file,
    parse_trace_csv,
    schedule_to_dict,
)
from .grouping import (
    AllocationPolicy,
    AllocationResult,
    GroupPricingResult,
    group_saving,
    group_slot_price,
    individual_slot_prices,
    proportional_allocation,
)
from .simulate import (
    BillingReport,
    DemandMetrics,
    MeterReading,
    SchemeComparison,
    SchemeKind,
    ShiftReport,
    SlotGrid,
    SlotUsageMatrix,
    compare_schemes,
    demand_metrics,
    run_scheme,
    slot_partition,
    slot_partition_from_earliest,
    what_if_shift,
)
from .tariff import (
    TariffSchedule,
    TariffTier,
    progressive_price,
    scale_schedule,
    slot_factor,
    tier_breakdown,
    validate_schedule,
)

__all__ = [
    "ENERGY_PLACES",
    "MONEY_PLACES",
    "AllocationError",
    "AllocationPolicy",
    "AllocationResult",
    "BillingError",
    "BillingReport",
    "DemandMetrics",
    "GroupPricingResult",
    "InternalCheckError",
    "MeterReading",
    "ScheduleError",
    "SchemeComparison",
    "SchemeKind",
    "ShiftReport",
    "SimulationError",
    "SlotGrid",
    "SlotUsageMatrix",
    "TariffSchedule",
    "TariffTier",
    "TraceError",
    "compare_schemes",
    "demand_metrics",
    "emit_schedule",
    "exact",
    "exact_str",
    "energy_amount",
    "format_energy",
    "format_money",
    "group_saving",
    "group_slot_price",
    "individual_slot_prices",
    "iter_trace_csv",
    "money_amount",
    "parse_rfc3339",
    "parse_schedule_file",
    "parse_trace_csv",
    "progressive_price",
    "proportional_allocation",
    "round_money",
    "run_scheme",
    "scale_schedule",
    "schedule_to_dict",
    "slot_factor",
    "slot_partition",
    "slot_partition_from_earliest",
    "tier_breakdown",
    "validate_schedule",
    "what_if_shift",
]

__version__ = "0.1.0"
