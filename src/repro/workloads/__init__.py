"""Job-log substrate: SWF parsing, synthetic machine logs, labelling."""

from .trace import TraceJob, validate_trace
from .trace_ops import (
    concatenate,
    filter_sizes,
    iter_filter_sizes,
    iter_renumber,
    iter_scale_load,
    iter_slice_window,
    renumber,
    scale_load,
    slice_window,
)
from .swf import (
    SwfError,
    SwfRecord,
    iter_swf,
    load_swf,
    parse_swf,
    swf_to_trace,
    write_swf,
)
from .arrivals import SECONDS_PER_DAY, daily_cycle_arrivals
from .synthetic import (
    exponential_arrivals,
    geometric_exponent_weights,
    lognormal_runtimes,
    power_of_two_sizes,
    stream_trace,
    weibull_arrivals,
)
from .logs import (
    LOG_SPECS,
    LogSpec,
    generate_log,
    intrepid_log,
    mira_log,
    theta_log,
)
from .export import result_to_swf, result_to_swf_records
from .classify import (
    DEFAULT_COMM_FRACTION,
    EXPERIMENT_SETS,
    CommMix,
    assign_kinds,
    assign_kinds_stream,
    make_mix,
    single_pattern_mix,
)

__all__ = [
    "TraceJob",
    "validate_trace",
    "concatenate",
    "filter_sizes",
    "iter_filter_sizes",
    "iter_renumber",
    "iter_scale_load",
    "iter_slice_window",
    "renumber",
    "scale_load",
    "slice_window",
    "SwfError",
    "SwfRecord",
    "iter_swf",
    "load_swf",
    "parse_swf",
    "swf_to_trace",
    "write_swf",
    "SECONDS_PER_DAY",
    "daily_cycle_arrivals",
    "exponential_arrivals",
    "geometric_exponent_weights",
    "lognormal_runtimes",
    "power_of_two_sizes",
    "stream_trace",
    "weibull_arrivals",
    "LOG_SPECS",
    "LogSpec",
    "generate_log",
    "intrepid_log",
    "mira_log",
    "theta_log",
    "DEFAULT_COMM_FRACTION",
    "EXPERIMENT_SETS",
    "CommMix",
    "assign_kinds",
    "assign_kinds_stream",
    "result_to_swf",
    "result_to_swf_records",
    "make_mix",
    "single_pattern_mix",
]
