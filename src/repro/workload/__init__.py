"""Synthetic workload generation (Table 5-1(a)).

The paper's workload is an open-loop stream of fixed-size (4 KB),
4 KB-aligned accesses, uniformly distributed over the array's data
space, arriving as a Poisson process at 105, 210, or 378 user accesses
per second, with a configurable read fraction (100 %, 0 %, or 50 %
depending on the experiment section).
"""

from repro.workload.base import WorkloadBase
from repro.workload.recorder import ResponseRecorder
from repro.workload.synthetic import SyntheticWorkload, WorkloadConfig
from repro.workload.patterns import zipf_hot_spot
from repro.workload.trace import TraceRecord, TraceWorkload, load_trace, save_trace

__all__ = [
    "ResponseRecorder",
    "SyntheticWorkload",
    "TraceRecord",
    "TraceWorkload",
    "WorkloadBase",
    "WorkloadConfig",
    "load_trace",
    "save_trace",
    "zipf_hot_spot",
]
