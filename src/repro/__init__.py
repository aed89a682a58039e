"""repro — Parity declustering for continuous operation in redundant disk arrays.

A full reproduction of Holland & Gibson (ASPLOS 1992): block-design
based declustered parity layouts, a sector-accurate disk array
simulator in the raidSim architecture, the four reconstruction
algorithms of Section 8, and an experiment harness regenerating every
table and figure of the paper's evaluation.

Quick start
-----------
>>> from repro import ScenarioConfig, run_scenario
>>> result = run_scenario(ScenarioConfig(
...     stripe_size=4,          # G: parity stripe size (alpha = 0.15 on 21 disks)
...     user_rate_per_s=105,    # user accesses per second
...     read_fraction=0.5,
...     mode="recon",           # rebuild a failed disk under load
...     scale="tiny",
... ))
>>> result.reconstruction_time_s > 0
True

Package map
-----------
- :mod:`repro.designs` — balanced incomplete / complete block designs
- :mod:`repro.layout` — RAID 5 and declustered parity layouts + criteria
- :mod:`repro.sim` — the discrete-event kernel
- :mod:`repro.disk` — the IBM 0661 disk model and head schedulers
- :mod:`repro.array` — the striping driver (controller, locks, data store)
- :mod:`repro.recon` — reconstruction algorithms and the sweep
- :mod:`repro.workload` — the synthetic OLTP-like workload
- :mod:`repro.analysis` — the Muntz & Lui analytic model
- :mod:`repro.experiments` — per-figure/table runners and scales
"""

from repro._version import __version__
from repro.array import (
    ArrayAddressing,
    ArrayController,
    DataStore,
    ParityScrubber,
    SparePool,
    UserRequest,
)
from repro.designs import (
    BlockDesign,
    complete_design,
    cyclic_design,
    default_catalog,
    paper_design,
)
from repro.disk import IBM_0661, Disk, DiskSpec, scaled_spec
from repro.experiments import ScenarioConfig, ScenarioResult, get_scale, run_scenario
from repro.layout import (
    DeclusteredLayout,
    LeftSymmetricRaid5Layout,
    ParityLayout,
    PermutationStripingLayout,
    TableParityLayout,
    evaluate_layout,
)
from repro.recon import (
    ALGORITHMS,
    BASELINE,
    REDIRECT,
    REDIRECT_PIGGYBACK,
    USER_WRITES,
    Reconstructor,
)
from repro.sim import Environment
from repro.workload import SyntheticWorkload, TraceRecord, TraceWorkload, WorkloadConfig

__all__ = [
    "ALGORITHMS",
    "ArrayAddressing",
    "ArrayController",
    "BASELINE",
    "BlockDesign",
    "DataStore",
    "DeclusteredLayout",
    "Disk",
    "DiskSpec",
    "Environment",
    "IBM_0661",
    "LeftSymmetricRaid5Layout",
    "ParityLayout",
    "ParityScrubber",
    "PermutationStripingLayout",
    "REDIRECT",
    "REDIRECT_PIGGYBACK",
    "Reconstructor",
    "ScenarioConfig",
    "SparePool",
    "ScenarioResult",
    "TableParityLayout",
    "SyntheticWorkload",
    "TraceRecord",
    "TraceWorkload",
    "USER_WRITES",
    "UserRequest",
    "WorkloadConfig",
    "__version__",
    "complete_design",
    "cyclic_design",
    "default_catalog",
    "evaluate_layout",
    "get_scale",
    "paper_design",
    "run_scenario",
    "scaled_spec",
]
