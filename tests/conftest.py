"""Shared fixtures and builders for the test suite.

Most array tests run on a 5-disk, G=4 declustered array (the paper's
Figure 2-3 configuration) over a 10-cylinder disk: big enough to hold
dozens of full layout tables, small enough that whole-array
reconstructions finish in well under a second of wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.array import ArrayAddressing, ArrayController
from repro.designs import boolean_quadruple_system, complete_design, paper_design
from repro.disk import scaled_spec
from repro.layout import DeclusteredLayout, LeftSymmetricRaid5Layout, criteria
from repro.recon.algorithms import BASELINE
from repro.sim import Environment


@dataclass
class ArrayUnderTest:
    """One assembled simulated array plus its environment."""

    env: Environment
    controller: ArrayController
    addressing: ArrayAddressing

    @property
    def layout(self):
        return self.addressing.layout

    def run_op(self, event):
        """Run the simulation until one controller event completes."""
        return self.env.run(until=event)


def build_array(
    num_disks: int = 5,
    stripe_size: int = 4,
    cylinders: int = 10,
    algorithm=BASELINE,
    with_datastore: bool = True,
    policy: str = "cvscan",
    fault_profile=None,
) -> ArrayUnderTest:
    """Assemble a small array for tests."""
    env = Environment()
    if stripe_size == num_disks:
        layout = LeftSymmetricRaid5Layout(num_disks)
    elif num_disks == 21:
        layout = DeclusteredLayout(paper_design(stripe_size))
    else:
        layout = DeclusteredLayout(complete_design(num_disks, stripe_size))
    addressing = ArrayAddressing(layout, scaled_spec(cylinders))
    controller = ArrayController(
        env, addressing, policy=policy, algorithm=algorithm,
        with_datastore=with_datastore,
        fault_profile=fault_profile,
    )
    return ArrayUnderTest(env=env, controller=controller, addressing=addressing)


def dual_test_layout(num_disks: int = 8):
    """The P+Q layout of :func:`build_dual_array`: 8 disks get the
    declustered SQS(8) layout (G=4, triple-balanced); any other count
    gets the full-width cyclic RAID-6 rotation."""
    if num_disks == 8:
        return DeclusteredLayout(boolean_quadruple_system(3), num_syndromes=2)
    return LeftSymmetricRaid5Layout(num_disks, num_syndromes=2)


def build_dual_array(
    num_disks: int = 8,
    cylinders: int = 10,
    algorithm=BASELINE,
    with_datastore: bool = True,
    policy: str = "cvscan",
    fault_profile=None,
) -> ArrayUnderTest:
    """Assemble a small dual-syndrome (P+Q) array for tests, over
    :func:`dual_test_layout`."""
    env = Environment()
    addressing = ArrayAddressing(dual_test_layout(num_disks), scaled_spec(cylinders))
    controller = ArrayController(
        env, addressing, policy=policy, algorithm=algorithm,
        with_datastore=with_datastore,
        fault_profile=fault_profile,
    )
    return ArrayUnderTest(env=env, controller=controller, addressing=addressing)


def sampled_criteria_reports(layout) -> list:
    """Every criteria report of ``layout`` on the seeded sample: the audit
    ``evaluate_layout`` runs from ``SAMPLING_THRESHOLD_DISKS`` disks up,
    here at any width."""
    reports = [
        criteria.check_single_failure_correcting(layout, sampled=True),
        criteria.check_distributed_reconstruction(layout, sampled=True),
        criteria.check_distributed_parity(layout, sampled=True),
        criteria.check_efficient_mapping(layout),
        criteria.check_large_write_optimization(layout, sampled=True),
        criteria.check_maximal_parallelism(layout, sampled=True),
    ]
    if layout.num_syndromes == 2:
        reports += [
            criteria.check_double_failure_correcting(layout, sampled=True),
            criteria.check_pair_balanced_reconstruction(layout, sampled=True),
            criteria.check_distributed_q(layout, sampled=True),
        ]
    return reports


@pytest.fixture
def small_array() -> ArrayUnderTest:
    """A fresh 5-disk G=4 declustered array with a data store."""
    return build_array()


@pytest.fixture
def dual_array() -> ArrayUnderTest:
    """A fresh 8-disk G=4 dual-syndrome declustered array."""
    return build_dual_array()


@pytest.fixture
def raid5_array() -> ArrayUnderTest:
    """A fresh 5-disk RAID 5 array with a data store."""
    return build_array(stripe_size=5)


def total_disk_accesses(controller: ArrayController) -> int:
    """Disk accesses completed so far across the whole array."""
    return sum(disk.stats.completed for disk in controller.disks)
