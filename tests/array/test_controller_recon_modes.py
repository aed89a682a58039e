"""Algorithm-specific routing during reconstruction.

These tests install a replacement and drive individual operations to
pin down exactly which paths each of the four algorithms takes, and
that the replacement disk sees user traffic only when the algorithm
says it should.
"""

from repro.disk.drive import KIND_USER
from repro.recon.algorithms import (
    BASELINE,
    REDIRECT,
    REDIRECT_PIGGYBACK,
    USER_WRITES,
)
from tests.array.test_controller_degraded import (
    find_logical_on_disk,
    find_logical_with_parity_on_disk,
)
from tests.conftest import build_array

FAILED = 2


def array_in_recon_mode(algorithm):
    array = build_array(algorithm=algorithm)
    array.controller.fail_disk(FAILED)
    array.controller.install_replacement()
    return array


def replacement_user_accesses(array):
    return array.controller.disks[FAILED].stats.completed_by_kind.get(KIND_USER, 0)


class TestBaseline:
    def test_unbuilt_write_folds(self):
        array = array_in_recon_mode(BASELINE)
        logical = find_logical_on_disk(array, FAILED)
        array.run_op(array.controller.write(logical, values=[1]))
        assert array.controller.stats.by_path == {"fold-write": 1}
        assert replacement_user_accesses(array) == 0

    def test_built_write_is_normal_rmw_on_replacement(self):
        # Rebuilt units are live for writes: anything else leaves the
        # replacement stale (or, if re-swept, risks never converging).
        array = array_in_recon_mode(BASELINE)
        logical = find_logical_on_disk(array, FAILED)
        offset = array.addressing.logical_unit_address(logical).offset
        array.controller.recon_statuses[FAILED].mark_built(offset)
        array.run_op(array.controller.write(logical, values=[2]))
        assert array.controller.stats.by_path == {"rmw-write": 1}
        assert array.controller.recon_statuses[FAILED].is_built(offset)

    def test_built_read_still_reconstructs_on_the_fly(self):
        array = array_in_recon_mode(BASELINE)
        logical = find_logical_on_disk(array, FAILED)
        offset = array.addressing.logical_unit_address(logical).offset
        array.controller.recon_statuses[FAILED].mark_built(offset)
        request = array.run_op(array.controller.read(logical))
        assert request.paths == ["on-the-fly-read"]

    def test_built_parity_write_is_normal_rmw(self):
        array = array_in_recon_mode(BASELINE)
        logical = find_logical_with_parity_on_disk(array, FAILED)
        stripe = array.layout.stripe_of_logical(logical)
        parity_offset = array.layout.stripe_units(stripe)[-1].offset
        array.controller.recon_statuses[FAILED].mark_built(parity_offset)
        array.run_op(array.controller.write(logical, values=[3]))
        assert array.controller.stats.by_path == {"rmw-write": 1}
        assert array.controller.recon_statuses[FAILED].is_built(parity_offset)


class TestStrictBaseline:
    """The strict isolation variant folds even rebuilt units."""

    def test_built_write_folds_and_dirties(self):
        from repro.recon.algorithms import STRICT_BASELINE

        array = array_in_recon_mode(STRICT_BASELINE)
        logical = find_logical_on_disk(array, FAILED)
        offset = array.addressing.logical_unit_address(logical).offset
        array.controller.recon_statuses[FAILED].mark_built(offset)
        array.run_op(array.controller.write(logical, values=[2]))
        assert array.controller.stats.by_path == {"fold-write": 1}
        assert not array.controller.recon_statuses[FAILED].is_built(offset)
        assert array.controller.recon_statuses[FAILED].dirtied_count == 1
        assert replacement_user_accesses(array) == 0

    def test_built_parity_write_dirties_parity(self):
        from repro.recon.algorithms import STRICT_BASELINE

        array = array_in_recon_mode(STRICT_BASELINE)
        logical = find_logical_with_parity_on_disk(array, FAILED)
        stripe = array.layout.stripe_of_logical(logical)
        parity_offset = array.layout.stripe_units(stripe)[-1].offset
        array.controller.recon_statuses[FAILED].mark_built(parity_offset)
        array.run_op(array.controller.write(logical, values=[3]))
        assert array.controller.stats.by_path == {"data-only-write": 1}
        assert not array.controller.recon_statuses[FAILED].is_built(parity_offset)

    def test_dirtied_unit_is_reswept_and_correct(self):
        from repro.recon import Reconstructor
        from repro.recon.algorithms import STRICT_BASELINE

        array = array_in_recon_mode(STRICT_BASELINE)
        controller = array.controller
        logical = find_logical_on_disk(array, FAILED)
        offset = array.addressing.logical_unit_address(logical).offset
        controller.recon_statuses[FAILED].mark_built(offset)
        array.run_op(controller.write(logical, values=[0xD1247]))
        reconstructor = Reconstructor(controller, workers=2)
        array.env.run(until=reconstructor.start())
        assert reconstructor.result().resweeps >= 0
        request = array.run_op(controller.read(logical))
        assert request.read_values == [0xD1247]


class TestUserWrites:
    def test_unbuilt_write_goes_to_replacement(self):
        array = array_in_recon_mode(USER_WRITES)
        logical = find_logical_on_disk(array, FAILED)
        offset = array.addressing.logical_unit_address(logical).offset
        array.run_op(array.controller.write(logical, values=[7]))
        assert array.controller.stats.by_path == {"reconstruct-write": 1}
        assert array.controller.recon_statuses[FAILED].is_built(offset)
        assert replacement_user_accesses(array) == 1

    def test_reconstruct_write_access_count(self):
        array = array_in_recon_mode(USER_WRITES)
        logical = find_logical_on_disk(array, FAILED)
        array.run_op(array.controller.write(logical, values=[7]))
        g = array.layout.stripe_size
        from tests.conftest import total_disk_accesses

        # G-2 peer reads + data write + parity write.
        assert total_disk_accesses(array.controller) == (g - 2) + 2

    def test_built_write_is_normal_rmw_on_replacement(self):
        array = array_in_recon_mode(USER_WRITES)
        logical = find_logical_on_disk(array, FAILED)
        array.run_op(array.controller.write(logical, values=[7]))
        array.run_op(array.controller.write(logical, values=[8]))
        assert array.controller.stats.by_path["rmw-write"] == 1

    def test_reads_still_on_the_fly_even_when_built(self):
        array = array_in_recon_mode(USER_WRITES)
        logical = find_logical_on_disk(array, FAILED)
        array.run_op(array.controller.write(logical, values=[7]))  # builds it
        request = array.run_op(array.controller.read(logical))
        assert request.paths == ["on-the-fly-read"]
        assert request.read_values == [7]


class TestRedirect:
    def test_built_read_is_redirected(self):
        array = array_in_recon_mode(REDIRECT)
        logical = find_logical_on_disk(array, FAILED)
        array.run_op(array.controller.write(logical, values=[9]))  # builds it
        request = array.run_op(array.controller.read(logical))
        assert request.paths == ["redirected-read"]
        assert request.read_values == [9]

    def test_unbuilt_read_is_on_the_fly(self):
        array = array_in_recon_mode(REDIRECT)
        logical = find_logical_on_disk(array, FAILED)
        request = array.run_op(array.controller.read(logical))
        assert request.paths == ["on-the-fly-read"]

    def test_no_piggyback_write_happens(self):
        array = array_in_recon_mode(REDIRECT)
        logical = find_logical_on_disk(array, FAILED)
        offset = array.addressing.logical_unit_address(logical).offset
        array.run_op(array.controller.read(logical))
        assert not array.controller.recon_statuses[FAILED].is_built(offset)
        assert array.controller.stats.piggyback_writes == 0


class TestRedirectPiggyback:
    def test_on_the_fly_read_piggybacks_to_replacement(self):
        array = array_in_recon_mode(REDIRECT_PIGGYBACK)
        logical = find_logical_on_disk(array, FAILED)
        offset = array.addressing.logical_unit_address(logical).offset
        array.run_op(array.controller.read(logical))
        array.env.run()  # let the piggyback write finish
        assert array.controller.recon_statuses[FAILED].is_built(offset)
        assert array.controller.stats.piggyback_writes == 1

    def test_piggybacked_unit_reads_correctly_from_replacement(self):
        array = array_in_recon_mode(REDIRECT_PIGGYBACK)
        logical = find_logical_on_disk(array, FAILED)
        address = array.addressing.logical_unit_address(logical)
        from repro.array.datastore import initial_data_pattern

        expected = initial_data_pattern(address.disk, address.offset)
        array.run_op(array.controller.read(logical))
        array.env.run()
        request = array.run_op(array.controller.read(logical))
        assert request.paths == ["redirected-read"]
        assert request.read_values == [expected]

    def test_second_read_does_not_piggyback_again(self):
        array = array_in_recon_mode(REDIRECT_PIGGYBACK)
        logical = find_logical_on_disk(array, FAILED)
        array.run_op(array.controller.read(logical))
        array.env.run()
        array.run_op(array.controller.read(logical))
        assert array.controller.stats.piggyback_writes == 1
