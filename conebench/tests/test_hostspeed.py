import pytest

from conebench import hostspeed


def test_reference_is_deterministic():
    assert hostspeed.reference_work(50) == hostspeed.reference_work(50)


def test_scale_takes_reference_time_to_ref_s():
    ref = hostspeed.REF_S
    assert hostspeed.scale(ref, ref) == pytest.approx(1.0)
    # A host running the reference at half speed halves every reported time.
    assert hostspeed.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.scale(1.5 * ref, 2.5 * ref) == pytest.approx(0.5)


def test_reference_s_times_one_run():
    assert 0.0 < hostspeed.reference_s() < 5.0
