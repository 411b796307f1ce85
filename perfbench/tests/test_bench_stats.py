import stats


def test_tail_has_exactly_ten_samples_beyond_it():
    xs = list(range(1, 101))
    value, pct, n = stats.tail(reversed(xs))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct, n = stats.tail([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and n == 11
    assert abs(pct - 100 / 11) < 1e-12


def test_tail_needs_more_than_ten_samples():
    assert stats.tail([1.0] * 10) is None


def test_op_times_scale_by_their_cycles_mean_kernel_reading():
    import hostspeed
    from worker import LoopResult

    res = LoopResult()
    res.latencies, res.cycle_ids = [1.0, 2.0, 3.0], [0, 0, 1]
    ref = hostspeed.REF_KERNEL_S
    res.kernel = [(0, ref), (0, 3 * ref), (1, ref / 2)]  # cycle 0 ran at half speed, cycle 1 at double
    assert res.scaled_latencies() == [0.5, 1.0, 6.0]
