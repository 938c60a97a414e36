import signal
import time

import pytest

from measure import (REF_NOMINAL_S, REF_QUEENS, SAMPLE_EVERY_S, TAIL_BEYOND, SpeedSampler,
                     normalized, reference_loop, tail)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([], 1)


@pytest.mark.parametrize("n", [1, 2, TAIL_BEYOND])
def test_tail_without_ten_samples_beyond_is_the_unresolved_maximum(n):
    samples = [float(i) for i in range(n, 0, -1)]
    assert tail(samples, n) == (float(n), 100.0, 0)


def test_tail_first_resolvable_size_is_the_minimum():
    samples = [float(i) for i in range(TAIL_BEYOND + 1)]
    value, pct, beyond = tail(samples[::-1], len(samples))
    assert value == 0.0
    assert beyond == TAIL_BEYOND
    assert pct == pytest.approx(100.0 / (TAIL_BEYOND + 1))


@pytest.mark.parametrize("n,rank", [(20, 10), (100, 90), (1000, 990)])
def test_tail_leaves_exactly_ten_samples_beyond(n, rank):
    samples = [float(i) for i in range(1, n + 1)]
    value, pct, beyond = tail(samples, n)
    assert value == float(rank)
    assert pct == pytest.approx(100.0 * rank / n)
    assert beyond == TAIL_BEYOND
    assert sum(1 for s in samples if s > value) == TAIL_BEYOND


def test_tail_with_ties_counts_samples_not_values():
    samples = [1.0] * 15 + [2.0] * 5
    assert tail(samples, len(samples)) == (1.0, 50.0, 10)


def test_tail_percentile_is_fixed_by_the_shortest_run():
    # a run of 30 samples fixes p66.7; a longer run reads that percentile
    short = [float(i) for i in range(1, 31)]
    assert tail(short, 30) == (20.0, pytest.approx(200 / 3), 10)
    value, pct, beyond = tail([float(i) for i in range(1, 61)], 30)
    assert (value, beyond) == (40.0, 20)
    assert pct == pytest.approx(200 / 3)


def test_tail_rejects_fewer_samples_than_promised():
    with pytest.raises(ValueError):
        tail([1.0] * 29, 30)


def test_reference_loop_counts_the_queens_solutions():
    assert REF_QUEENS == 7 and reference_loop() == 40


def test_normalized_removes_sampling_time_and_scales_to_nominal():
    assert normalized(1.0, 0.0, REF_NOMINAL_S) == pytest.approx(1.0)
    assert normalized(1.1, 0.1, 2 * REF_NOMINAL_S) == pytest.approx(0.5)


def test_sampler_samples_while_installed_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as speed:
        deadline = time.perf_counter() + 20 * SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    assert speed.samples >= 5 and speed.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    samples = speed.samples
    time.sleep(3 * SAMPLE_EVERY_S)
    assert speed.samples == samples
