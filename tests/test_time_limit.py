import signal
import time

import pytest

from conftest import TEST_TIME_LIMIT


def test_every_test_runs_under_the_time_limit():
    remaining = signal.alarm(0)
    signal.alarm(remaining)
    assert 0 < remaining <= TEST_TIME_LIMIT


def test_deadline_nests_inside_the_time_limit(deadline):
    with pytest.raises(TimeoutError, match="after 1 s"):
        with deadline(1):
            time.sleep(5)
    remaining = signal.alarm(0)
    signal.alarm(remaining)
    assert 0 < remaining <= TEST_TIME_LIMIT


def test_a_caught_timeout_fires_again(deadline):
    with pytest.raises(TimeoutError):
        with deadline(1):
            try:
                time.sleep(5)
            except TimeoutError:
                pass
            time.sleep(5)
