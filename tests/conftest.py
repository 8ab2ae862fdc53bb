import signal
from types import SimpleNamespace

import pytest

from gaugemods import affine_space, circle_variety, sphere_variety


TEST_TIME_LIMIT_S = 60  # the slowest test takes about 5 s


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT_S``.  Not an
    ``Exception``, so that hypothesis neither retries nor shrinks on it."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past the limit, so that a division that never
    ends (under a broken order key, say) stops one test, not the suite."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def sphere():
    return sphere_variety()


@pytest.fixture(scope="session")
def circle():
    return circle_variety()


@pytest.fixture(scope="session")
def affine1():
    return affine_space(["x"])


@pytest.fixture(scope="session")
def affine2():
    return affine_space(["x", "y"])


@pytest.fixture(scope="session")
def affine3():
    return affine_space(["x", "y", "z"])


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for one test in a
    counter and returns it; its ``calls`` is the number of calls so far."""

    def count(owner, name):
        counter = SimpleNamespace(calls=0)
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counter.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return counter

    return count
