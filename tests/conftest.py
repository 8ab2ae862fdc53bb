from types import SimpleNamespace

import pytest

from gaugemods import affine_space, circle_variety, sphere_variety


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
