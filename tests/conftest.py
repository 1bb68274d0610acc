import random

import pytest
from hypothesis import settings

import grasstodd.bundles as bundles_module
import grasstodd.chow as chow_module
from grasstodd.bundles import TangentPipeline

# One profile for the whole suite: deterministic runs, no flaky deadlines on
# the exact-arithmetic heavy cases.
settings.register_profile("suite", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("suite")


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=20260817,
        help="seed for the random-sampling oracle tests (default fixed)",
    )


@pytest.fixture
def rng(request) -> random.Random:
    return random.Random(request.config.getoption("--seed"))


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, seen) wraps owner.name while the test runs: each call
    whose arguments pass `seen` (default: every call) appends name to
    spy.calls, one list for every wrapped name."""
    calls = []

    def spy(owner, name, seen=lambda *args: True):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if seen(*args):
                calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    spy.calls = calls
    return spy


@pytest.fixture
def echelons_built(monkeypatch) -> list:
    """(shape, degree) of every h-table (`Engine.normal_forms` and
    `quotient_dim`) built while the test runs."""
    built = []
    build = chow_module._h_table

    def spy(engine, degree):
        built.append((engine.shape, degree))
        return build(engine, degree)

    monkeypatch.setattr(chow_module, "_h_table", spy)
    return built


@pytest.fixture
def todd_work(monkeypatch) -> list:
    """(pipeline, k) of every Todd piece of degree k >= 1 that a pipeline
    runs the recurrence for while the test runs."""
    work = []
    recurrence = TangentPipeline._recurrence

    def spy(pipe, k):
        if pipe.weight is bundles_module._todd_weight:
            work.append((pipe, k))
        return recurrence(pipe, k)

    monkeypatch.setattr(TangentPipeline, "_recurrence", spy)
    return work
