import random

import pytest
from hypothesis import settings

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
    todd = TangentPipeline._todd

    def spy(pipe, k):
        if k:
            work.append((pipe, k))
        return todd(pipe, k)

    monkeypatch.setattr(TangentPipeline, "_todd", spy)
    return work
