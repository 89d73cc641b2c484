"""Shared fixtures for the benchmark harness.

``bench_experiments.py`` regenerates every table and figure of the paper
on the calibrated synthetic fleets; the ablations probe design choices on
them.  The fleets are generated once per session; pytest-benchmark
measures the analysis computation (not fleet generation).

Fleet size is configurable through environment variables so the same
harness scales from smoke runs to higher-fidelity sweeps::

    REPRO_BENCH_VOLUMES=100 REPRO_BENCH_DAY_SECONDS=480 pytest benchmarks/
"""

import os

import pytest

from repro.synth import Scale, make_alicloud_fleet, make_msrc_fleet

BENCH_VOLUMES = int(os.environ.get("REPRO_BENCH_VOLUMES", "40"))
BENCH_DAY_SECONDS = float(os.environ.get("REPRO_BENCH_DAY_SECONDS", "120"))

#: AliCloud-side scale: 31 compressed days (the paper's trace duration).
ALI_SCALE = Scale(n_days=31, day_seconds=BENCH_DAY_SECONDS)
#: MSRC-side scale: 7 compressed days.
MSRC_SCALE = Scale(n_days=7, day_seconds=BENCH_DAY_SECONDS)


@pytest.fixture(scope="session")
def ali():
    return make_alicloud_fleet(n_volumes=BENCH_VOLUMES, seed=0, scale=ALI_SCALE)


@pytest.fixture(scope="session")
def msrc():
    return make_msrc_fleet(n_volumes=36, seed=1, scale=MSRC_SCALE)


def run_once(benchmark, fn):
    """Benchmark an analysis exactly once (analyses are deterministic and
    heavy; statistical repetition adds nothing)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
