"""Every table and figure of the paper, as one timed ``render_experiments``.

Prints the report ``repro experiments`` prints, on this harness's fleets
(``REPRO_BENCH_VOLUMES`` / ``REPRO_BENCH_DAY_SECONDS``, see conftest).
The paper's shape is asserted on the same sections' data by the tier-1
tests in ``tests/test_paper_shape.py``.
"""

from repro.core import EXPERIMENTS, render_experiments

from conftest import ALI_SCALE, MSRC_SCALE, run_once


def test_experiments_report(benchmark, ali, msrc):
    report = run_once(
        benchmark,
        lambda: render_experiments(
            ali,
            msrc,
            day_seconds=ALI_SCALE.day_seconds,
            n_days_ali=ALI_SCALE.n_days,
            n_days_msrc=MSRC_SCALE.n_days,
        ),
    )
    print()
    print(report)
    for exp_id, _ in EXPERIMENTS:
        assert f"=== {exp_id} " in report
