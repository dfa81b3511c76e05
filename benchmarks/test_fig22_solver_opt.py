"""Figure 22 benchmark: the §5.3 optimizations vs the plain local search.

Paper: the unoptimized baseline "cannot even finish in 300 seconds and
the resulting solution requires 22% more shard moves."
"""

from conftest import emit

from repro.experiments import fig22_solver_opt as experiment


def test_fig22_optimizations():
    result = experiment.run()
    emit(experiment.format_report(result))

    optimized = result.optimized
    baseline = result.baseline

    # The optimized solver converges comfortably inside the budget.
    assert optimized.solved
    assert not optimized.timed_out

    # The baseline is strictly worse: it either fails to converge in the
    # same budget or needs substantially more moves (paper: +22%).
    if baseline.solved:
        assert result.extra_move_fraction >= 0.15
    else:
        assert baseline.final_violations > 0

    # And the optimized run is never slower.
    assert optimized.solve_time <= baseline.solve_time * 1.5
