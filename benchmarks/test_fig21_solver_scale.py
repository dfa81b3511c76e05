"""Figure 21 benchmark: allocator scalability with problem size.

Paper: 75K/225K/375K shards on 1K/3K/5K servers; all violations fixed;
time grows 6.8x for 5x size.  Default scale-down preserves the 1:3:5
sweep (our pure-Python solver vs their C++ ReBalancer).
"""

from conftest import emit

from repro.experiments import fig21_solver_scale as experiment


def test_fig21_solver_scalability():
    result = experiment.run()
    emit(experiment.format_report(result))

    # "It is able to fix all violations in all stress tests."
    assert result.all_solved

    # The stress test started from real violation counts.
    for point in result.points:
        assert point.initial_violations > 0

    # Scaling shape: bigger problems take longer, superlinearly but far
    # from quadratically (paper: 6.8x time for 5x size).
    assert result.time_growth >= 2.0
    assert result.time_growth <= 25.0
    times = [p.solve_time for p in result.points]
    assert times == sorted(times)

    # Moves scale with problem size.
    moves = [p.moves for p in result.points]
    assert moves[-1] > moves[0]
