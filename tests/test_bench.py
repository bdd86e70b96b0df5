import pytest

from hhfactor import bench
from hhfactor.bench import run_benchmark


def test_benchmark_report_structure():
    report = run_benchmark(n=128, m_list=(4, 8), seed=1, repeats=30)
    assert report.m_list == (4, 8)
    assert len(report.apply_seconds) == 2
    assert all(seconds > 0.0 for seconds in report.apply_seconds)
    assert report.dense_seconds > 0.0
    assert report.ratio == report.apply_seconds[1] / report.apply_seconds[0]
    lo, hi = report.ratio_window
    assert lo == 1.25 and hi == 2.75  # 2x ideal with the documented slack
    assert len(report.lines()) == 5


def test_benchmark_requires_two_sizes():
    import pytest

    with pytest.raises(ValueError, match="two m values"):
        run_benchmark(n=64, m_list=(4,), repeats=5)


def test_benchmark_requires_a_repeat():
    import pytest

    # a median over no samples is NaN and would read as a scaling verdict
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        run_benchmark(n=64, m_list=(4, 8), repeats=0)


@pytest.mark.parametrize(
    "m_list,message",
    [((0, 8), "at least 1, got 0"), ((-4, 8), "at least 1, got -4"), ((8, 8), "repeats"),
     ((4, 8, 4), "repeats")],
    ids=["zero", "negative", "only-a-repeat", "repeat-among-others"],
)
def test_benchmark_rejects_bad_m_lists(monkeypatch, m_list, message):
    def refuse(spec):
        raise AssertionError("synthesized before the m list was checked")

    monkeypatch.setattr(bench, "synthesize", refuse)
    with pytest.raises(ValueError, match=message):
        run_benchmark(n=64, m_list=m_list, repeats=5)
