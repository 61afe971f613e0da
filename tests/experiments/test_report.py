"""Rendering helpers: tables and sparklines."""

import numpy as np
import pytest

from repro.experiments.report import (
    QUARANTINED,
    format_cell,
    format_count,
    format_percent,
    mean_or_none,
    sparkline,
    text_table,
)


class TestTextTable:
    def test_alignment(self):
        text = text_table(["name", "value"], [["a", "1"], ["longer", "22"]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        # All rows align on the second column.
        column = lines[0].index("value")
        assert lines[2][column - 2:].lstrip().startswith("1")

    def test_title_underlined(self):
        text = text_table(["h"], [["x"]], title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert lines[1] == "=" * len("My Table")

    def test_short_rows_padded(self):
        text = text_table(["a", "b"], [["only-a"]])
        assert "only-a" in text


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == "(empty series)"

    def test_monotone_ramp(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "▁▁▁"

    def test_downsampled_to_width(self):
        line = sparkline(np.arange(1000), width=50)
        assert len(line) == 50

    def test_constant_peaks(self):
        line = sparkline([5.0, 5.0])
        assert line == "██"


class TestFormatting:
    def test_format_count(self):
        assert format_count(1234567.0) == "1,234,567"

    def test_format_percent(self):
        assert format_percent(6.014) == "6.01%"
        assert format_percent(0.6789, digits=1) == "0.7%"


class TestQuarantinedCells:
    """A statistic with no surviving trial renders as an explicit
    ``n=0 (quarantined)`` cell, never as NaN."""

    def test_helpers(self):
        assert mean_or_none([]) is None
        assert mean_or_none([1.0, 3.0]) == 2.0
        assert format_cell(None, ".2f") == QUARANTINED
        assert format_cell(1.234, ".2f") == "1.23"

    def test_table1(self):
        from repro.experiments import table1

        gflops = {name: None for name in table1.TOOLS}
        gflops["k-leb"] = 37.0
        result = table1.Table1Result(
            gflops=gflops, loss_percent={name: None for name in gflops},
            trials=3, problem_size=100, period_ns=10_000_000)
        text = table1.render(result)
        assert "37.00" in text and QUARANTINED in text
        assert "nan" not in text
        assert table1.undefined_headlines(result) == ["K-LEB performance loss"]
        result.loss_percent["k-leb"] = 0.5
        assert table1.undefined_headlines(result) == []

    def test_fig4(self):
        from repro.experiments import fig4
        from repro.faults import FaultPlan, RunLedger

        ledger = RunLedger()
        result = fig4.run(trials=2, problem_size=500,
                          faults=FaultPlan.parse("seed=11,persistent=1.0"),
                          fault_ledger=ledger)
        assert result.series is None and result.segments == []
        text = fig4.render(result)
        assert QUARANTINED in text and "nan" not in text
        assert fig4.undefined_headlines(result) == ["LINPACK phase series"]
        defined = fig4.run(trials=1, problem_size=500)
        assert fig4.undefined_headlines(defined) == []
        assert QUARANTINED not in fig4.render(defined)

    def test_fig6(self):
        from repro.experiments import fig6

        means = {event: None for event in fig6.EVENTS}
        result = fig6.Fig6Result(
            clean_means=means, attack_means=means, clean_mpki=None,
            attack_mpki=None, clean_samples_mean=None,
            attack_samples_mean=None, rounds=3, period_ns=100_000)
        text = fig6.render(result)
        assert QUARANTINED in text and "nan" not in text
        assert fig6.undefined_headlines(result) == ["clean MPKI",
                                                    "attack MPKI"]
        result.clean_mpki = 7.5
        assert fig6.undefined_headlines(result) == ["attack MPKI"]

    def test_table2_with_empty_populations(self):
        from repro.experiments import table2
        from repro.experiments.overhead_common import ToolRuns

        runs_data = {name: ToolRuns(tool=name) for name in table2.TOOLS}
        runs_data["k-leb"].wall_ns = [2.0e9]
        result = table2.OverheadTableResult(
            title="t", stats=table2.summarize_tools(runs_data),
            runs_data=runs_data, runs=1, period_ns=10_000_000)
        assert result.stats == {}
        assert result.kleb_vs_next_best_percent is None
        assert table2.undefined_headlines(result) == [
            "K-LEB vs next-best tool"]
        text = table2.render(result)
        assert "2.0000" in text and QUARANTINED in text
        assert "nan" not in text

    @pytest.mark.parametrize("survivors", [
        {}, {"none": [1.0e9, 1.1e9]}, {"k-leb": [1.2e9]},
        {"none": [1.0e9], "k-leb": [1.2e9, 1.3e9]},
    ])
    def test_fig8_with_empty_populations(self, monkeypatch, survivors):
        """Emptied populations (the baseline's included) become
        quarantined rows: no empty mean, no ExperimentError, no NaN."""
        import warnings

        from repro.experiments import fig8
        from repro.experiments.overhead_common import ToolRuns

        def emptied_runs(program, tool_names, **kwargs):
            runs_data = {name: ToolRuns(tool=name) for name in tool_names}
            for name, wall_ns in survivors.items():
                runs_data[name].wall_ns = list(wall_ns)
            return runs_data

        monkeypatch.setattr(fig8, "collect_tool_runs", emptied_runs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fig8.run(runs=2, n=8)
            text = fig8.render(result)
        assert set(result.boxes) == (set(survivors) if "none" in survivors
                                     else set())
        assert set(result.quarantined) == set(fig8.TOOLS) - set(result.boxes)
        assert QUARANTINED in text and "nan" not in text
        tightest = ("k-leb" if "k-leb" in result.boxes
                    else "n/a (every monitored population quarantined)")
        assert f"tightest monitored spread: {tightest} " in text
        assert fig8.undefined_headlines(result) == (
            [] if "k-leb" in result.boxes else ["tightest monitored spread"])
