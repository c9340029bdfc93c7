"""Every experiment harness must reproduce its paper-shape expectations.

These are the calibration tests of DESIGN.md §3: who wins, where the
curves peak and cross, where the cliffs fall.
"""

import numpy as np
import pytest

from repro.core import SystemConfig
from repro.experiments import experiment_ids, run_experiment
from repro.experiments.headline import compute as compute_headline


@pytest.fixture(scope="module")
def fig15():
    return run_experiment("fig15")


class TestRegistry:
    def test_all_artefacts_registered(self):
        expected = {"fig04", "fig06", "fig08", "fig09", "fig10", "fig15",
                    "fig16", "fig17", "fig19a", "fig19b", "fig19c",
                    "headline", "table2-direct", "table2-indirect"}
        assert expected <= set(experiment_ids())

    def test_every_experiment_renders(self):
        for experiment_id in experiment_ids():
            result = run_experiment(experiment_id)
            text = result.render()
            assert experiment_id.split("-")[0] in text or result.title in text


class TestFig04:
    def test_ser_grows_with_n(self):
        fig = run_experiment("fig04")
        at_half = {}
        for series in fig.series:
            n = int(series.name.split("=")[1])
            idx = min(range(len(series.x)),
                      key=lambda i: abs(series.x[i] - 0.5))
            at_half[n] = series.y[idx]
        ns = sorted(at_half)
        assert [at_half[n] for n in ns] == sorted(at_half.values())

    def test_paper_magnitudes(self):
        # Fig. 4's y-axis reaches the 1e-3 decade at large N.
        fig = run_experiment("fig04")
        n120 = fig.get("N=120")
        assert 5e-3 < max(n120.y) < 2e-2
        n10 = fig.get("N=10")
        assert max(n10.y) < 1e-3
        assert max(n10.y) < min(n120.y)


class TestFig06:
    def test_nine_levels_before(self):
        fig = run_experiment("fig06")
        assert len(fig.get("before").x) == 9

    def test_semi_continuous_after(self):
        fig = run_experiment("fig06")
        after = fig.get("after")
        assert len(after.x) > 50
        # Largest gap between consecutive levels shrinks dramatically.
        gaps = np.diff(sorted(after.x))
        assert gaps.max() < 0.05

    def test_after_contains_before(self):
        fig = run_experiment("fig06")
        before_x = set(round(x, 6) for x in fig.get("before").x)
        after_x = set(round(x, 6) for x in fig.get("after").x)
        assert before_x <= after_x


class TestFig08:
    def test_bound_separates_patterns(self, config):
        fig = run_experiment("fig08")
        bound = fig.get("upper bound").y[0]
        n10 = fig.get("N=10")
        n63 = fig.get("N=63")
        assert max(n10.y) < bound       # small N fully below
        # The longest symbols are partially pruned: the curve crosses
        # the bound (Fig. 8's S(50, 0.3)-style abandonment).
        assert max(n63.y) > bound
        assert min(n63.y) < bound


class TestFig09:
    def test_envelope_dominates_staircase(self):
        fig = run_experiment("fig09")
        env = fig.get("AMPPM (envelope)")
        stairs = fig.get("without multiplexing")
        assert all(e >= s - 0.02 for e, s in zip(env.y, stairs.y))
        assert sum(e > s + 1e-6 for e, s in zip(env.y, stairs.y)) > 5

    def test_envelope_rate_band(self):
        # Fig. 9's y-range over [0.5, 0.7] sits around 0.8-0.95 bits/slot.
        fig = run_experiment("fig09")
        env = fig.get("AMPPM (envelope)")
        assert 0.75 < min(env.y) < max(env.y) < 1.0


class TestFig10:
    def test_fewer_perceived_steps(self):
        fig = run_experiment("fig10")
        note = fig.notes
        measured = int(note.split("measured-domain ")[1].split(",")[0])
        perceived = int(note.split("perceived-domain ")[1].split(" ")[0])
        assert perceived < measured / 1.5

    def test_markers_on_the_curve(self):
        fig = run_experiment("fig10")
        for name in ("measured-domain steps", "perceived-domain steps"):
            series = fig.get(name)
            for x, y in zip(series.x, series.y):
                assert y == pytest.approx(100 * np.sqrt(x / 100), abs=1e-6)


class TestFig15:
    def test_amppm_beats_mppm_everywhere(self, fig15):
        ampem, mppm = fig15.get("AMPPM"), fig15.get("MPPM")
        assert all(a >= m - 1e-9 for a, m in zip(ampem.y, mppm.y))

    def test_ookct_wins_only_near_half(self, fig15):
        ampem, ook = fig15.get("AMPPM"), fig15.get("OOK-CT")
        losing = [x for x, a, o in zip(ampem.x, ampem.y, ook.y) if o > a]
        assert all(0.45 <= x <= 0.55 for x in losing)
        assert losing  # the paper's narrow OOK-CT window exists

    def test_curves_peak_at_half(self, fig15):
        for series in fig15.series:
            peak_x = series.x[int(np.argmax(series.y))]
            assert 0.4 <= peak_x <= 0.6, series.name

    def test_rough_symmetry(self, fig15):
        ampem = fig15.get("AMPPM")
        assert ampem.value_at(0.1) == pytest.approx(ampem.value_at(0.9),
                                                    rel=0.2)

    def test_paper_absolute_band(self, fig15):
        # Fig. 15's y-axis: ~20 to ~115 kbps.
        all_y = [y for s in fig15.series for y in s.y]
        assert 15 < min(all_y) < 30
        assert 95 < max(all_y) < 125

    def test_extreme_dimming_gains(self, fig15):
        ampem, ook, mppm = (fig15.get(n) for n in ("AMPPM", "OOK-CT", "MPPM"))
        # Paper: AMPPM ~55.6, OOK-CT ~21.7, MPPM ~44.3 at l=0.1/0.9.
        assert ampem.value_at(0.1) / ook.value_at(0.1) > 1.8
        assert ampem.value_at(0.9) / mppm.value_at(0.9) > 1.1


class TestFig16:
    def test_flat_then_cliff(self):
        fig = run_experiment("fig16")
        mid = fig.get("dimming=0.5")
        peak = mid.y_max
        # Flat at 3 m (>=95% of peak), collapsed at 5 m (<20%).
        assert mid.value_at(3.0) > 0.95 * peak
        assert mid.value_at(5.0) < 0.2 * peak

    def test_knee_near_paper_value(self):
        fig = run_experiment("fig16")
        knee = float(fig.notes.split(": ")[1].split(" m")[0])
        assert 3.2 <= knee <= 3.8

    def test_dimming_does_not_change_cutoff(self):
        # Digital dimming varies duty cycle, not amplitude.
        fig = run_experiment("fig16")
        knees = []
        for series in fig.series:
            peak = series.y_max
            knees.append(max(x for x, y in zip(series.x, series.y)
                             if y >= 0.5 * peak))
        assert max(knees) - min(knees) <= 0.5


class TestFig17:
    def test_longer_distance_shorter_cutoff(self):
        fig = run_experiment("fig17")
        cutoffs = {}
        for series in fig.series:
            d = float(series.name.split("=")[1].rstrip("m"))
            peak = series.y_max
            cutoffs[d] = max((a for a, r in zip(series.x, series.y)
                              if r >= 0.9 * peak), default=0.0)
        assert cutoffs[1.3] >= cutoffs[2.3] >= cutoffs[3.3]
        assert cutoffs[3.3] < 16.0
        far = fig.get("distance=3.3m")
        assert min(far.y) < 0.5 * far.y_max

    def test_short_distance_holds_throughout(self):
        fig = run_experiment("fig17")
        near = fig.get("distance=1.3m")
        assert min(near.y) > 0.9 * near.y_max


class TestFig19:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.experiments.fig19_dynamic import run_scenario
        return run_scenario()

    def test_throughput_band(self, scenario):
        fig = run_experiment("fig19a", result=scenario)
        series = fig.get("AMPPM")
        assert 30 < min(series.y) < 60
        assert 90 < max(series.y) < 125

    def test_sum_flat(self, scenario):
        fig = run_experiment("fig19b", result=scenario)
        total = fig.get("sum")
        assert total.y_max - total.y_min < 1e-6

    def test_adaptation_halved(self, scenario):
        fig = run_experiment("fig19c", result=scenario)
        existing = fig.get("existing method")
        smart = fig.get("SmartVLC")
        ratio = existing.y[-1] / smart.y[-1]
        assert 1.6 <= ratio <= 2.4


class TestTable2:
    def test_direct_table_shape(self):
        table = run_experiment("table2-direct")
        assert table.header == ("Res.", "L1", "L2", "L3")
        assert len(table.rows) == 5
        assert table.rows[0][1:] == ("0%", "0%", "0%")
        assert table.rows[-1][1:] == ("100%", "100%", "100%")

    def test_indirect_table_shape(self):
        table = run_experiment("table2-indirect")
        assert table.rows[0][1:] == ("0%", "0%", "0%")
        assert table.rows[-1][1:] == ("100%", "100%", "100%")


class TestHeadline:
    def test_numbers_in_paper_ballpark(self):
        numbers = compute_headline()
        assert 0.30 <= numbers.mean_gain_over_ookct <= 0.55
        assert 0.05 <= numbers.mean_gain_over_mppm <= 0.20
        assert numbers.max_gain_over_ookct >= 0.9
        assert numbers.max_gain_over_mppm >= 0.15
        assert 3.2 <= numbers.knee_distance_m <= 3.8
        assert numbers.safe_resolution_direct >= 0.003
        assert 0.4 <= numbers.adaptation_reduction <= 0.6

    def test_table_reports_positive_average_gains(self):
        table = run_experiment("headline")
        measured = {row[0]: row[2] for row in table.rows}
        assert measured["avg gain vs OOK-CT"].startswith("+")
        assert measured["avg gain vs MPPM"].startswith("+")

    def test_custom_config_threads_through(self):
        table = run_experiment("headline", config=SystemConfig(n_cap=40))
        assert table.rows
