"""Tests for the fleet-bench harness (small fleets; gates must hold)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.fleet import run_churn_scenario, run_fleet_bench


@pytest.fixture(scope="module")
def report():
    return run_fleet_bench(
        n_tenants=6,
        frames_per_tenant=8,
        frames_per_tick=4,
        distinct_every=3,
        churn_ticks=8,
        seed=11,
    )


class TestRunFleetBench:
    def test_gates_hold(self, report):
        assert report.byte_identical
        assert report.ledger_reconciled
        assert report.counters_reconciled
        assert report.max_abs_delta == 0.0

    def test_every_frame_compared(self, report):
        assert report.n_compared == 6 * 8
        assert report.fused.frames == 6 * 8
        assert report.unfused.frames == 6 * 8

    def test_cohort_mix(self, report):
        # distinct_every=3 over 6 tenants: rooms 2 and 5 are odd-one-out.
        assert report.n_cohorts == 3
        assert 0.0 < report.fused.fusion_ratio < 1.0
        assert report.unfused.fusion_ratio == 0.0

    def test_describe_mentions_gates(self, report):
        text = report.describe()
        assert "byte identity        : OK" in text
        assert "ledger reconciliation: OK" in text
        assert "speedup" in text

    def test_to_json_payload(self, report):
        payload = report.to_json()
        assert payload["bench"] == "fleet-bench"
        assert payload["identity"]["byte_identical"] is True
        assert payload["identity"]["n_compared"] == 48
        assert payload["fleet"]["n_tenants"] == 6
        assert payload["throughput_fps"]["fused"] > 0
        assert payload["throughput_fps"]["unfused"] > 0

    def test_quick_shrinks_but_keeps_gates(self):
        quick = run_fleet_bench(quick=True, seed=3)
        assert quick.n_tenants == 8
        assert quick.frames_per_tenant == 16
        assert quick.byte_identical
        assert quick.ledger_reconciled
        assert quick.counters_reconciled

    def test_single_cohort_fleet(self):
        solo = run_fleet_bench(
            n_tenants=3,
            frames_per_tenant=4,
            frames_per_tick=2,
            distinct_every=0,
            seed=5,
        )
        assert solo.n_cohorts == 1
        assert solo.byte_identical
        assert solo.fused.fusion_ratio == 1.0

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            run_fleet_bench(n_tenants=0)
        with pytest.raises(ConfigurationError):
            run_fleet_bench(frames_per_tenant=0)
        with pytest.raises(ConfigurationError):
            run_fleet_bench(rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            run_fleet_bench(churn_ticks=-1)


class TestChurnArm:
    def test_report_carries_churn_audit(self, report):
        churn = report.churn
        assert churn is not None
        assert churn.ticks == 8
        assert churn.gates_ok
        assert churn.frames_served <= churn.frames_submitted

    def test_describe_mentions_churn_gates(self, report):
        text = report.describe()
        assert "churn identity       : OK" in text
        assert "churn ledger         : OK" in text

    def test_to_json_churn_payload(self, report):
        payload = report.to_json()["churn"]
        assert payload["byte_identical"] is True
        assert payload["ledger_reconciled"] is True
        assert payload["drain_exact"] is True
        assert payload["post_detach_serves"] == 0
        assert payload["ticks"] == 8
        assert payload["frames_submitted"] >= payload["frames_served"]

    def test_churn_ticks_zero_disables_arm(self):
        report = run_fleet_bench(
            n_tenants=3,
            frames_per_tenant=4,
            frames_per_tick=2,
            distinct_every=0,
            churn_ticks=0,
            seed=5,
        )
        assert report.churn is None
        assert report.to_json()["churn"] is None
        assert "churn" not in report.describe()


class TestRunChurnScenario:
    def test_gates_hold_and_churn_actually_happened(self):
        churn = run_churn_scenario(
            ticks=10, n_initial=4, n_inputs=16, tile=8, seed=7
        )
        assert churn.gates_ok
        assert churn.byte_identical
        assert churn.ledger_reconciled
        assert churn.drain_exact
        assert churn.post_detach_serves == 0
        assert churn.max_abs_delta == 0.0
        # The schedule must exercise elasticity, not just steady state.
        assert churn.detaches >= 1
        assert churn.drained_total >= 1
        assert churn.tenants_seen >= 4
        assert churn.n_compared == churn.frames_served

    def test_same_seed_same_audit(self):
        kwargs = dict(ticks=6, n_initial=3, n_inputs=16, tile=8, seed=3)
        assert run_churn_scenario(**kwargs) == run_churn_scenario(**kwargs)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            run_churn_scenario(ticks=0)
        with pytest.raises(ConfigurationError):
            run_churn_scenario(n_initial=2)
        with pytest.raises(ConfigurationError):
            run_churn_scenario(frames_per_tick=0)
