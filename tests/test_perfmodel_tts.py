"""Time-to-solution model (Table I category of achievement)."""

from __future__ import annotations

import pytest

from repro.machines import get_machine
from repro.perfmodel.tts import CampaignSpec, time_to_solution


class TestCampaignSpec:
    def test_inverse_square_statistics(self):
        s1 = CampaignSpec(target_precision=0.01)
        s2 = CampaignSpec(target_precision=0.005)
        assert s2.samples_needed == pytest.approx(4.0 * s1.samples_needed)

    def test_reference_point_calibration(self):
        """At Fig. 1's FH precision, samples ~ its 784-sample ensemble."""
        s = CampaignSpec(target_precision=0.0088)
        assert s.samples_needed == pytest.approx(784, rel=1e-9)

    def test_solves_scale_with_ensembles(self):
        a = CampaignSpec(target_precision=0.01, n_ensembles=1)
        b = CampaignSpec(target_precision=0.01, n_ensembles=15)
        assert b.solves_needed == pytest.approx(15.0 * a.solves_needed)

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(target_precision=0.0)
        with pytest.raises(ValueError):
            CampaignSpec(target_precision=0.01, n_ensembles=0)


class TestTimeToSolution:
    def test_more_nodes_faster(self):
        sierra = get_machine("sierra")
        spec = CampaignSpec(target_precision=0.01)
        small = time_to_solution(sierra, 400, spec)
        big = time_to_solution(sierra, 3200, spec)
        assert big.wall_seconds == pytest.approx(small.wall_seconds / 8.0, rel=0.01)

    def test_coral_beats_titan(self):
        spec = CampaignSpec(target_precision=0.01)
        titan = time_to_solution(get_machine("titan"), 10_000, spec)
        sierra = time_to_solution(get_machine("sierra"), 3388, spec, 0.93)
        assert titan.wall_seconds > 5.0 * sierra.wall_seconds

    def test_titan_to_sierra_as_time_to_solution(self):
        """Section VII's ~12x on the full machine, scaled to the 3388-node
        single job: 12 x 3388 / 4200 ~ 9.5."""
        from repro.workflow.speedup import TITAN_CAMPAIGN_NODES

        spec = CampaignSpec(target_precision=0.01)
        titan = time_to_solution(get_machine("titan"), TITAN_CAMPAIGN_NODES, spec)
        sierra = time_to_solution(get_machine("sierra"), 3388, spec, 0.93)
        assert titan.wall_seconds / sierra.wall_seconds == pytest.approx(9.0, abs=2.0)

    def test_mpi_penalty_slows_campaign(self):
        sierra = get_machine("sierra")
        spec = CampaignSpec(target_precision=0.01)
        tuned = time_to_solution(sierra, 400, spec, 1.0)
        untuned = time_to_solution(sierra, 400, spec, 0.93)
        assert untuned.wall_seconds == pytest.approx(tuned.wall_seconds / 0.93, rel=0.01)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            time_to_solution(get_machine("sierra"), 2, CampaignSpec(target_precision=0.01))

    def test_wall_days_conversion(self):
        sierra = get_machine("sierra")
        tts = time_to_solution(sierra, 400, CampaignSpec(target_precision=0.01))
        assert tts.wall_days == pytest.approx(tts.wall_seconds / 86_400.0)
