"""Machine registry: Table I, II, III contents, and the MPI stack
behind each Table II machine."""

from __future__ import annotations

import pytest

from repro.machines import (
    MACHINES,
    MPI_IMPLEMENTATIONS,
    PERFORMANCE_ATTRIBUTES,
    SOFTWARE_STACK,
    get_machine,
)
from repro.machines.mpi import dpm_supported, mpi_implementation_for


class TestTable2:
    def test_all_four_systems(self):
        assert set(MACHINES) == {"titan", "ray", "sierra", "summit"}

    @pytest.mark.parametrize(
        "name,nodes,gpn,gpu,tflops,bw",
        [
            ("titan", 18688, 1, "K20X", 4, 250),
            ("ray", 54, 4, "P100", 44, 2880),
            ("sierra", 4200, 4, "V100", 60, 3600),
            ("summit", 4600, 6, "V100", 90, 5400),
        ],
    )
    def test_paper_values(self, name, nodes, gpn, gpu, tflops, bw):
        m = get_machine(name)
        assert m.nodes == nodes
        assert m.gpus_per_node == gpn
        assert m.gpu.name == gpu
        assert m.fp32_tflops_per_node == pytest.approx(tflops)
        assert m.gpu_bw_per_node_gbs == pytest.approx(bw)

    def test_cpu_gpu_bandwidth(self):
        assert get_machine("titan").cpu_gpu_bw_gbs == 6
        assert get_machine("sierra").cpu_gpu_bw_gbs == 75
        assert get_machine("summit").cpu_gpu_bw_gbs == 50

    def test_coral_systems_lack_gdr_at_submission(self):
        assert not get_machine("sierra").gdr_supported
        assert not get_machine("summit").gdr_supported

    def test_effective_bandwidth_anchors(self):
        """Cache factors calibrated to Section VII: 139/516/975 GB/s."""
        assert get_machine("titan").gpu.effective_bw_gbs == pytest.approx(142, abs=6)
        assert get_machine("ray").gpu.effective_bw_gbs == pytest.approx(533, abs=25)
        assert get_machine("sierra").gpu.effective_bw_gbs == pytest.approx(1044, abs=50)

    def test_cache_factor_grows_with_generation(self):
        t, r, s = (get_machine(n).gpu.cache_factor for n in ("titan", "ray", "sierra"))
        assert t < r < s

    def test_lookup_case_insensitive(self):
        assert get_machine("Sierra").name == "Sierra"

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            get_machine("frontier")

    def test_table_row_layout(self):
        row = get_machine("sierra").table_row()
        assert row[0] == "Sierra"
        assert len(row) == 12


class TestTable1:
    def test_attributes_match_paper(self):
        assert PERFORMANCE_ATTRIBUTES["Category of achievement"] == "time to solution"
        assert PERFORMANCE_ATTRIBUTES["precision"] == "mixed-precision"
        assert PERFORMANCE_ATTRIBUTES["measurement method"] == "FLOP count"
        assert len(PERFORMANCE_ATTRIBUTES) == 6


class TestTable3:
    def test_six_packages(self):
        assert len(SOFTWARE_STACK) == 6
        names = {p.name for p in SOFTWARE_STACK}
        assert names == {"Lalibe", "Chroma", "QUDA", "QDP++", "QMP", "mpi_jm"}

    def test_every_package_mapped_to_subsystem(self):
        for p in SOFTWARE_STACK:
            assert p.reproduced_by.startswith("repro.")

    def test_commits_recorded(self):
        quda = next(p for p in SOFTWARE_STACK if p.name == "QUDA")
        assert quda.commit == "6d7f74b"


# -- DPM capability gating (Table II x MPI_IMPLEMENTATIONS) -------------------


def test_mpi_implementation_resolution():
    assert mpi_implementation_for(MACHINES["sierra"]) is MPI_IMPLEMENTATIONS["mvapich2"]
    assert mpi_implementation_for(MACHINES["ray"]) is MPI_IMPLEMENTATIONS["spectrum"]
    assert mpi_implementation_for(MACHINES["summit"]) is MPI_IMPLEMENTATIONS["spectrum"]
    # Cray MPICH never fed the Fig. 5 model: no entry
    assert mpi_implementation_for(MACHINES["titan"]) is None


def test_dpm_gating_matches_modeled_stacks():
    """dpm_supported must agree with the comm-model's per-stack flag,
    with unmodeled stacks conservatively unsupported."""
    expected = {"sierra": True, "ray": False, "summit": False, "titan": False}
    for key, want in expected.items():
        assert dpm_supported(MACHINES[key]) is want, key
    for key, want in expected.items():
        impl = mpi_implementation_for(MACHINES[key])
        if impl is not None:
            assert impl.dpm_supported is want
