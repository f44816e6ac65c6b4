"""Table II: NAS FT/IS energy consumption (kJ) under the three schemes."""

import pytest

from repro.bench.experiments import plan_table2

#: Paper Table II values (kJ): kernel → {ranks: (default, freq, proposed)}.
PAPER_TABLE2 = {
    "nas-ft.C": {32: (16.36, 15.588, 15.472), 64: (17.056, 16.32, 16.16)},
    "nas-is.C": {32: (3.412, 3.248, 3.16), 64: (3.8456, 3.608, 3.52)},
}


def test_table2_nas_energy(report):
    headers, rows = report(
        "table2_nas_energy",
        "Table II - NAS power statistics (kJ)",
        plan_table2(),
    )
    for kernel, procs, default, freq, proposed in rows:
        paper = PAPER_TABLE2[kernel][procs]
        assert default == pytest.approx(paper[0], rel=0.05)
        assert proposed < freq < default  # scheme ordering
        measured_saving = 1 - proposed / default
        paper_saving = 1 - paper[2] / paper[0]
        assert abs(measured_saving - paper_saving) < 0.05
