"""Table I: CPMD energy consumption (kJ) under the three schemes."""

import pytest

from repro.bench.experiments import plan_table1

#: Paper Table I values (kJ): dataset → {ranks: (default, freq, proposed)}.
PAPER_TABLE1 = {
    "cpmd.wat-32-inp-1": {32: (28.4736, 27.096, 27.20), 64: (31.79, 29.944, 29.49)},
    "cpmd.wat-32-inp-2": {32: (32.76, 31.72, 31.36), 64: (38.68, 38.84, 38.13)},
    "cpmd.ta-inp-md": {32: (265.56, 259.48, 258.96), 64: (304.5312, 289.20, 281.04)},
}


def test_table1_cpmd_energy(report):
    headers, rows = report(
        "table1_cpmd_energy",
        "Table I - CPMD power statistics (kJ)",
        plan_table1(),
    )
    for dataset, procs, default, freq, proposed in rows:
        paper = PAPER_TABLE1[dataset][procs]
        # Absolute agreement with the paper's default column within 5%.
        assert default == pytest.approx(paper[0], rel=0.05)
        # The proposed scheme always saves energy vs default.
        assert proposed < default
        # Saving magnitude tracks the paper within a few percent of total.
        measured_saving = 1 - proposed / default
        paper_saving = 1 - paper[2] / paper[0]
        assert abs(measured_saving - paper_saving) < 0.05
