"""``ocsnet analyze`` output pinned byte for byte to recorded CSVs.

The files under ``tests/data`` were written by ``ocsnet analyze --profile
<profile> --sweep <sweep> --seeds 1``. A change to any closed form, the
switch split or the CSV formatting that moves a single digit fails here;
a deliberate change of values re-records them and says so.
"""
from pathlib import Path

import pytest
from click.testing import CliRunner

from ocsnet.cli import main

DATA = Path(__file__).parent / "data"

SWEEPS = {"load_x": "load_x=0:1:0.1", "phi": "phi=0:1:0.25", "k_c": "k_c=2:30:4"}


@pytest.mark.parametrize("var", sorted(SWEEPS))
@pytest.mark.parametrize("profile", ["paper-numeric", "paper-table1"])
def test_analyze_matches_the_recorded_csv(tmp_path, profile, var):
    out = CliRunner().invoke(main, ["analyze", "--profile", profile, "--sweep", SWEEPS[var],
                                    "--seeds", "1", "--out", str(tmp_path)])
    assert out.exit_code == 0, out.output
    want = (DATA / f"analyze_{profile}_{var}.csv").read_bytes()
    assert (tmp_path / "analyze.csv").read_bytes() == want
