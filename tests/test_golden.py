"""CLI stdout on the shipped fixtures, byte for byte against committed output.

The golden files are the stdout of `abring energy --config fixtures/table1.ini`
and `abring entropy --config fixtures/table2.ini`; a change that alters a
single printed byte has to regenerate them on purpose.
"""

from pathlib import Path

import pytest

from abring import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command,table", [("energy", "table1"), ("entropy", "table2")])
def test_stdout_matches_golden(command, table, fixtures_dir, capsys):
    assert cli.main([command, "--config", str(fixtures_dir / f"{table}.ini")]) == 0
    golden = (GOLDEN / f"{command}_{table}.csv").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden
