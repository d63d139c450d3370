"""CLI stdout on the shipped fixtures, byte for byte against committed output.

The golden files are the stdout of `abring energy --config fixtures/table1.ini`
(CSV and `--format json`) and `abring entropy --config fixtures/table2.ini`; a
change that alters a single printed byte has to regenerate them on purpose.
"""

from pathlib import Path

import pytest

from abring import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command,table,fmt", [
    pytest.param("energy", "table1", "csv", id="energy-table1"),
    pytest.param("entropy", "table2", "csv", id="entropy-table2"),
    pytest.param("energy", "table1", "json", id="energy-table1-json")])
def test_stdout_matches_golden(command, table, fmt, fixtures_dir, capsys):
    config = str(fixtures_dir / f"{table}.ini")
    assert cli.main([command, "--config", config, "--format", fmt]) == 0
    golden = (GOLDEN / f"{command}_{table}.{fmt}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden
