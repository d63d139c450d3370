import time
from pathlib import Path

import pytest

from abring import cli, entropy, model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _run_sweep(config_name: str):
    """Entropy pipeline over a fixture sweep; returns (rows, elapsed_seconds).

    Rows are (params, qn, report_or_None) in emission order.
    """
    cfg = cli.parse_config(FIXTURES / config_name)
    points = cli.expand_sweep(cfg)
    rows = []
    start = time.perf_counter()
    for params, qn in points:
        try:
            report = entropy.entropy_pipeline(params, qn, cfg.r_points, cfg.k_points)
        except model.NoBoundStateError:
            report = None
        rows.append((params, qn, report))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def table1_sweep():
    return _run_sweep("table1.ini")


@pytest.fixture(scope="session")
def table2_sweep():
    return _run_sweep("table2.ini")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
