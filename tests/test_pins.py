"""The benchmark's pinned report hashes, checked in Tier-1.

Runs the desk config and the seed-0 dd-chain and ideal-slices configs through
`cli.main` and compares each report's sha256 with `perfbench/pinned.json`, so
a change that alters report bytes fails here and not only in the benchmark.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from qschub.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

PINS = json.loads((PERFBENCH / "pinned.json").read_text())["reports"]


@pytest.mark.parametrize("workload, key", [
    ("desk", "desk"),
    ("dd-chain", "dd-chain:3,2,1,3,2,1,3,2,1"),
    ("ideal-slices", "ideal-slices:1,2,1,3,2,1"),
])
def test_seed_zero_report_matches_its_pin(tmp_path, workload, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(workloads.config_text(workload, 0, PERFBENCH.parent))
    out = tmp_path / "r.json"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[key]
