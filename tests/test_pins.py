"""The benchmark's pinned report hashes, checked in Tier-1.

Runs every config whose report `perfbench/pinned.json` pins, the desk config
and each word of the dd-chain and ideal-slices pools, through `cli.main` and
compares each report's sha256 with its pin, so a change that alters report
bytes fails here and not only in the benchmark.  One frontier case, outside
the benchmark, is pinned here as well.
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


@pytest.mark.parametrize("workload, key", [(key.split(":")[0], key) for key in sorted(PINS)])
def test_seed_zero_report_matches_its_pin(tmp_path, workload, key):
    # seed 0 runs desk.cfg and the first word of each pool; the other words
    # of a pool, which other seeds draw, run the same single-word config
    if workload == "desk":
        text = workloads.config_text(workload, 0, PERFBENCH.parent)
    else:
        text = workloads.word_config(workload, key.split(":")[1].split(","))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "r.json"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[key]


def test_g2_frontier_report_matches_its_pin(tmp_path):
    # main2 on G2's longest word at bound 10, the bound it needs; about 2 s
    out = tmp_path / "r.json"
    assert main(["verify", "main2", "--type", "G2", "--word", "1,2,1,2,1,2",
                 "--bound", "10", "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "c9d0ae1fdaa3f6592fabf3a9cd31d7885c7bec0eb01c7952f509d74a5b8bd6c6")
