"""Tests of the benchmark's own input generator and traced child.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from qschub.weyl import root_datum  # noqa: E402

SEEDS = (0, 1, 2, 7, 12345)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_configs_are_deterministic(name):
    for seed in SEEDS:
        assert (workloads.config_text(name, seed, ROOT)
                == workloads.config_text(name, seed, ROOT))


def test_desk_seeds_only_reorder_cases():
    base = workloads.config_text("desk", 0, ROOT).splitlines()
    for seed in SEEDS[1:]:
        lines = workloads.config_text("desk", seed, ROOT).splitlines()
        assert sorted(lines) == sorted(base)
        assert [l for l in lines if not l.startswith("case")] == \
            [l for l in base if not l.startswith("case")]
    assert any(workloads.config_text("desk", s, ROOT) != "\n".join(base) + "\n"
               for s in SEEDS[1:])


@pytest.mark.parametrize("name", sorted(workloads.POOLS))
def test_every_drawn_word_is_a_reduced_word_of_w0(name):
    label, _, pool = workloads.POOLS[name]
    datum = root_datum(label)
    w0 = datum.longest_element()
    words = set(datum.all_reduced_words(w0))
    for word in pool:
        assert tuple(word) in words
        assert datum.from_word(word) == w0 and len(word) == w0.length


@pytest.mark.parametrize("name", sorted(workloads.POOLS))
def test_draws_stay_in_pool(name):
    pool = workloads.POOLS[name][2]
    assert {workloads.draw_word(name, seed) for seed in range(50)} == set(pool)


def test_seed_zero_reproduces_reference_inputs():
    assert workloads.config_text("desk", 0, ROOT) == (ROOT / "configs" / "desk.cfg").read_text()
    assert workloads.draw_word("dd-chain", 0) == (3, 2, 1, 3, 2, 1, 3, 2, 1)
    assert workloads.draw_word("ideal-slices", 0) == (1, 2, 1, 3, 2, 1)
    assert "case = B3 : 3,2,1,3,2,1,3,2,1 : main1b\n" in \
        workloads.config_text("dd-chain", 0, ROOT)
    assert "case = A3 : 1,2,1,3,2,1 : main2,main2-ind\n" in \
        workloads.config_text("ideal-slices", 0, ROOT)


def test_traced_child_reports_every_per_layer_metric(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("case = A2 : 1,2,1 : main1b,main2-ind\n")
    result = tmp_path / "result.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(cfg), str(tmp_path / "report.json"),
         str(result), "0.0", "--trace"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert len(data["checks"]) == 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the parent adds the overhead ratio from a paired untraced run
    want = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    assert set(data["layers"]) == want
    assert data["layers"]["trace.coverage_ratio"] >= 0.9
    spans = [json.loads(line) for line in
             (tmp_path / "result.json.spans.jsonl").read_text().splitlines()]
    checks = {s["check"] for s in spans if s["name"] == "check"}
    assert len(checks) == 2
    assert {s["check"] for s in spans if s["name"] == "cauchon.reexpress"} <= checks


def test_benchmark_spec_matches_the_code():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    speed = json.loads(run.SPEED.read_text())
    times = {name for name, unit in run.END_TO_END.items() if unit == "s"}
    assert all(set(speed[name]) == times for name in workloads.WORKLOADS)
    pins = json.loads(run.PINNED.read_text())["reports"]
    assert "desk" in pins
    for name, (_, _, pool) in workloads.POOLS.items():
        assert all(workloads.pin_key(name, word) in pins for word in pool)


def test_paired_campaigns_run_one_at_a_time(tmp_path):
    import run
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("case = A2 : 1,2,1 : main1b,main2-ind,poset\n")
    deadline = time.monotonic() + 120
    ours = run.Launcher(tmp_path, cfg, run.ROOT, "run", deadline)
    ref = run.Launcher(tmp_path, cfg, run.REFERENCE, "ref", deadline)
    t0 = time.monotonic()
    first, second = run.interleave((ours, {}), (ref, {}))
    elapsed = time.monotonic() - t0
    assert first["exit"] == second["exit"] == 0
    assert len(first["checks"]) == len(second["checks"]) == 3
    packages = {tag: json.loads((tmp_path / f"{tag}001.result.json").read_text())["package"]
                for tag in ("run", "ref")}
    assert packages == {"run": str(run.ROOT / "src" / "qschub"),
                        "ref": str(run.REFERENCE / "src" / "qschub")}
    # the turns of the two processes never overlap, and each is timed only
    # over its own turns
    turns = sorted(first["running"] + second["running"])
    assert len(turns) > 2
    assert all(a[1] <= b[0] for a, b in zip(turns, turns[1:]))
    for run_ in (first, second):
        assert 0 < sum(run_["checks"]) <= run_["wall"]
        assert 0 < run_["setup"]
    assert first["wall"] + second["wall"] < elapsed
