import json

import pytest

from qschub.cli import main, parse_config, PreconditionError


def test_lp_table(capsys):
    assert main(["lp", "--type", "A2", "--word", "1,2,1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6  # one row per interval element


def test_lp_json_schema(tmp_path, capsys):
    path = tmp_path / "lp.json"
    assert main(["lp", "--type", "A2", "--word", "1,2,1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["word"] == [1, 2, 1]
    pairs = {p["y"]: p["lp"] for p in data["pairs"]}
    assert pairs["e"] == []
    assert pairs["s1"] == [1]
    assert pairs["s1.s2.s1"] == [1, 2, 3]


def test_non_reduced_word_is_exit_2(capsys):
    assert main(["lp", "--type", "A2", "--word", "1,1"]) == 2
    assert main(["roots", "--type", "A9", "--word", "1"]) == 2
    assert main(["verify", "main1b", "--type", "A2", "--word", "2,2"]) == 2


def test_bruhat_command(capsys):
    assert main(["bruhat", "--type", "A2", "--y", "1", "--w", "1,2,1"]) == 0
    assert "true" in capsys.readouterr().out
    assert main(["bruhat", "--type", "A2", "--y", "1,2", "--w", "2,1"]) == 0
    assert "false" in capsys.readouterr().out


def test_roots_command(tmp_path):
    path = tmp_path / "roots.json"
    assert main(["roots", "--type", "A2", "--word", "1,2,1", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["betas"] == [[1, 0], [1, 1], [0, 1]]


def test_minor_command(capsys):
    assert main(["minor", "--type", "A1", "--word", "1", "--j", "1"]) == 0
    out = capsys.readouterr().out
    assert "-q + q^[-1]" in out
    assert main(["minor", "--type", "A1", "--word", "1", "--j", "5"]) == 2


def test_verify_main1b_cli(capsys):
    assert main(["verify", "main1b", "--type", "A1", "--word", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_dd_run_emits_stages(tmp_path, capsys):
    path = tmp_path / "stages.json"
    assert main(["dd-run", "--type", "A2", "--word", "1,2,1",
                 "--emit", str(path)]) == 0
    data = json.loads(path.read_text())
    assert [s["stage"] for s in data["stages"]] == [3, 2]
    assert "rel 3 1" in data["relation_table"]


def test_parse_config():
    cfg = parse_config("""
        # a comment
        out = r.json
        bound = 6
        case = A1 : 1 : main1b,main2
        case = A3 : all<=6 : main1b
    """)
    assert cfg["bound"] == "6"
    assert cfg["cases"][0] == {"type": "A1", "word": "1",
                               "checks": ["main1b", "main2"]}
    assert cfg["cases"][1]["word"] == "all<=6"
    with pytest.raises(PreconditionError):
        parse_config("case = A1 : 1")


def test_campaign_runs_and_reproduces(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "bound = 4\n"
        "case = A1 : 1 : main1b,main2\n"
        "case = A2 : 2,1 : main1b\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["campaign", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["campaign", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    data = json.loads(out1.read_text())
    assert data["ok"] is True
    assert len(data["results"]) == 3
    assert all(r["ok"] for r in data["results"])
    assert any("rel" in r["relation_table"] or r["relation_table"].startswith("gens")
               for r in data["results"])


def test_package_surface_imports():
    import qschub
    assert qschub.__version__
    assert callable(qschub.verify_main1b)
    assert callable(qschub.lp_index_set)


def test_lp_poset_export(tmp_path):
    path = tmp_path / "poset.json"
    assert main(["lp", "--type", "A2", "--word", "1,2,1", "--json",
                 "--poset", str(path)]) == 0
    data = json.loads(path.read_text())
    assert len(data["nodes"]) == 6
    assert len(data["edges"]) == 8


def test_verify_gk_and_normality_cli(capsys):
    assert main(["verify", "gk", "--type", "A1", "--word", "1",
                 "--bound", "6"]) == 0
    assert main(["verify", "normality", "--type", "A1", "--word", "1",
                 "--bound", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_verify_report_out(tmp_path):
    path = tmp_path / "m2.json"
    assert main(["verify", "main2", "--type", "A1", "--word", "1",
                 "--bound", "4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["ok"] is True
    assert {c["y"]: c["cd"] for c in data["cases"]} == {"e": [], "s1": [1]}


def test_campaign_isolates_an_engine_failure(tmp_path, capsys):
    # bound 1 is too small for main2 on A2 1,2,1 (a BoundError); the other
    # checks must still run and the report must still be written
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "bound = 1\n"
        "case = A2 : 1,2,1 : main1b,main2\n"
        "case = A2 : 2,1 : main1b\n")
    out = tmp_path / "r.json"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["ok"] is False
    by_check = {(tuple(r["word"]), r["check"]): r for r in data["results"]}
    assert set(by_check) == {((1, 2, 1), "main1b"), ((1, 2, 1), "main2"),
                             ((2, 1), "main1b")}
    failed = by_check[((1, 2, 1), "main2")]
    assert failed["ok"] is False and "bound" in failed["report"]["error"]
    assert by_check[((1, 2, 1), "main1b")]["ok"]
    assert by_check[((2, 1), "main1b")]["ok"]
    assert "FAIL main2 A2 1,2,1: " in capsys.readouterr().out


@pytest.mark.parametrize("line, why", [
    ("bownd = 1", "unknown key 'bownd'"),
    ("bound = six", "bound needs an integer, got 'six'"),
    ("case = A2 : 2,1 : main1bb", "unknown check 'main1bb'"),
    ("case = A2 : 1,1 : main1b", "not reduced"),
    ("case = A9 : 1 : main1b", "out of range"),
    ("case = : 1 : main1b", "bad type label ''"),
    ("case = A2 : 1,x : main1b", "comma-separated letters"),
    ("case = A3 : all<=six : main1b", "all<= needs an integer"),
    ("bound = 0", "bound must be at least 1, got 0"),
    ("gk_bound = -2", "gk_bound must be at least 1, got -2"),
    ("normality_bound = 0", "normality_bound must be at least 1, got 0"),
    ("lambda_budget = 0", "lambda_budget must be at least 1, got 0"),
    ("length_cap = 0", "length_cap must be at least 1, got 0"),
    ("case = A3 : all<=0 : main1b", "all<= must be at least 1, got 0"),
])
def test_campaign_rejects_a_bad_config_before_any_check(tmp_path, capsys, line, why):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = A1 : 1 : main1b\n" + line + "\n")
    out = tmp_path / "r.json"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: line 2: " in captured.err and why in captured.err
    assert "PASS" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--bound", "--lambda-budget"])
def test_verify_rejects_a_non_positive_setting(capsys, flag):
    assert main(["verify", "main2", "--type", "A1", "--word", "1", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be at least 1, got 0" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_verify_main2_ind_with_nothing_to_compare_does_not_pass(capsys):
    assert main(["verify", "main2-ind", "--type", "A2", "--word", "1,2,1",
                 "--bound", "1"]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "compares no degree at bound 1; it needs bound >= 3" in captured.err


def test_campaign_shares_one_lab_per_word_and_bound(tmp_path, built_labs):
    checks = ("main2", "main2-ind", "poset", "gk", "normality")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"case = A2 : 1,2,1 : {','.join(checks)}\n")
    out = tmp_path / "r.json"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
    # bounds 6, 8 and 4, and one lab of the shorter word for main2-ind
    assert len(built_labs) == 4
    results = {r["check"]: r for r in json.loads(out.read_text())["results"]}
    for check in checks:
        alone = tmp_path / f"{check}.json"
        assert main(["verify", check, "--type", "A2", "--word", "1,2,1",
                     "--bound", str(results[check]["bound"]),
                     "--out", str(alone)]) == 0
        assert json.loads(alone.read_text()) == results[check]["report"], check


def test_drivers_leave_shared_slices_unchanged():
    import copy
    from qschub.cli import _verify_one
    from qschub.ideals import IdealLab
    from qschub.schubert import schubert_cell

    def state(sl):
        return (sl.bound, sl.saturated, sl.lambdas_used, sl.dims_ambient,
                {h: (e.pivots, e.rows) for h, e in sl.slices.items()})

    lab = IdealLab(schubert_cell("A2", (1, 2, 1)), 6)
    for y in lab.datum.lower_interval(lab.cell.word.element):
        lab.slices(y.reduced_word())
    before = copy.deepcopy({y: state(sl) for y, sl in lab._slices.items()})
    for check in ("main2", "main2-ind", "poset", "normality"):
        rep, ok = _verify_one(check, "A2", (1, 2, 1), 6, 12, {6: lab})
        assert ok, check
    assert {y: state(sl) for y, sl in lab._slices.items()} == before
