import importlib.util
import json
from pathlib import Path

path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", path)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pair(seed, parent, change):
    return {"seed": seed, "parent": parent, "change": change}


def test_summarize_medians_quartiles_and_wins():
    pairs = [
        pair(1, {"wall_s": 4.0, "success_rate": 1.0}, {"wall_s": 2.0, "success_rate": 1.0}),
        pair(2, {"wall_s": 2.0, "success_rate": 1.0}, {"wall_s": 3.0, "success_rate": 0.5}),
        pair(3, {"wall_s": 3.0, "success_rate": 0.5}, {"wall_s": 1.0, "success_rate": 1.0}),
        pair(4, {"wall_s": 5.0, "success_rate": 1.0}, {"wall_s": 5.0, "success_rate": 1.0}),
        pair(5, {"wall_s": 6.0, "success_rate": 1.0}, {"wall_s": 4.0, "success_rate": 1.0}),
    ]
    out = bench_pairs.summarize(pairs, higher_better={"success_rate"})
    assert out["wall_s"] == {
        "parent": {"median": 4.0, "q1": 3.0, "q3": 5.0},
        "change": {"median": 3.0, "q1": 2.0, "q3": 4.0},
        "change_pct": -25.0,
        "wins": 3,  # pair 4 is a tie
        "pairs": 5,
    }
    rate = out["success_rate"]
    assert rate["wins"] == 1 and rate["change_pct"] == 0.0  # higher is better: only pair 3 is won
    assert rate["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_summarize_one_pair_and_zero_base():
    out = bench_pairs.summarize([pair(7, {"cli.faces_s": 0.0}, {"cli.faces_s": 0.5})])
    assert out["cli.faces_s"]["parent"] == {"median": 0.0, "q1": 0.0, "q3": 0.0}
    assert out["cli.faces_s"]["change_pct"] == 0.0 and out["cli.faces_s"]["wins"] == 0


def test_an_incorrect_run_still_writes_the_file_then_fails(tmp_path, monkeypatch, capsys):
    """A run with ``correct: false`` is summarized and written, then named on stderr."""
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}],
    }))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        side = "change" if checkout.endswith("change") else "parent"
        return not (seed == 11 and side == "change"), {"wall_s": 1.0 + len(calls)}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "complex",
            "--pairs", "3", "--seed", "10", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert len(calls) == 6
    doc = json.loads(out.read_text())
    pairs = doc["workloads"]["complex"]["pairs"]
    assert [pair["correct"] for pair in pairs] == [[True, True], [True, False], [True, True]]
    assert doc["workloads"]["complex"]["metrics"]["wall_s"]["pairs"] == 3
    assert "pair 1 (seed 11) change" in capsys.readouterr().err


def test_a_failed_run_writes_the_pairs_so_far_then_fails(tmp_path, monkeypatch, capsys):
    """A run exiting nonzero stops the loop; the pairs before it are written and it is named."""
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}],
    }))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        if seed == 21 and checkout.endswith("parent"):
            raise bench_pairs.RunError(3, "Traceback: boom")
        return True, {"wall_s": 1.0 + len(calls)}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "census",
            "--pairs", "4", "--seed", "20", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert len(calls) == 4  # pair 1 runs the change first, then its parent run fails
    doc = json.loads(out.read_text())
    assert [pair["seed"] for pair in doc["workloads"]["census"]["pairs"]] == [20]
    assert doc["workloads"]["census"]["metrics"]["wall_s"]["pairs"] == 1
    assert doc["seeds"]["census"] == "20-20"
    err = capsys.readouterr().err
    assert "pair 1 (seed 21) parent failed, exit code 3" in err and "boom" in err
