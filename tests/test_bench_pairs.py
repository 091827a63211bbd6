import importlib.util
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
