"""Self-tests of the benchmark: tiny runs report every metric, and wrong answers count."""
from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    record = json.loads(lines[-2])["record"]
    assert record["fail_rate"] == 0
    assert record["seed"] == 7 and record["batch_size"] >= 1 and record["why"]
    assert set(record["machine"]) == {"nproc", "python", "platform"}
    assert any(line.startswith("fail_rate 0 ") for line in lines)


def test_wrong_answers_count_as_failures(tmp_path):
    assert run._source_tree()
    import csrecon.cli as cli
    import workloads

    cases = workloads.interval_large(5, workloads.TINY["interval_large"],
                                     lambda _name: nullcontext())
    batch = run.Batch(cases, tmp_path)
    result = batch.run_pass(cli)
    batch.read_sequences(result.outcomes)
    good = result.outcomes
    assert run.evaluate(cases, good) == [None] * len(cases)

    tar, tj, locked = good
    dist = int(tar.answer)
    steps = tar.sequence.splitlines()
    wrong = [
        (0, replace(tar, answer=str(dist + 2))),                      # length mismatch
        (0, replace(tar, answer="unreachable (locked)", code=1)),     # no locked set
        (0, replace(tar, sequence="\n".join(steps[:-1]) + "\n")),     # misses S2
        (0, replace(tar, verify_code=1, verify_answer="violation at step 0: x")),
        (1, replace(tj, answer=str(int(tj.answer) + 3))),             # 2*tj - |S^S2| = 6
        (2, replace(locked, answer="unreachable", code=1)),           # not the locked answer
        (2, replace(locked, code=2)),
    ]
    for i, outcome in wrong:
        outcomes = list(good)
        outcomes[i] = outcome
        reasons = run.evaluate(cases, outcomes)
        assert sum(r is not None for r in reasons) == 1 and reasons[i], outcome

    changed = list(good)
    changed[1] = replace(tj, answer="0")
    assert run.evaluate(cases, changed, good)[1] is not None


def test_tail_has_ten_instances_beyond_it():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail(list(range(20))) == (19, 100.0, 20)
