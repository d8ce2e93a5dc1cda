"""End-to-end command tests: exit codes, answer lines, files."""
from __future__ import annotations

import gc
import io
import os
import random
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from csrecon import (
    Instance,
    core,
    model_from_intervals,
    parse_instance,
    parse_sequence,
    render_instance,
    verify_sequence,
)
from csrecon import cli
from csrecon.cli import build_parser, main
from csrecon.generators import greedy_set, random_endpoints

E1 = """\
format: csr/1
rule: tar
c: 1
k: 1
repr: intervals
n: 3
body:
1 1
1 2
2 2
S: 0
S2: 2
"""

E2 = """\
format: csr/1
rule: tar
c: 1
k: 1
repr: intervals
n: 2
body:
1 1
1 1
S: 0
S2: 1
"""

E4 = """\
format: csr/1
rule: tar
c: 1
k: 1
repr: intervals
n: 4
body:
1 1
1 2
2 2
3 3
S: 1
S2: 0 2
"""

SPLIT_REACHABLE = """\
format: csr/1
rule: tar
c: 1
k: 1
repr: split
n: 4
body:
K: 0 1
3
0 1
2 0
3 1
S: 0 3
S2: 1 2
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_e1(tmp_path, capsys):
    inst = _write(tmp_path, "e1.csr", E1)
    seq_path = str(tmp_path / "e1.seq")
    code = main(["solve", inst, "--emit-sequence", "--out", seq_path])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "2"
    seq = parse_sequence((tmp_path / "e1.seq").read_text())
    assert seq.steps == [("+", 2), ("-", 0)]
    assert verify_sequence(parse_instance(E1), seq).ok


def test_solve_e2_locked(tmp_path, capsys):
    inst = _write(tmp_path, "e2.csr", E2)
    code = main(["solve", inst])
    out = capsys.readouterr().out
    assert code == 1 and out.strip() == "unreachable (locked)"


def test_solve_malformed(tmp_path, capsys):
    inst = _write(tmp_path, "bad.csr", "format: csr/1\nnot a thing\n")
    code = main(["solve", inst])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, what", [
    (E1.replace("n: 3", "n: 100000000000000000000"), "interval endpoints"),
    ("format: csr/1\nrule: tar\nc: 1\nk: 0\nrepr: edges\nn: 2\nbody:\n"
     "100000000000000000000\n0 1\nS: 0\nS2: 1\n", "edges"),
], ids=["intervals-n", "edge-count"])
def test_oversized_body_counts_end_early(tmp_path, capsys, text, what):
    # counts past sys.maxsize, which islice refuses, read like any count the body falls short of
    assert main(["solve", _write(tmp_path, "big.csr", text)]) == 2
    assert f"body ended early while reading {what}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["tar-k0", "tj", "tar-locked"])
def test_interval_solve_and_verify_validate_each_set_once(tmp_path, capsys, monkeypatch, kind):
    # parsing checks S and S2 with one clique-count pass each; the engine and the
    # replay take the trackers that check built, and tj's one verdict gives both answers
    rng = random.Random(kind)
    endpoints = random_endpoints(rng, 300, coord_max=600, max_len=6)
    model = model_from_intervals(endpoints)
    start, target = greedy_set(model, 2, rng), greedy_set(model, 2, rng)
    rule, k = "tar", 0
    if kind == "tj":
        size = min(len(start), len(target))
        start, target = set(sorted(start)[:size]), set(sorted(target)[:size])
        rule = "tj"
    elif kind == "tar-locked":
        k = min(len(start), len(target))  # both maximal, so the smaller is locked in G
    path = _write(tmp_path, "inst.csr", render_instance(
        Instance(model, rule, 2, k, start, target, endpoints=endpoints)))
    seq_path = str(tmp_path / "inst.seq")
    passes = []
    counts = core.interval_clique_counts
    monkeypatch.setattr(core, "interval_clique_counts",
                        lambda *args: passes.append(1) or counts(*args))
    code = main(["solve", path, "--emit-sequence", "--out", seq_path])
    out = capsys.readouterr().out.strip()
    assert len(passes) == 2
    if kind == "tar-locked":
        assert (code, out) == (1, "unreachable (locked)")
        return
    assert code == 0 and int(out) == len(start ^ target) // (2 if rule == "tj" else 1)
    passes.clear()
    assert main(["verify", path, seq_path]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert len(passes) == 2


def test_solve_split(tmp_path, capsys):
    inst = _write(tmp_path, "s.csr", SPLIT_REACHABLE)
    seq_path = str(tmp_path / "s.seq")
    code = main(["solve", inst, "--emit-sequence", "--out", seq_path])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "reachable"
    seq = parse_sequence((tmp_path / "s.seq").read_text())
    assert verify_sequence(parse_instance(SPLIT_REACHABLE), seq).ok


@pytest.mark.parametrize("target", ["0 3", "1 2"])
def test_split_tj_emits_a_sequence_that_verifies(tmp_path, capsys, target):
    # the split witness converted to swaps; S2 = S as well as S2 != S
    text = SPLIT_REACHABLE.replace("rule: tar", "rule: tj").replace("S2: 1 2", f"S2: {target}")
    inst = _write(tmp_path, "s.csr", text)
    seq_path = str(tmp_path / "s.seq")
    code = main(["solve", inst, "--emit-sequence", "--out", seq_path])
    assert code == 0 and capsys.readouterr().out.strip() == "reachable"
    assert main(["verify", inst, seq_path]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    code = main(["solve", inst, "--emit-sequence"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--emit-sequence requires --out" in captured.err


EDGES_PATH = """\
format: csr/1
rule: tar
c: 1
k: 0
repr: edges
n: 3
body:
2
0 1
1 2
S: 0
S2: 2
"""


@pytest.mark.parametrize("text", [EDGES_PATH, SPLIT_REACHABLE], ids=["edges", "split"])
def test_oversized_vertex_count_is_refused_before_allocating(tmp_path, capsys, text):
    # a count past sys.maxsize is refused before [...] * n can raise OverflowError
    big = "100000000000000000000"
    inst = _write(tmp_path, "big.csr", re.sub(r"^n: \d+$", f"n: {big}", text, flags=re.M))
    began = time.perf_counter()
    assert main(["solve", inst]) == 2
    assert time.perf_counter() - began < 0.1
    captured = capsys.readouterr()
    assert captured.out == "" and f"vertex count {big}" in captured.err


def test_emit_sequence_without_out_is_refused_before_solving(tmp_path, capsys):
    cases = [("solve", E1), ("solve", E1.replace("rule: tar", "rule: tj")),
             ("solve", SPLIT_REACHABLE), ("oracle", EDGES_PATH)]
    for i, (command, text) in enumerate(cases):
        inst = _write(tmp_path, f"{i}.csr", text)
        code = main([command, inst, "--emit-sequence"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--emit-sequence requires --out" in captured.err
    # the report has no sequence to write, so it refuses --emit-sequence
    code = main(["oracle", inst, "--report", "--emit-sequence"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--emit-sequence cannot be combined with --report" in captured.err


def test_distance_command(tmp_path, capsys):
    inst = _write(tmp_path, "e4.csr", E4)
    code = main(["distance", inst])
    assert code == 0 and capsys.readouterr().out.strip() == "5"


def test_distance_has_no_max_c(tmp_path):
    inst = _write(tmp_path, "e4.csr", E4)
    with pytest.raises(SystemExit) as exc:
        main(["distance", inst, "--max-c", "3"])
    assert exc.value.code == 2


def test_oracle_command(tmp_path, capsys):
    inst = _write(tmp_path, "e4.csr", E4)
    code = main(["oracle", inst])
    assert code == 0 and capsys.readouterr().out.strip() == "5"


def test_oracle_report(tmp_path, capsys):
    inst = _write(tmp_path, "e2.csr", E2)
    code = main(["oracle", inst, "--report"])
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "components: 2; sizes: 1 1; diameters: 0 0"


def test_oracle_report_state_cap(tmp_path, capsys):
    # 2^11 colorable sets on the edgeless graph: over the default report cap
    edgeless = _write(tmp_path, "e11.csr", """\
format: csr/1
rule: tar
c: 1
k: 0
repr: edges
n: 11
body:
0
S:
S2:
""")
    code = main(["oracle", edgeless, "--report"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "oracle guard" in captured.err and "max_states=1024" in captured.err
    assert "--max-states" in captured.err
    # an explicit --max-states replaces the default cap
    e2 = _write(tmp_path, "e2.csr", E2)
    assert main(["oracle", e2, "--report", "--max-states", "1"]) == 2
    assert "max_states=1" in capsys.readouterr().err


def test_oracle_refuses_a_walk_too_deep_for_the_stack(tmp_path):
    # 1,200 disjoint points at c = 1 and k = n: the report's walk finds the one state
    # 1,200 additions deep
    n = 1200
    members = " ".join(map(str, range(n)))
    body = "\n".join(f"{2 * v} {2 * v}" for v in range(n))
    inst = _write(tmp_path, "deep.csr", f"format: csr/1\nrule: tar\nc: 1\nk: {n}\n"
                  f"repr: intervals\nn: {n}\nbody:\n{body}\nS: {members}\nS2: {members}\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, "-m", "csrecon.cli", "oracle", inst, "--max-n", "2000"]
    proc = subprocess.run([*command, "--report"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "oracle guard" in proc.stderr and "Traceback" not in proc.stderr
    # a distance searches from S = S2 and walks nothing
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "0"
    assert "Traceback" not in proc.stderr


def test_verify_command(tmp_path, capsys):
    inst = _write(tmp_path, "e1.csr", E1)
    good = _write(tmp_path, "good.seq", "start: 0\n+2\n-0\n")
    assert main(["verify", inst, good]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    bad = _write(tmp_path, "bad.seq", "start: 0\n-0\n+2\n")
    assert main(["verify", inst, bad]) == 1
    out = capsys.readouterr().out
    assert "violation at step 0" in out and "threshold" in out


HAND_INTERVALS = """\
format: csr/1
rule: tar
c: 2
k: 2
repr: intervals
n: 6
body:
# drawn by hand: negative and shared coordinates
-5 -2
-3 0
-3 1
0 0
1 4      # shares 1 and 4
4 4
S: 0 1 3
S2: 2 4 5
"""


def test_rendered_parse_answers_like_the_hand_written_file(tmp_path, capsys):
    # a parsed intervals file renders its clique runs, not its coordinates: the two
    # files hold the same model, so each answers alike and accepts the other's sequence
    texts = {"hand": HAND_INTERVALS.replace("\n", "\r\n")}
    texts["rendered"] = render_instance(parse_instance(texts["hand"]))
    assert "-5 -2" not in texts["rendered"] and "\r" not in texts["rendered"]
    paths = {name: _write(tmp_path, f"{name}.csr", text) for name, text in texts.items()}
    answers = []
    for name, path in paths.items():
        assert main(["solve", path, "--emit-sequence", "--out", str(tmp_path / f"{name}.seq")]) == 0
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1] == "6\n"
    for name, other in (("hand", "rendered"), ("rendered", "hand")):
        assert main(["verify", paths[other], str(tmp_path / f"{name}.seq")]) == 0
        assert capsys.readouterr().out == "ok\n"


def test_gen_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.csr")
    b = str(tmp_path / "b.csr")
    args = ["gen", "--repr", "interval", "--n", "10", "--c", "2", "--k", "3",
            "--seed", "7"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    text_a = (tmp_path / "a.csr").read_text()
    assert text_a == (tmp_path / "b.csr").read_text()
    assert text_a.startswith("# gen: mt19937 seed=7")
    inst = parse_instance(text_a)
    assert inst.n == 10 and inst.c == 2


@pytest.mark.parametrize("shape, message", [
    (["--repr", "interval", "--n", "-5"], "vertex count must be nonnegative"),
    (["--repr", "split", "--n", "-5"], "vertex count must be nonnegative"),
    (["--repr", "interval", "--n", "5", "--coord-max", "0"], "--coord-max must be at least 1"),
    (["--repr", "interval", "--n", "5", "--max-len", "-1"], "--max-len must be at least 0"),
    (["--repr", "edges", "--n", "4", "--p", "2"], "--p must be between 0 and 1"),
    (["--repr", "edges", "--n", "4", "--p", "-1"], "--p must be between 0 and 1"),
    (["--repr", "edges", "--n", "4", "--p", "nan"], "--p must be between 0 and 1"),
])
def test_gen_rejects_bad_shape_arguments(tmp_path, capsys, shape, message):
    out = tmp_path / "g.csr"
    assert main(["gen", *shape, "--c", "2", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_gen_to_stdout(capsys):
    assert main(["gen", "--repr", "edges", "--n", "6", "--c", "1",
                 "--seed", "3"]) == 0
    text = capsys.readouterr().out
    parse_instance(text)


def test_gen_split_solve_verify_pipeline(tmp_path, capsys):
    inst_path = str(tmp_path / "g.csr")
    assert main(["gen", "--repr", "split", "--n", "9", "--c", "2", "--k", "1",
                 "--seed", "11", "--out", inst_path]) == 0
    capsys.readouterr()
    seq_path = str(tmp_path / "g.seq")
    code = main(["solve", inst_path, "--emit-sequence", "--out", seq_path])
    capsys.readouterr()
    if code == 0:
        assert main(["verify", inst_path, seq_path]) == 0
        capsys.readouterr()


def test_reduce_isr(tmp_path, capsys):
    source = _write(tmp_path, "src.csr", """\
format: csr/1
repr: edges
n: 3
body:
3
0 1
1 2
0 2
I: 0
I2: 1
""")
    out_path = str(tmp_path / "red.csr")
    code = main(["reduce", source, "--kind", "isr", "--out", out_path])
    assert code == 0
    inst = parse_instance((tmp_path / "red.csr").read_text())
    assert inst.repr_kind == "split" and inst.c == 2 and inst.k == 4
    assert len(inst.start) == 5
    meta = (tmp_path / "red.csr.meta").read_text()
    assert "kind: isr" in meta and "pad: 3 edge 0 1" in meta


def test_reduce_oct_and_spr(tmp_path, capsys):
    oct_source = _write(tmp_path, "oct.csr", """\
format: csr/1
c: 3
k: 1
repr: edges
n: 5
body:
5
0 1
1 2
2 3
3 4
0 4
""")
    out_path = str(tmp_path / "oct_out.csr")
    assert main(["reduce", oct_source, "--kind", "oct", "--out", out_path]) == 0
    text = (tmp_path / "oct_out.csr").read_text()
    assert "target: 9" in text
    parse_instance(text)

    spr_source = _write(tmp_path, "spr.csr", """\
format: csr/1
c: 2
repr: edges
n: 4
body:
4
0 1
1 2
2 3
0 3
s: 0
t: 2
P: 0 1 2
P2: 0 3 2
""")
    out_path = str(tmp_path / "spr_out.csr")
    assert main(["reduce", spr_source, "--kind", "spr", "--rule", "ts",
                 "--out", out_path]) == 0
    inst = parse_instance((tmp_path / "spr_out.csr").read_text())
    assert inst.rule == "ts" and inst.k == 5 and len(inst.start) == 6
    meta = (tmp_path / "spr_out.csr.meta").read_text()
    assert "order:" in meta


def test_reduce_sources_name_the_line_of_a_missing_key(tmp_path, capsys):
    # a missing header key is reported at 'body:' (line 4), a missing
    # trailing field at the last line of the source
    graph = "format: csr/1\nrepr: edges\nn: 4\nbody:\n3\n0 1\n1 2\n0 3\n"
    spr_fields = "s: 0\nt: 2\nP: 0 1 2\n"
    for kind, text, message in (
            ("oct", graph, "line 4: oct sources need 'c:' and 'k:' headers"),
            ("oct", "c: 2\n" + graph, "line 5: oct sources need 'c:' and 'k:' headers"),
            ("isr", graph + "I2: 0\n", "line 9: missing 'I:' (required for isr)"),
            ("isr", graph + "I: 0\n", "line 9: missing 'I2:' (required for isr)"),
            ("spr", graph + spr_fields, "line 11: missing 'P2:' (required for spr)"),
            ("spr", graph + spr_fields + "P2: 0 1 2\n",
             "line 4: spr sources need a 'c:' header")):
        source = _write(tmp_path, "src.csr", text)
        code = main(["reduce", source, "--kind", kind, "--out", str(tmp_path / "out.csr")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n", (kind, text)


def test_reduce_oct_refuses_rule_before_reading_the_source(tmp_path, capsys):
    # oct always writes a tar instance, so --rule would be silently ignored
    out = tmp_path / "out.csr"
    code = main(["reduce", str(tmp_path / "absent.csr"), "--kind", "oct", "--rule", "tj",
                 "--out", str(out)])
    assert code == 2 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --rule applies only to --kind isr and spr\n"


def test_reduce_sources_read_integers_like_instance_headers(tmp_path, capsys):
    graph = "format: csr/1\nrepr: edges\nn: 4\nbody:\n3\n0 1\n1 2\n0 3\n"
    spr_fields = "P: 0 1 2\nP2: 0 1 2\n"
    for kind, text, message in (
            ("oct", "c: x\nk: 0\n" + graph, "line 1: c must be an integer, got 'x'"),
            ("oct", "c: 2\nk: y\n" + graph, "line 2: k must be an integer, got 'y'"),
            ("spr", "c: 2\n" + graph + "s: a\nt: 2\n" + spr_fields,
             "line 10: s must be an integer, got 'a'"),
            ("spr", "c: 2\n" + graph + "s: 0\nt: b\n" + spr_fields,
             "line 11: t must be an integer, got 'b'")):
        source = _write(tmp_path, "src.csr", text)
        code = main(["reduce", source, "--kind", kind, "--out", str(tmp_path / "out.csr")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n", (kind, text)


E3 = """\
format: csr/1
rule: tar
c: 1
k: 1
repr: intervals
n: 4
body:
1 1
1 2
2 3
3 3
S: 1
S2: 2
"""

E5 = """\
format: csr/1
rule: tar
c: 1
k: 1
repr: intervals
n: 3
body:
1 1
1 1
2 2
S: 0
S2: 1
"""


def test_exit_codes_cover_all_verdicts(tmp_path, capsys):
    golden = [(E1, 0, "2"), (E2, 1, "unreachable (locked)"), (E3, 0, "6"),
              (E4, 0, "5"), (E5, 0, "4")]
    for i, (text, want_code, want_out) in enumerate(golden):
        path = _write(tmp_path, f"g{i}.csr", text)
        code = main(["solve", path])
        out = capsys.readouterr().out.strip()
        assert (code, out) == (want_code, want_out), text


def test_pipeline_closure_generated_instances(tmp_path, capsys):
    import math

    from csrecon.oracle import oracle_distance

    solved = 0
    for seed in range(12):
        inst_path = str(tmp_path / f"p{seed}.csr")
        assert main(["gen", "--repr", "interval", "--n", "9", "--c", "2",
                     "--seed", str(seed), "--out", inst_path]) == 0
        capsys.readouterr()
        seq_path = str(tmp_path / f"p{seed}.seq")
        code = main(["solve", inst_path, "--emit-sequence", "--out", seq_path])
        out = capsys.readouterr().out.strip()
        inst = parse_instance((tmp_path / f"p{seed}.csr").read_text())
        dist, _ = oracle_distance(inst.representation, inst.c, inst.start,
                                  inst.target, k=inst.k, rule=inst.rule)
        if code == 1:
            assert dist == math.inf
            continue
        assert code == 0 and int(out) == dist
        assert main(["verify", inst_path, seq_path]) == 0
        capsys.readouterr()
        solved += 1
    assert solved >= 6


def test_solve_edges_routes_to_oracle(tmp_path, capsys):
    text = """\
format: csr/1
rule: ts
c: 1
k: 0
repr: edges
n: 3
body:
2
0 1
1 2
S: 0
S2: 2
"""
    inst = _write(tmp_path, "ts.csr", text)
    code = main(["solve", inst])
    assert code == 0 and capsys.readouterr().out.strip() == "2"


def test_oracle_paths_validate_the_sets_once(tmp_path, capsys, monkeypatch):
    # parsing validates S and S2; the oracle takes the trackers it built
    # instead of running check_sets again
    from csrecon import instances, oracle
    calls = []
    check_sets = core.check_sets

    def counted(*args, **kwargs):
        calls.append(args)
        return check_sets(*args, **kwargs)

    monkeypatch.setattr(instances, "check_sets", counted)
    monkeypatch.setattr(oracle, "check_sets", counted)
    edges = _write(tmp_path, "e4.csr", E4)
    assert main(["oracle", edges]) == 0 and capsys.readouterr().out.strip() == "5"
    assert len(calls) == 1
    ts = _write(tmp_path, "ts.csr", E1.replace("rule: tar", "rule: ts").replace("k: 1", "k: 0"))
    assert main(["solve", ts]) == 0 and capsys.readouterr().out.strip() == "2"
    assert len(calls) == 2


def _sweep_argvs(tmp_path):
    """Seeded commands on files of at most 10 vertices: each representation under each
    rule at c = 1..3 through gen, solve, distance, oracle, oracle --report and verify,
    then the report of a 3-colourable edge list with 739 states."""
    argvs = []
    for rep in ("interval", "split", "edges"):
        for rule in ("tar", "tj", "ts"):
            for c in (1, 2, 3):
                base = str(tmp_path / f"{rep}-{rule}-{c}")
                argvs += [["gen", "--repr", rep, "--n", "8", "--c", str(c), "--rule", rule,
                           "--seed", "3", "--out", base + ".csr"],
                          ["solve", base + ".csr", "--emit-sequence", "--out", base + ".seq"],
                          ["distance", base + ".csr"],
                          ["oracle", base + ".csr", "--emit-sequence", "--out", base + ".oseq"],
                          ["oracle", base + ".csr", "--report"],
                          ["verify", base + ".csr", base + ".seq"],
                          ["verify", base + ".csr", base + ".oseq"]]
    big = str(tmp_path / "edges-10.csr")
    return argvs + [["gen", "--repr", "edges", "--n", "10", "--c", "3", "--seed", "7",
                     "--out", big], ["oracle", big, "--report"]]


def test_commands_leave_no_reference_cycles(tmp_path):
    """With the collector paused, reference counting alone frees what a command makes:
    a collection after the sweep finds nothing unreachable.  argparse's own cycles are
    made by parse_args, which runs before the pause, as in main."""
    parsed = [build_parser().parse_args(argv) for argv in _sweep_argvs(tmp_path)]
    codes = []
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # a collection keeps what it finds in gc.garbage
    try:
        for args in parsed:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    codes.append(args.func(args))
                except (core.FormatError, core.InvariantError, core.ResourceLimitError,
                        OSError):  # main's exit 2; a sequence solve did not write
                    codes.append(2)
        gc.collect()
        # the functions caught in cycles name them: a self-referencing closure, say
        cycles = len(gc.garbage), sorted({obj.__qualname__ for obj in gc.garbage
                                          if type(obj) is type(_sweep_argvs)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert set(codes) == {0, 1, 2} and codes.count(0) > len(codes) // 2
    assert cycles == (0, [])


@pytest.mark.parametrize("text, code", [(E1, 0), (E2, 1), (None, 2)],
                         ids=["reachable", "unreachable", "missing-file"])
@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_main_pauses_the_collector_and_restores_it(tmp_path, capsys, monkeypatch,
                                                   text, code, collecting):
    path = _write(tmp_path, "inst.csr", text) if text else str(tmp_path / "absent.csr")
    during = []
    read = cli._read
    monkeypatch.setattr(cli, "_read", lambda p: during.append(gc.isenabled()) or read(p))
    enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["solve", path]) == code
        after = gc.isenabled()
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()
    assert during == [False] and after == collecting


def test_cli_digest_tool_runs_and_is_deterministic():
    # tools/cli_digest.py compares two checkouts; a digest that varied between
    # runs (an unmasked temporary path, say) would make that comparison useless
    root = Path(__file__).resolve().parent.parent
    cmd = [sys.executable, str(root / "tools" / "cli_digest.py"), str(root / "src"),
           "--seeds", "2"]
    lines = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
             for _ in range(2)]
    assert re.fullmatch(r"\d+ commands [0-9a-f]{64}\n", lines[0])
    assert int(lines[0].split()[0]) >= 2 * 9 * 6
    assert lines[0] == lines[1]


def test_cli_digest_tool_compares_two_trees(tmp_path):
    # a tree against itself agrees; one edited parse message shows up as
    # exactly the corpus command that prints it
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    tool = [sys.executable, str(root / "tools" / "cli_digest.py"), "--seeds", "1"]
    same = subprocess.run(tool + [src, src], capture_output=True, text=True)
    assert same.returncode == 0
    first, second = same.stdout.splitlines()
    assert first == second and re.fullmatch(r"\d+ commands [0-9a-f]{64}", first)
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    instances = copy / "csrecon" / "instances.py"
    text = instances.read_text()
    assert text.count("unsupported format") == 1
    instances.write_text(text.replace("unsupported format", "unknown format"))
    edited = subprocess.run(tool + [src, str(copy)], capture_output=True, text=True)
    assert edited.returncode == 1
    lines = edited.stdout.splitlines()
    assert len(lines) == 3 and lines[0] != lines[1]
    assert re.fullmatch(r"differs: solve <tmp>/bad-\d+\.inst", lines[2])


def test_cli_digest_tool_fails_on_a_crash(tmp_path):
    # an exception escaping main is a crash record: the run finishes, names the
    # command and exits 1, and a comparison still lists what differs
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    tool = [sys.executable, str(root / "tools" / "cli_digest.py"), "--seeds", "1"]
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "csrecon" / "cli.py"
    text = cli.read_text()
    guard = 'raise InvariantError("--p must be between 0 and 1")'
    assert text.count(guard) == 1
    cli.write_text(text.replace(guard, guard.replace("InvariantError", "RuntimeError")))
    row = r"gen --repr edges --n 4 --c 1 --seed 1 --p 2 --out <tmp>/bad-\d+\.OUT"
    alone = subprocess.run(tool + [str(copy)], capture_output=True, text=True)
    assert alone.returncode == 1
    lines = alone.stdout.splitlines()
    assert len(lines) == 2 and re.fullmatch(r"\d+ commands [0-9a-f]{64}", lines[0])
    assert re.fullmatch("crash: " + row, lines[1])
    both = subprocess.run(tool + [src, str(copy)], capture_output=True, text=True)
    assert both.returncode == 1
    lines = both.stdout.splitlines()
    assert len(lines) == 4 and lines[0] != lines[1] and lines[2] == alone.stdout.splitlines()[1]
    assert re.fullmatch("differs: " + row, lines[3])
