"""One digest of csrecon's command-line output over a seeded corpus.

Usage::

    python tools/cli_digest.py SRC [OTHER_SRC] [--seeds N]

SRC is the directory that holds the ``csrecon`` package (``src`` in a
checkout).  With one tree the tool prints ``<count> commands <sha256>``, so
two checkouts can be compared byte for byte.  With two trees it runs the
corpus for each in a subprocess, prints both lines, then one ``differs:``
line with the argv of every command whose record differs, and exits 1 on
any difference::

    python tools/cli_digest.py /path/to/other/checkout/src src

For every seed, representation (interval, split, edges) and rule (tar, tj,
ts), ``gen`` writes an instance, which then goes through ``solve
--emit-sequence --out``, ``solve``, ``distance``, ``oracle --emit-sequence
--out`` and ``oracle --report``; every sequence file written is replayed
with ``verify``.  A tj or ts draw whose ``S:`` line equals its ``S2:`` line
(mostly both empty) keeps only its ``gen`` record; the case and shape
corpora below still reach S = S2.

``gen``'s sets are nearly always maximal, so its instances almost never
reach the locked verdicts.  A second, fixed corpus (independent of
``--seeds``) is built with the library: seeded interval models with n <= 10
and c in {1, 2}, sets grown greedily to a random size below that of a
maximal set, and k the smaller set's size.  Draws continue until every
``DistanceVerdict.case`` has CASE_QUOTA instances; the tool fails if one
falls short.  Each goes through ``solve --emit-sequence --out``,
``distance``, ``oracle --emit-sequence --out`` and ``verify``.

A third, fixed corpus holds interval bodies that ``gen`` cannot draw, since
``gen`` only draws coordinates >= 1: the SHAPES below (negative
coordinates, shared endpoints, duplicates, single points and nested runs),
with SHAPE_DRAWS seeded instances per shape, rule and c in {1, 2}.  Each
goes through the same commands as the case corpus.

A fourth, fixed corpus stresses the oracle's search order on larger state
spaces than ``gen``'s n <= 10: ORACLE_DRAWS seeded edge-list instances with
n = ORACLE_N per rule and c in {1, 2}, drawn like the edge-list cases of the
benchmark's ``oracle_small`` workload (random graphs with edge probability
0.4, greedy sets, k up to the smaller set's size).  Each goes through
``oracle --emit-sequence --out`` and ``verify``.

A fifth, fixed corpus gives the interval sequence builder long symmetric
differences: one seeded interval instance with n = LONG_N per c in
{1, 2, 3} and rule (tar at k = 0, and tj), on coordinates up to
LONG_COORD_MAX so that many endpoints are shared.  Each goes through
``solve --emit-sequence --out`` and ``verify``; n exceeds the oracle's
guard, so the oracle is not run.

A sixth, fixed corpus of malformed inputs holds one instance, sequence or
reduction-source text per parse and validation error the CLI prints, and
runs each guard and refusal once (``--max-n``, also lifted on an instance
whose one state lies deeper than the report's walk can nest,
``--max-states``, ``--max-c`` off and at the
split engine's tight floor, the exact-coloring guard, ``--emit-sequence``
without ``--out``, ``oracle --report --emit-sequence``, ``reduce --kind oct
--rule`` and ``gen --p`` outside [0, 1]).  Four rows then put a count past
``sys.maxsize`` in a header: an edge count, an intervals ``n:``, and an
edges and a split ``n:``.  Three rows run one ``reduce`` of each kind (oct,
isr, spr) that succeeds, so the reductions' output files are in the digest.
Seven rows then put one malformed pair in a body otherwise written as
``render_instance`` writes it: an edge end out of range, a loop, a parallel
edge, an edge count past the lines left, an interval with l > r, and a
5,000-digit token in an edges and in an intervals body.  Nine rows then
``verify`` sequences edited by hand away from the form ``render_sequence``
writes: a comment, a tab, CRLF line ends, a leading zero, a signed zero in a
swap, a space after a sign, a swap among +/- steps, a 5,000-digit token and a
trailing blank line.  Two rows then run ``solve`` and ``solve
--emit-sequence --out`` on a split instance at the tight floor whose target
is an isolated meta node, and two more do the same for a target that is a
free triple, whose small component the search from both ends exhausts
first.  Its last row runs ``oracle --report`` with ``--max-n`` lifted on the
deep instance above, whose walk the recursion guard refuses; a distance on
it neither walks nor searches, since its two sets are equal.  Its two
sequences, a split tar witness off the tight floor and a split tj sequence,
are replayed with ``verify``.  With the default 120 seeds the tool runs
8,015 commands.

All commands run in process through ``csrecon.cli.main``.  A record holds
the command's arguments, exit code, stdout and stderr (with the temporary
directory masked) and the bytes of every file it writes; an exception that
escapes ``main`` is recorded as a ``crash`` with its type and message, so the
run always finishes.  The digest covers every record and the text of every
case-, shape-, oracle- and long-corpus instance.  With one tree, one
``crash:`` line per crash record follows the digest line, and the tool exits 1.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

REPRS = ("interval", "split", "edges")
RULES = ("tar", "tj", "ts")
CASES = ("identical", "case1", "case2", "case3a", "case3b", "locked-in-G")
CASE_QUOTA = 5
MAX_CASE_DRAWS = 100_000
ORACLE_N = 12
ORACLE_DRAWS = 4
SHAPES = (
    [(-4, -1), (-2, 3), (0, 0), (3, 3)],          # negative coordinates
    [(1, 3), (2, 4), (3, 5), (1, 5), (5, 5)],     # shared endpoints
    [(2, 4), (2, 4), (2, 4), (4, 6), (4, 6)],     # duplicates
    [(i, i) for i in range(-3, 4)],               # single points
    [(-9, 10), (2, 3), (4, 5), (6, 7), (8, 9)],   # nested runs
)
SHAPE_DRAWS = 2
LONG_N = 300
LONG_COORD_MAX = 100


def case_instances():
    """Seeded tar interval instances, CASE_QUOTA per verdict case, as csr/1 texts."""
    from csrecon import Instance, model_from_intervals, render_instance, tar_distance
    from csrecon.generators import greedy_set, random_endpoints

    rng = random.Random(0)
    found = {case: [] for case in CASES}
    for _ in range(MAX_CASE_DRAWS):
        if min(map(len, found.values())) >= CASE_QUOTA:
            break
        n = rng.randint(1, 10)
        c = rng.choice((1, 2))
        endpoints = random_endpoints(rng, n)
        model = model_from_intervals(endpoints)
        short = max(len(greedy_set(model, c, rng)) - 1, 0)
        start = greedy_set(model, c, rng, target=rng.randint(0, short))
        target = greedy_set(model, c, rng, target=rng.randint(0, short))
        k = min(len(start), len(target))
        kept = found[tar_distance(model, c, start, target, k).case]
        if len(kept) < CASE_QUOTA:
            kept.append(render_instance(
                Instance(model, "tar", c, k, start, target, endpoints=endpoints)))
    short_cases = [case for case in CASES if len(found[case]) < CASE_QUOTA]
    if short_cases:
        raise RuntimeError(f"case corpus lacks {short_cases} after {MAX_CASE_DRAWS} draws")
    return [text for case in CASES for text in found[case]]


def shape_instances():
    """Seeded instances on each of SHAPES, SHAPE_DRAWS per rule and c, as csr/1 texts."""
    from csrecon import model_from_intervals, render_instance
    from csrecon.generators import _random_instance

    rng = random.Random(0)
    return [render_instance(_random_instance(rng, model_from_intervals(endpoints), c, rule,
                                             None, endpoints=endpoints))
            for endpoints in SHAPES for rule in RULES for c in (1, 2)
            for _ in range(SHAPE_DRAWS)]


def oracle_instances():
    """Seeded n = ORACLE_N edge-list instances, ORACLE_DRAWS per rule and c, as csr/1 texts."""
    from csrecon import render_instance
    from csrecon.generators import random_edges_instance

    return [render_instance(random_edges_instance(
                random.Random(f"oracle:{rule}:{c}:{i}"), ORACLE_N, c, rule=rule))
            for rule in RULES for c in (1, 2) for i in range(ORACLE_DRAWS)]


def long_instances():
    """Seeded n = LONG_N interval instances, one per c and rule, as csr/1 texts."""
    from csrecon import render_instance
    from csrecon.generators import random_interval_instance

    return [render_instance(random_interval_instance(
                random.Random(f"long:{rule}:{c}"), LONG_N, c, rule=rule, k=0,
                coord_max=LONG_COORD_MAX, max_len=4))
            for rule in ("tar", "tj") for c in (1, 2, 3)]


EDGES = """\
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
INTERVALS = """\
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
SPLIT = """\
format: csr/1
rule: tar
c: 1
k: 0
repr: split
n: 3
body:
K: 0 1
2
0 1
1 2
S: 0
S2: 2
"""
# the split engine's tight floor k = |I| + c - 1 at c = 3: vertex 5 sees exactly the clique
# triple 0 1 2, so S2's clique part has no meta edge and S2 is unreachable
ISOLATED_END = """\
format: csr/1
rule: tar
c: 3
k: 5
repr: split
n: 8
body:
K: 0 1 2 3 4
16
0 1
0 2
0 3
0 4
1 2
1 3
1 4
2 3
2 4
3 4
5 0
5 1
5 2
6 3
7 3
7 4
S: 3 4 5 6 7
S2: 0 1 2 6 7
"""
# the same floor at n = 11: each triple other than 0 1 2 through one of its 2-faces is
# blocked by its own independent vertex, so S2's meta component is 0 1 2 and its three
# faces, far smaller than the component of S, and S2 is unreachable
FREE_TRIPLE = """\
format: csr/1
rule: tar
c: 3
k: 8
repr: split
n: 11
body:
K: 0 1 2 3 4
28
0 1
0 2
0 3
0 4
0 5
0 6
0 7
0 8
1 2
1 3
1 4
1 5
1 6
1 9
1 10
2 3
2 4
2 7
2 8
2 9
2 10
3 4
3 5
3 7
3 9
4 6
4 8
4 10
S: 3 4 5 6 7 8 9 10
S2: 0 1 2 5 6 7 8 9 10
"""
SOURCE = """\
format: csr/1
repr: edges
n: 3
body:
2
0 1
1 2
"""
SPR_SOURCE = """\
format: csr/1
c: 2
repr: edges
n: 4
body:
3
0 1
1 2
0 3
s: 0
t: 2
P: 0 1 2
P2: 0 1 2
"""


def _sub(text, *pairs):
    """``text`` with each (old, new) pair replaced once; every ``old`` must occur."""
    for old, new in zip(pairs[::2], pairs[1::2]):
        if old not in text:
            raise ValueError(f"{old!r} not in corpus text")
        text = text.replace(old, new, 1)
    return text


def malformed_corpus():
    """(argv, files) pairs: one per parse and validation error the CLI prints, then its guards.

    An argv token that names a key of ``files`` stands for that text written
    to a file; the token ``OUT`` stands for a path where no file exists yet.
    """
    def solve(text, *flags):
        return ["solve", "inst", *flags], {"inst": text}

    def oracle(*flags):
        return ["oracle", "inst", *flags], {"inst": EDGES}

    def verify(seq, inst=INTERVALS):
        return ["verify", "inst", "seq"], {"inst": inst, "seq": seq}

    def reduce(kind, text):
        return ["reduce", "src", "--kind", kind, "--out", "OUT"], {"src": text}

    ts = _sub(INTERVALS, "rule: tar", "rule: ts")
    tj_pair = _sub(INTERVALS, "rule: tar", "rule: tj", "S: 0\n", "S: 0 2\n", "S2: 2", "S2: 0 2")
    many = " ".join(map(str, range(65)))
    long_token = "9" * 5000  # past int()'s default limit of 4,300 digits
    # 1,200 disjoint points at c = 1 and k = n: the one state lies 1,200 additions deep
    everything = " ".join(map(str, range(1200)))
    deep = _sub(INTERVALS, "k: 1", "k: 1200", "n: 3", "n: 1200",
                "1 1\n1 2\n2 2\n", "".join(f"{2 * v} {2 * v}\n" for v in range(1200)),
                "S: 0", f"S: {everything}", "S2: 2", f"S2: {everything}")
    return [
        # instance parsing
        solve(""),
        solve(_sub(EDGES, "rule: tar", "rule tar")),
        solve(_sub(EDGES, "body:", "body: 1")),
        solve(_sub(EDGES, "c: 1", "c: 1\nc: 2")),
        solve(EDGES.split("body:")[0]),
        solve(_sub(EDGES, "format: csr/1\n", "")),
        solve(_sub(EDGES, "csr/1", "csr/9")),
        solve(_sub(EDGES, "repr: edges", "repr: tree")),
        solve(_sub(EDGES, "n: 3", "n: three")),
        solve(_sub(EDGES, "n: 3", "n: -1")),
        solve(EDGES.split("1 2")[0]),
        solve(_sub(EDGES, "body:\n2", "body:\ntwo")),
        solve(_sub(EDGES, "body:\n2", "body:\n-1")),
        solve(_sub(EDGES, "0 1\n", "0 1 2\n")),
        solve(_sub(EDGES, "0 1\n", "0 x\n")),
        solve(_sub(EDGES, "0 1\n", "0 7\n")),
        solve(_sub(EDGES, "0 1\n", "0 0\n")),
        solve(_sub(EDGES, "1 2\n", "1 0\n")),
        solve(_sub(EDGES, "S2: 2", "S2: 2\nS: 1")),
        solve(_sub(EDGES, "rule: tar\n", "")),
        solve(_sub(EDGES, "rule: tar", "rule: slide")),
        solve(_sub(EDGES, "c: 1", "c: one")),
        solve(_sub(EDGES, "k: 0", "k: zero")),
        solve(_sub(EDGES, "S2: 2\n", "")),
        solve(_sub(EDGES, "S: 0", "S: 0 x")),
        solve(_sub(INTERVALS, "1 2\n", "1\n")),
        solve(_sub(INTERVALS, "1 2\n", "2 1\n")),
        solve(_sub(INTERVALS, "n: 3", "n: 9")),
        solve(SPLIT.split("K:")[0]),
        solve(_sub(SPLIT, "K: 0 1", "J: 0 1")),
        solve(_sub(SPLIT, "K: 0 1", "K: 0 y")),
        solve(_sub(SPLIT, "K: 0 1", "K: 0 5")),
        solve(_sub(SPLIT, "K: 0 1", "K: 0 2")),
        solve(_sub(SPLIT, "K: 0 1", "K: 0")),
        # instance validation
        solve(_sub(EDGES, "c: 1", "c: 0")),
        solve(_sub(EDGES, "k: 0", "k: -1")),
        solve(_sub(EDGES, "S: 0", "S: 5")),
        solve(_sub(EDGES, "k: 0", "k: 2")),
        solve(_sub(EDGES, "S: 0", "S: 0 1")),
        solve(_sub(EDGES, "S2: 2", "S2: 1 2")),
        solve(_sub(EDGES, "rule: tar", "rule: tj", "S2: 2", "S2: 0 2")),
        # sequence parsing and replay
        verify(""),
        verify("+1\n"),
        verify("begin: 0\n"),
        verify("start: q\n"),
        verify("start: 0\n+x\n"),
        verify("start: 0\n*2\n"),
        verify("start: 1\n"),
        verify("start: 0\n0>2\n"),
        verify("start: 0\n+9\n"),
        verify("start: 0\n+0\n"),
        verify("start: 0\n+1\n"),
        verify("start: 0\n-2\n"),
        verify("start: 0\n-0\n"),
        verify("start: 0\n+2\n"),
        verify("start: 0\n+2\n", ts),
        verify("start: 0\n0>9\n", ts),
        verify("start: 0\n1>9\n", ts),
        verify("start: 0\n1>0\n", ts),
        verify("start: 0\n1>2\n", ts),
        verify("start: 0\n0>0\n", ts),
        verify("start: 0\n0>2\n", ts),
        verify("start: 0 2\n0>1\n", tj_pair),
        # reduction sources
        reduce("oct", INTERVALS),
        reduce("oct", SOURCE),
        reduce("oct", "c: x\nk: 0\n" + SOURCE),
        reduce("oct", "c: 1\nk: 0\n" + SOURCE),
        reduce("oct", "c: 2\nk: 3\n" + SOURCE),
        reduce("isr", SOURCE),
        reduce("isr", SOURCE + "I: 0 9\nI2: 0\n"),
        reduce("isr", SOURCE + "I: 0 1\nI2: 0\n"),
        reduce("isr", SOURCE + "I: 0 2\nI2: 1\n"),
        reduce("isr", _sub(SOURCE, "2\n0 1\n1 2\n", "0\n") + "I: 0 1 2\nI2: 0 1 2\n"),
        reduce("spr", _sub(SPR_SOURCE, "c: 2\n", "")),
        reduce("spr", _sub(SPR_SOURCE, "c: 2", "c: 0")),
        reduce("spr", _sub(SPR_SOURCE, "s: 0", "s: 9")),
        reduce("spr", _sub(SPR_SOURCE, "3\n0 1\n1 2\n", "2\n0 1\n")),
        reduce("spr", _sub(SPR_SOURCE, "P: 0 1 2", "P: 0 2")),
        reduce("spr", _sub(SPR_SOURCE, "P: 0 1 2", "P: 0 0 2")),
        reduce("spr", _sub(SPR_SOURCE, "P2: 0 1 2", "P2: 0 3 2")),
        (["solve", "OUT"], {}),
        # guards and refusals
        oracle("--max-n", "2"),
        (["oracle", "inst", "--max-n", "2000"], {"inst": deep}),
        oracle("--max-states", "1"),
        solve(SPLIT, "--max-c", "0"),
        # the tight floor k = |I| + c - 1, the one floor the split engine searches
        solve(_sub(SPLIT, "c: 1", "c: 2", "k: 0", "k: 2", "S: 0", "S: 0 2", "S2: 2", "S2: 1 2"),
              "--max-c", "1"),
        # off it the meta path is arithmetic; the witness is replayed with verify
        solve(_sub(SPLIT, "c: 1", "c: 2", "k: 0", "k: 1", "S2: 2", "S2: 1 2"),
              "--emit-sequence", "--out", "OUT"),
        solve(_sub(EDGES, "n: 3", "n: 65", "2\n0 1\n1 2\n", "0\n", "S: 0", f"S: {many}")),
        solve(EDGES, "--emit-sequence"),
        oracle("--emit-sequence"),
        solve(_sub(SPLIT, "rule: tar", "rule: tj"), "--emit-sequence", "--out", "OUT"),
        oracle("--report", "--emit-sequence"),
        (["reduce", "src", "--kind", "oct", "--rule", "tj", "--out", "OUT"],
         {"src": "c: 2\nk: 0\n" + SOURCE}),
        (["gen", "--repr", "edges", "--n", "4", "--c", "1", "--seed", "1", "--p", "2",
          "--out", "OUT"], {}),
        # header counts past sys.maxsize, appended last so that earlier rows keep their file
        # names: the body ends early behind an edge count or an intervals n, and an edges or a
        # split n is refused before any allocation
        solve(_sub(EDGES, "body:\n2", "body:\n100000000000000000000")),
        solve(_sub(INTERVALS, "n: 3", "n: 100000000000000000000")),
        solve(_sub(EDGES, "n: 3", "n: 100000000000000000000")),
        solve(_sub(SPLIT, "n: 3", "n: 100000000000000000000")),
        # one reduction of each kind that succeeds, appended last for the same reason
        reduce("oct", "c: 3\nk: 1\n" + SOURCE),
        reduce("isr", SOURCE + "I: 0\nI2: 2\n"),
        reduce("spr", SPR_SOURCE),
        # malformed pairs in bodies otherwise as render_instance writes them, which a
        # one-pass reader takes whole, appended last for the same reason
        solve(_sub(SPLIT, "\n1 2\n", "\n1 3\n")),
        solve(_sub(SPLIT, "\n1 2\n", "\n2 2\n")),
        solve(_sub(SPLIT, "\n1 2\n", "\n1 0\n")),
        solve(_sub(SPLIT, "K: 0 1\n2\n", "K: 0 1\n9\n")),
        solve(_sub(INTERVALS, "2 2\n", "3 2\n")),
        solve(_sub(EDGES, "1 2\n", f"1 {long_token}\n")),
        solve(_sub(INTERVALS, "2 2\n", f"2 {long_token}\n")),
        # hand-edited and malformed sequences, which the one-pass reader leaves to the
        # line-by-line one, appended last for the same reason
        verify("start: 0\n+2 # edited\n-0\n"),
        verify("start: 0\n+\t2\n-0\n"),
        verify("start: 0\r\n+2\r\n-0\r\n"),
        verify("start: 0\n+02\n-0\n"),
        verify("start: 0\n-0>1\n1>2\n", ts),
        verify("start: 0\n+ 2\n-0\n"),
        verify("start: 0\n+2\n-0\n2>1\n"),
        verify(f"start: 0\n+2\n-{long_token}\n"),
        verify("start: 0\n+2\n-0\n\n"),
        # an isolated end at the split engine's tight floor, which is refused before any
        # search, appended last for the same reason
        solve(ISOLATED_END),
        solve(ISOLATED_END, "--emit-sequence", "--out", "OUT"),
        # a free triple at the tight floor, whose search runs from both ends, appended last
        # for the same reason
        solve(FREE_TRIPLE),
        solve(FREE_TRIPLE, "--emit-sequence", "--out", "OUT"),
        # the deep instance under --report, the one command that walks it and so meets the
        # recursion guard, appended last for the same reason
        (["oracle", "inst", "--report", "--max-n", "2000"], {"inst": deep}),
    ]


def _trivial(path):
    """Whether the instance file at ``path`` has the same S: and S2: lines."""
    with open(path, encoding="utf-8") as fh:
        sets = dict(line.split(":", 1) for line in fh if line.startswith(("S:", "S2:")))
    return sets["S"] == sets["S2"]


def run_corpus(main, seeds, tmp):
    """Run the seeded commands for seeds 0..seeds-1, then the five fixed corpora, in ``tmp``.

    Returns the command count, the records as (key, bytes) pairs, the key
    being the command's argv with ``tmp`` masked, and the keys of the crashes.
    """
    records, crashes = [], []
    count = 0

    def run(*argv, writes=None):
        nonlocal count
        count += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, so that one crash cannot end the run
                code = f"crash {type(exc).__name__}: {exc}"
                crashes.append(" ".join(argv).replace(tmp, "<tmp>"))
        record = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
        if writes is not None:
            if os.path.exists(writes):
                with open(writes, "rb") as fh:
                    record.append(fh.read().decode("utf-8"))
            else:
                record.append("<no file>")
        records.append((record[0].replace(tmp, "<tmp>"),
                        "\0".join(record).replace(tmp, "<tmp>").encode("utf-8")))
        return writes if writes is not None and os.path.exists(writes) else None

    def write(path, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def run_instance(inst, base, *plain):
        """Both emitting commands, then the ``plain`` argvs, then ``verify`` of each sequence."""
        seqs = [run(command, inst, "--emit-sequence", "--out", f"{base}.{command}.seq",
                    writes=f"{base}.{command}.seq")
                for command in ("solve", "oracle")]
        for argv in plain:
            run(*argv)
        for seq in seqs:
            if seq is not None:
                run("verify", inst, seq)

    for seed in range(seeds):
        n = 8 + seed % 3
        c = 1 + seed % 3
        for rep in REPRS:
            for rule in RULES:
                base = os.path.join(tmp, f"{seed}-{rep}-{rule}")
                inst = run("gen", "--repr", rep, "--n", str(n), "--c", str(c),
                           "--rule", rule, "--seed", str(seed), "--out", base + ".csr",
                           writes=base + ".csr")
                if rule != "tar" and _trivial(inst):
                    continue
                run_instance(inst, base, ("solve", inst), ("distance", inst),
                             ("oracle", inst, "--report"))
    def write_instance(name, text):
        write(os.path.join(tmp, f"{name}.csr"), text)
        records.append((f"write <tmp>/{name}.csr", text.encode("utf-8")))
        return os.path.join(tmp, name)

    for name, texts in (("case", case_instances()), ("shape", shape_instances())):
        for i, text in enumerate(texts):
            base = write_instance(f"{name}-{i}", text)
            run_instance(base + ".csr", base, ("distance", base + ".csr"))
    for name, command, texts in (("oracle", "oracle", oracle_instances()),
                                 ("long", "solve", long_instances())):
        for i, text in enumerate(texts):
            base = write_instance(f"{name}-{i}", text)
            seq = run(command, base + ".csr", "--emit-sequence", "--out", base + ".seq",
                      writes=base + ".seq")
            if seq is not None:
                run("verify", base + ".csr", seq)
    for i, (argv, files) in enumerate(malformed_corpus()):
        paths = {name: os.path.join(tmp, f"bad-{i}.{name}") for name in (*files, "OUT")}
        for name, text in files.items():
            write(paths[name], text)
        seq = run(*(paths.get(token, token) for token in argv), writes=paths["OUT"])
        if seq is not None and argv[0] == "solve":
            run("verify", paths["inst"], seq)
    return count, records, crashes


def compare(trees, seeds):
    """Run the corpus for each tree in a subprocess; list the commands whose records differ.

    A tree with crash records still has its records compared; its ``crash:``
    lines are printed after its digest line.
    """
    lines, records = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(trees):
            path = os.path.join(tmp, f"records-{i}.json")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), tree, "--seeds", str(seeds),
                 "--records", path], stdout=subprocess.PIPE, text=True)
            if not os.path.exists(path):  # the child failed before writing its records
                raise subprocess.CalledProcessError(proc.returncode, proc.args, proc.stdout)
            lines.append(proc.stdout.strip())
            with open(path, encoding="utf-8") as fh:
                records.append(dict(json.load(fh)))
    print(*lines, sep="\n")
    a, b = records
    differing = [key for key in {**a, **b} if a.get(key) != b.get(key)]
    for key in differing:
        print(f"differs: {key}")
    return 0 if lines[0] == lines[1] and not differing else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src", help="directory holding the csrecon package")
    parser.add_argument("other", nargs="?", help="a second such directory to compare against")
    parser.add_argument("--seeds", type=int, default=120)
    parser.add_argument("--records", help="also write each record's sha256, by command, "
                                          "to this JSON file")
    args = parser.parse_args(argv)
    if args.other is not None:
        return compare((args.src, args.other), args.seeds)
    sys.path.insert(0, os.path.abspath(args.src))
    from csrecon.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        count, records, crashes = run_corpus(cli_main, args.seeds, tmp)
    digest = hashlib.sha256()
    for _, data in records:
        digest.update(data + b"\1")
    print(f"{count} commands {digest.hexdigest()}")
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            json.dump([(key, hashlib.sha256(data).hexdigest()) for key, data in records], fh)
    for key in crashes:
        print(f"crash: {key}")
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main())
