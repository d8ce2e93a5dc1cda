"""One digest of csrecon's command-line output over a seeded corpus.

Usage::

    python tools/cli_digest.py SRC [--seeds N]

SRC is the directory that holds the ``csrecon`` package (``src`` in a
checkout), so two checkouts can be compared byte for byte::

    python tools/cli_digest.py /path/to/other/checkout/src
    python tools/cli_digest.py src

For every seed, representation (interval, split, edges) and rule (tar, tj,
ts), ``gen`` writes an instance, which then goes through ``solve
--emit-sequence --out``, ``solve``, ``distance``, ``oracle --emit-sequence
--out`` and ``oracle --report``; every sequence file written is replayed
with ``verify``.  All commands run in process through ``csrecon.cli.main``.
The digest covers each command's arguments, exit code, stdout and stderr
(with the temporary directory masked) and the bytes of every file a command
writes.  It prints ``<count> commands <sha256>``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

REPRS = ("interval", "split", "edges")
RULES = ("tar", "tj", "ts")


def run_corpus(main, seeds, tmp):
    """Run the command set for seeds 0..seeds-1 in ``tmp``; return (count, sha256)."""
    digest = hashlib.sha256()
    count = 0

    def run(*argv, writes=None):
        nonlocal count
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        count += 1
        record = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
        if writes is not None:
            if os.path.exists(writes):
                with open(writes, "rb") as fh:
                    record.append(fh.read().decode("utf-8"))
            else:
                record.append("<no file>")
        digest.update("\0".join(record).replace(tmp, "<tmp>").encode("utf-8") + b"\1")
        return writes if writes is not None and os.path.exists(writes) else None

    for seed in range(seeds):
        n = 8 + seed % 3
        c = 1 + seed % 3
        for rep in REPRS:
            for rule in RULES:
                base = os.path.join(tmp, f"{seed}-{rep}-{rule}")
                inst = run("gen", "--repr", rep, "--n", str(n), "--c", str(c),
                           "--rule", rule, "--seed", str(seed), "--out", base + ".csr",
                           writes=base + ".csr")
                seqs = [
                    run("solve", inst, "--emit-sequence", "--out", base + ".solve.seq",
                        writes=base + ".solve.seq"),
                    run("oracle", inst, "--emit-sequence", "--out", base + ".oracle.seq",
                        writes=base + ".oracle.seq"),
                ]
                run("solve", inst)
                run("distance", inst)
                run("oracle", inst, "--report")
                for seq in seqs:
                    if seq is not None:
                        run("verify", inst, seq)
    return count, digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src", help="directory holding the csrecon package")
    parser.add_argument("--seeds", type=int, default=120)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from csrecon.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        count, sha = run_corpus(cli_main, args.seeds, tmp)
    print(f"{count} commands {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
