#!/usr/bin/env python3
"""Byte-identity sweep: two builds over one corpus.

    sweep_diff.py OLD NEW --specs S[,S...] [--stats] [--jobs N] INPUT...
    sweep_diff.py --serve OLD NEW [--jobs N] REQUESTS...

OLD and NEW are cai-analyze binaries (say, a parent commit's build and a
change's).  Each INPUT is a `.imp` program or a JSON-lines request file
such as the `requests.jsonl` that `pbtool gen` writes; every line of it
with a "program" member is one program.  Every program runs under every
spec as `BIN --domain=SPEC --invariants PROGRAM` on both binaries, and
the two runs' stdout and exit code are compared byte for byte.  With
--stats the command line also carries `--stats`, so every registry
counter the run prints (`congruence_closure.propagations`,
`simplex.solves`, `domain.*.joins`, ...) is compared too: the two builds
must do the same work, not only give the same answers.

Prints, per spec, how many programs gave identical and different output,
and the first differing program.  Exit code: 0 when every pair is
identical, 1 on any difference, 2 on a usage error.

    sweep_diff.py build/tools/cai-analyze build/tools/cai-analyze \\
        --specs poly,logical:poly,uf tools/testdata/*.imp

runs one binary on both sides, which checks that its output is
deterministic (the `tool_sweep_diff_selftest` ctest).

With --serve, OLD and NEW are cai-serve binaries and the REQUESTS files
(JSON-lines requests, such as the `history.jsonl` and `requests.jsonl`
that a perfbench run leaves in `<build>/perfbench/runs/<workload>-<seed>-0/`)
are sent, as one stream in the order given, to `BIN --jobs=1
--persist-dir=DIR`.  Each binary gets its own fresh DIR and two passes:
cold, then warm on the store the cold pass wrote.  The responses of the
two binaries are compared line by line per pass; the summary names the
first differing line.  --jobs 2 or more runs the two binaries at once.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 300


def programs(inputs, workdir):
    """(label, path) per program: a .imp input as it is, each program of a
    JSON-lines input written to its own file under workdir."""
    out = []
    for path in inputs:
        if not path.endswith(".jsonl"):
            out.append((path, path))
            continue
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                text = json.loads(line).get("program")
                if text is None:
                    continue
                prog = os.path.join(workdir, "p%d.imp" % len(out))
                with open(prog, "w") as g:
                    g.write(text)
                out.append(("%s:%d" % (path, lineno), prog))
    return out


def spec_end(text, i):
    """End of the one domain spec starting at text[i] (DomainFactory's
    grammar: a leaf, mode:SPEC,SPEC, or (SPEC))."""
    if text.startswith("(", i):
        depth = 0
        for j in range(i, len(text)):
            depth += {"(": 1, ")": -1}.get(text[j], 0)
            if depth == 0:
                return j + 1
        raise ValueError("unbalanced parenthesis in " + text)
    j = i
    while j < len(text) and text[j].isalnum():
        j += 1
    if not text.startswith(":", j):
        return j
    j = spec_end(text, j + 1)
    if not text.startswith(",", j):
        raise ValueError("expected ',' at offset %d of %s" % (j, text))
    return spec_end(text, j + 1)


def split_specs(text):
    """'poly,logical:poly,uf' -> ['poly', 'logical:poly,uf']."""
    specs, i = [], 0
    while i < len(text):
        j = spec_end(text, i)
        if j == i or (j < len(text) and text[j] != ","):
            raise ValueError("bad spec list at offset %d: %s" % (i, text))
        specs.append(text[i:j])
        i = j + 1
    return specs


def run(binary, spec, prog, stats=False):
    """(exit code, stdout bytes) of one analysis; a timeout reads as
    exit code None."""
    cmd = [binary, "--domain=" + spec, "--invariants", prog]
    if stats:
        cmd.append("--stats")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        return p.returncode, p.stdout
    except subprocess.TimeoutExpired:
        return None, b""


def serve_passes(binary, stream, store):
    """(exit code, stdout bytes) of the cold and the warm pass of one
    cai-serve binary over the request stream, on the persist dir store."""
    out = []
    for _ in range(2):
        p = subprocess.run([binary, "--jobs=1", "--persist-dir=" + store],
                           input=stream, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        out.append((p.returncode, p.stdout))
    return out


def serve_sweep(args):
    stream = b""
    for path in args.inputs:
        with open(path, "rb") as f:
            stream += b"".join(l.rstrip(b"\n") + b"\n" for l in f)
    with tempfile.TemporaryDirectory(prefix="sweep_diff.") as workdir:
        stores = [os.path.join(workdir, side) for side in ("old", "new")]
        with concurrent.futures.ThreadPoolExecutor(
                min(2, max(1, args.jobs))) as pool:
            old, new = pool.map(serve_passes, (args.old, args.new),
                                (stream, stream), stores)
    failed = False
    for name, (old_rc, old_out), (new_rc, new_out) in zip(
            ("cold", "warm"), old, new):
        old_lines, new_lines = old_out.splitlines(), new_out.splitlines()
        diff = [i for i in range(max(len(old_lines), len(new_lines)))
                if old_lines[i:i + 1] != new_lines[i:i + 1]]
        line = "%s: %d identical, %d different" % (
            name, max(len(old_lines), len(new_lines)) - len(diff), len(diff))
        if diff:
            i = diff[0]
            shown = [(lines[i:i + 1] or [b"<none>"])[0][:300].decode(
                errors="replace") for lines in (old_lines, new_lines)]
            line += "; first: response %d\n  old: %s\n  new: %s" % (
                i + 1, shown[0], shown[1])
        if old_rc != new_rc:
            line += "; exit codes %s and %s" % (old_rc, new_rc)
        failed = failed or bool(diff) or old_rc != new_rc
        print(line, flush=True)
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(
        description="Diff cai-analyze --invariants output, or cai-serve "
                    "responses, of two builds.")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("inputs", nargs="+", metavar="INPUT")
    ap.add_argument("--specs",
                    help="comma-separated domain specs; a spec's own commas "
                         "stay with it (poly,logical:poly,uf is two specs)")
    ap.add_argument("--stats", action="store_true",
                    help="also pass --stats, so the counters are compared")
    ap.add_argument("--serve", action="store_true",
                    help="OLD and NEW are cai-serve binaries and each INPUT "
                         "a JSON-lines request file")
    ap.add_argument("--jobs", type=int, default=2,
                    help="programs analyzed at once (default 2); with "
                         "--serve, 2 or more runs both binaries at once")
    args = ap.parse_args()
    if args.serve == (args.specs is not None):
        print("sweep_diff: give either --specs or --serve", file=sys.stderr)
        return 2
    if args.serve and args.stats:
        print("sweep_diff: --stats needs --specs", file=sys.stderr)
        return 2
    if args.serve:
        return serve_sweep(args)

    try:
        specs = split_specs(args.specs)
    except ValueError as e:
        print("sweep_diff: " + str(e), file=sys.stderr)
        return 2

    failed = False
    with tempfile.TemporaryDirectory(prefix="sweep_diff.") as workdir:
        progs = programs(args.inputs, workdir)
        if not progs:
            print("sweep_diff: no programs in the inputs", file=sys.stderr)
            return 2
        with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
            for spec in specs:
                def compare(item):
                    _, prog = item
                    return (run(args.old, spec, prog, args.stats) ==
                            run(args.new, spec, prog, args.stats))
                same = list(pool.map(compare, progs))
                diff = [label for (label, _), ok in zip(progs, same) if not ok]
                line = "%s: %d identical, %d different" % (
                    spec, len(same) - len(diff), len(diff))
                if diff:
                    line += "; first: " + diff[0]
                    failed = True
                print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
