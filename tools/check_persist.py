#!/usr/bin/env python3
"""End-to-end check of the persistence + networking tier (the `persist`
ctest).

    check_persist.py --serve=build/tools/cai-serve \\
                     --batch=build/tools/cai-batch \\
                     --shard=build/tools/cai-shard \\
                     --program=tools/testdata/fig1.imp

Five checks, all against the built binaries:

  1. warm restart   -- cai-batch over a generated corpus with
     --persist-dir, twice.  The second (cold-process, warm-disk) run must
     replay the log into the memory tier: result lines byte-identical to
     the first run modulo the "cached" flag, stats hit_rate_permille >=
     900, persist.replayed > 0.
  2. corruption     -- one payload byte each of the first and the middle
     record of the log (past the frame's length and CRC words and its
     length-prefixed key) is flipped in place; the next run must still
     exit cleanly with byte-identical results (recomputed, not served
     wrong) and count exactly those records in persist.corrupt.
  3. stdio vs TCP   -- the same session over stdin and over a TCP
     connection (--listen) must produce byte-identical response lines.
  4. 2 shards vs 1  -- the same session through cai-shard over two
     --listen backends must produce analyze responses byte-identical to
     one process, and the summed stats line must count every job.
  5. signal drain   -- SIGTERM to a --listen server with a persist log
     must exit 0, write a "shutdown" event to the event log, and leave
     the log flushed (the next cold process serves the job from disk).

Exit code: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

FAILURES = []


def fail(msg):
    print(f"check_persist: FAIL -- {msg}", file=sys.stderr)
    FAILURES.append(msg)


def ok(msg):
    print(f"check_persist: ok -- {msg}")


def run(cmd, stdin_text=None, timeout=300):
    return subprocess.run(cmd, input=stdin_text, capture_output=True,
                          text=True, timeout=timeout)


def normalize_cached(line):
    return re.sub(r'"cached":(true|false)', '"cached":?', line)


def is_stats(line):
    return '"stats":true' in line


def split_lines(stdout):
    return [l for l in stdout.splitlines() if l.strip()]


def start_serve(serve, extra, tmpdir, tag):
    """Starts cai-serve --listen on an ephemeral port; returns (proc, port)."""
    port_file = os.path.join(tmpdir, f"port-{tag}.txt")
    proc = subprocess.Popen(
        [serve, "--listen=127.0.0.1:0", f"--port-file={port_file}"] + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for _ in range(100):
        if os.path.exists(port_file) and os.path.getsize(port_file) > 0:
            with open(port_file) as f:
                return proc, int(f.read().strip())
        if proc.poll() is not None:
            fail(f"serve ({tag}) exited {proc.returncode} before listening: "
                 f"{proc.stderr.read()}")
            return proc, None
        time.sleep(0.1)
    proc.kill()
    fail(f"serve ({tag}) never wrote its port file")
    return proc, None


def tcp_session(port, stdin_text, timeout=60):
    """Sends the whole session, returns reply lines (reads until EOF)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(stdin_text.encode())
        s.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return split_lines(data.decode())


BATCH_ARGS = ["--gen=10", "--gen-seed=42", "--domain=logical:affine,uf",
              "--repeat=2", "--stats"]


def check_warm_restart(batch, tmpdir):
    before = len(FAILURES)
    pdir = os.path.join(tmpdir, "persist-warm")
    cold = run([batch] + BATCH_ARGS + [f"--persist-dir={pdir}"])
    warm = run([batch] + BATCH_ARGS + [f"--persist-dir={pdir}"])
    for tag, proc in (("cold", cold), ("warm", warm)):
        if proc.returncode not in (0, 1):
            fail(f"{tag} batch run exited {proc.returncode}: {proc.stderr}")
            return
    cold_lines = split_lines(cold.stdout)
    warm_lines = split_lines(warm.stdout)
    if len(cold_lines) != len(warm_lines):
        fail(f"cold run emitted {len(cold_lines)} lines, warm "
             f"{len(warm_lines)}")
        return
    for i, (c, w) in enumerate(zip(cold_lines, warm_lines)):
        if normalize_cached(c) != normalize_cached(w):
            fail(f"warm-restart line {i} differs beyond 'cached':\n"
                 f"  cold: {c}\n  warm: {w}")
            return
    # cai-batch keeps the result stream clean: --stats goes to stderr.
    stats = json.loads(next(l for l in split_lines(warm.stderr)
                            if is_stats(l)))
    rate = stats.get("cache", {}).get("hit_rate_permille", 0)
    if rate < 900:
        fail(f"warm-restart hit_rate_permille {rate} < 900")
    persist = stats.get("persist")
    if not persist:
        fail("warm stats line has no 'persist' block")
    elif persist.get("replayed", 0) < 1:
        fail(f"warm run replayed nothing from disk: {persist}")
    if len(FAILURES) == before:
        ok(f"warm restart byte-identical, hit rate {rate} permille, "
           f"{persist['replayed']} records replayed")
    return cold_lines


HEADER_BYTES = 24  # "CAIP", container version, two format versions.
FRAME_WORDS = 8    # Body length and CRC-32, little-endian u32 each.
KEY_WORD = 4       # The body starts with the key's length, a u32.


def frame_offsets(data):
    """Offsets of the record frames in a log file, walked by length."""
    offsets, pos = [], HEADER_BYTES
    while pos + FRAME_WORDS <= len(data):
        offsets.append(pos)
        pos += FRAME_WORDS + int.from_bytes(data[pos:pos + 4], "little")
    return offsets


def check_corruption(batch, tmpdir, cold_lines):
    before = len(FAILURES)
    pdir = os.path.join(tmpdir, "persist-warm")
    logs = os.listdir(pdir)
    if len(logs) != 1:
        fail(f"the store holds {logs}, not one log file")
        return
    path = os.path.join(pdir, logs[0])
    with open(path, "rb") as f:
        offsets = frame_offsets(f.read())
    if len(offsets) < 3:
        fail(f"the log holds {len(offsets)} records, too few to corrupt")
        return
    flipped = [offsets[0], offsets[len(offsets) // 2]]
    with open(path, "r+b") as f:
        for frame in flipped:
            f.seek(frame + FRAME_WORDS)
            key = int.from_bytes(f.read(KEY_WORD), "little")
            # A byte inside the payload, which follows the key.
            at = frame + FRAME_WORDS + KEY_WORD + key + 8
            f.seek(at)
            byte = f.read(1)
            f.seek(at)
            f.write(bytes([byte[0] ^ 0x55]))
    proc = run([batch] + BATCH_ARGS + [f"--persist-dir={pdir}"])
    if proc.returncode not in (0, 1):
        fail(f"corrupted-log run crashed (exit {proc.returncode}): "
             f"{proc.stderr}")
        return
    lines = split_lines(proc.stdout)
    if len(lines) != len(cold_lines):
        fail(f"corrupted-log run emitted {len(lines)} lines, expected "
             f"{len(cold_lines)}")
        return
    for i, (c, n) in enumerate(zip(cold_lines, lines)):
        if normalize_cached(c) != normalize_cached(n):
            fail(f"corrupted-log run line {i} differs -- a corrupt record "
                 f"must recompute, never serve wrong bytes:\n"
                 f"  ref: {c}\n  got: {n}")
            return
    stats = json.loads(next(l for l in split_lines(proc.stderr)
                            if is_stats(l)))
    corrupt = stats.get("persist", {}).get("corrupt", 0)
    if corrupt != len(flipped):
        fail(f"{len(flipped)} flipped records, but persist.corrupt is "
             f"{corrupt}: {stats.get('persist')}")
    if len(FAILURES) == before:
        ok(f"{len(flipped)} flipped records of {len(offsets)} -> {corrupt} "
           f"corrupt records skipped, results identical")


SESSION = None  # Built in main() from --program.


def check_stdio_vs_tcp(serve, tmpdir):
    # One worker pins the streaming order (results stream in completion
    # order; with one worker that IS submission order), so the transport
    # comparison is a strict byte-diff.
    before = len(FAILURES)
    stdio = run([serve, "--jobs=1"], SESSION)
    if stdio.returncode != 0:
        fail(f"stdio serve exited {stdio.returncode}: {stdio.stderr}")
        return
    proc, port = start_serve(serve, ["--jobs=1"], tmpdir, "tcp")
    if port is None:
        return
    try:
        tcp_lines = tcp_session(port, SESSION)
    finally:
        rc = proc.wait(timeout=60)
    if rc != 0:
        fail(f"tcp serve exited {rc}: {proc.stderr.read()}")
    stdio_lines = split_lines(stdio.stdout)
    if stdio_lines != tcp_lines:
        fail(f"stdio vs TCP responses differ:\n  stdio: {stdio_lines}\n"
             f"  tcp:   {tcp_lines}")
    if len(FAILURES) == before:
        ok(f"stdio and TCP byte-identical over {len(tcp_lines)} lines")


def check_shard_vs_one(serve, shard, tmpdir):
    before = len(FAILURES)
    one = run([serve, "--jobs=1"], SESSION)
    if one.returncode != 0:
        fail(f"1-process serve exited {one.returncode}: {one.stderr}")
        return
    b1, p1 = start_serve(serve, ["--jobs=1"], tmpdir, "shard-a")
    b2, p2 = start_serve(serve, ["--jobs=1"], tmpdir, "shard-b")
    if p1 is None or p2 is None:
        for b in (b1, b2):
            b.kill()
        return
    sharded = run([shard, f"--backend=127.0.0.1:{p1}",
                   f"--backend=127.0.0.1:{p2}"], SESSION)
    rc1, rc2 = b1.wait(timeout=60), b2.wait(timeout=60)
    if sharded.returncode != 0:
        fail(f"cai-shard exited {sharded.returncode}: {sharded.stderr}")
        return
    if rc1 != 0 or rc2 != 0:
        fail(f"sharded backends exited {rc1}/{rc2} after broadcast shutdown")
    one_results = [l for l in split_lines(one.stdout) if not is_stats(l)]
    shard_results = [l for l in split_lines(sharded.stdout)
                     if not is_stats(l)]
    if one_results != shard_results:
        fail(f"2-shard vs 1-process analyze responses differ:\n"
             f"  one:   {one_results}\n  shard: {shard_results}")
    one_stats = json.loads(next(l for l in split_lines(one.stdout)
                                if is_stats(l)))
    shard_stats = json.loads(next(l for l in split_lines(sharded.stdout)
                                  if is_stats(l)))
    # workers legitimately differs (it sums across backends); every job
    # must still be accounted for in the summed line.
    if one_stats.get("jobs_completed") != shard_stats.get("jobs_completed"):
        fail(f"summed stats 'jobs_completed' mismatch: "
             f"one={one_stats.get('jobs_completed')} "
             f"shard={shard_stats.get('jobs_completed')}")
    if len(FAILURES) == before:
        ok(f"2 shards byte-identical to 1 process over "
           f"{len(shard_results)} responses, stats summed")


def check_signal_shutdown(serve, batch, program, tmpdir):
    before = len(FAILURES)
    pdir = os.path.join(tmpdir, "persist-signal")
    events = os.path.join(tmpdir, "signal-events.jsonl")
    proc, port = start_serve(
        serve, [f"--persist-dir={pdir}", f"--event-log={events}"],
        tmpdir, "signal")
    if port is None:
        return
    req = json.dumps({"id": 1, "name": "sig", "program_file": program,
                      "domain": "logical:affine,uf"}) + "\n"
    with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
        s.sendall(req.encode())
        reply = s.makefile("r").readline()
    if '"status":"verified"' not in reply:
        fail(f"pre-signal analyze did not verify: {reply!r}")
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not exit within 60s of SIGTERM")
        return
    if rc != 0:
        fail(f"SIGTERM exit code {rc}, want 0: {proc.stderr.read()}")
    with open(events) as f:
        shutdown_events = [json.loads(l) for l in f if '"shutdown"' in l]
    if not shutdown_events:
        fail(f"no 'shutdown' event in {events}")
    elif shutdown_events[-1].get("fields", {}).get("reason") != "signal":
        fail(f"shutdown event reason is not 'signal': {shutdown_events[-1]}")
    # The log was flushed on the way out: a cold process serves the same
    # job from disk without recomputing.
    probe = run([batch, "--domain=logical:affine,uf",
                 f"--persist-dir={pdir}", "--stats", program])
    if probe.returncode != 0:
        fail(f"post-signal probe exited {probe.returncode}: {probe.stderr}")
        return
    stats = json.loads(next(l for l in split_lines(probe.stderr)
                            if is_stats(l)))
    if stats.get("cache", {}).get("hits", 0) < 1:
        fail(f"post-signal probe recomputed -- log not flushed on SIGTERM: "
             f"{stats}")
    if len(FAILURES) == before:
        ok("SIGTERM drained, flushed the log and logged a shutdown event")


def main():
    global SESSION
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--batch", required=True)
    ap.add_argument("--shard", required=True)
    ap.add_argument("--program", required=True)
    args = ap.parse_args()

    requests = [
        {"id": 1, "name": "a", "program_file": args.program,
         "domain": "logical:affine,uf"},
        {"id": 2, "name": "b", "program_file": args.program,
         "domain": "logical:poly,uf"},
        {"id": 3, "name": "a-again", "program_file": args.program,
         "domain": "logical:affine,uf"},
        {"cmd": "stats"},
        {"cmd": "shutdown"},
    ]
    SESSION = "".join(json.dumps(r) + "\n" for r in requests)

    with tempfile.TemporaryDirectory(prefix="cai_persist_check_") as tmpdir:
        cold_lines = check_warm_restart(args.batch, tmpdir)
        if cold_lines:
            check_corruption(args.batch, tmpdir, cold_lines)
        check_stdio_vs_tcp(args.serve, tmpdir)
        check_shard_vs_one(args.serve, args.shard, tmpdir)
        check_signal_shutdown(args.serve, args.batch, args.program, tmpdir)

    if FAILURES:
        print(f"check_persist: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("check_persist: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
