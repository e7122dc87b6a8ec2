#!/usr/bin/env python3
"""perfbench: the seeded, over-the-wire benchmark of the prospector daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. It builds the program from source with
dune, generates the workload's inputs from the seed (perfbench/pb.ml
`gen`), drives the real `prospector` binary as a child process -- the
daemon over loopback TCP, or the one-shot `batch` CLI -- checks every
reply it can against an in-process oracle, and prints the end-to-end
metrics. With --trace 1 it runs the in-process traced replay instead
(`pb trace`) and prints the per-layer metrics. The last line of stdout
is always one JSON object: correct, attempted, failed, metrics.

Workloads, metrics and the layer -> metric predictions are described in
perfbench/README.md and perfbench/layers.json.
"""

import argparse
import atexit
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ["search-100k", "table1-hot", "churn-100k", "batch-100k"]
CLI = os.path.join("_build", "default", "bin", "prospector_cli.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
WORK = ".perfbench_work"
OUT = ".perfbench_out"
READY_TIMEOUT_S = 60.0  # spawn -> port file; a 100k cold start takes ~2 s
CHILD_TIMEOUT_S = 120.0
# set-ups per run (setup_s is their median): more where a set-up is cheap
SETUPS = {"table1-hot": 15, "search-100k": 3, "churn-100k": 3, "batch-100k": 3}
RELOAD_INTERVAL_S = 0.2  # churn's open-loop reload schedule (pb.ml agrees)
JOBS = 2  # daemon --workers and batch --jobs
# Workloads whose client and daemon share one CPU. A reply that takes
# well under a millisecond is otherwise timed mostly by the cross-CPU
# wake-up of the side that waits for it, and on a virtual machine that
# wake-up waits for the host to run the idle vCPU: a loopback echo pair
# timed p99 0.05 ms on one CPU and 0.45 ms (p99.9 3.7 ms) across two on
# a 2-vCPU host, and table1-hot's ops/s moved by up to 3x between runs.
PINNED = {"table1-hot"}

CHILDREN = []
FORKED = []  # pids of forked load generators


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- children


def kill_children():
    for pid in FORKED:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (OSError, ChildProcessError):
            pass
    FORKED.clear()
    for p in CHILDREN:
        if p.poll() is None:
            try:
                p.kill()
            except OSError:
                pass
        try:
            p.wait(timeout=10)
        except (subprocess.TimeoutExpired, ChildProcessError):
            pass
    CHILDREN.clear()


def on_signal(signum, _frame):
    kill_children()
    sys.exit(128 + signum)


class HarnessError(Exception):
    pass


def tail(path, n=15):
    try:
        with open(path, "rb") as f:
            lines = f.read().decode("utf-8", "replace").splitlines()
        return "\n".join(lines[-n:])
    except OSError:
        return "(no log)"


def spawn(cmd, logpath, stdout=None):
    logf = open(logpath, "wb")
    p = subprocess.Popen(
        cmd,
        stdin=subprocess.DEVNULL,
        stdout=stdout if stdout is not None else logf,
        stderr=logf if stdout is not None else subprocess.STDOUT,
    )
    logf.close()
    CHILDREN.append(p)
    return p


def reap(p, timeout):
    """Wait for p with a bound; returns (exit code, peak RSS in MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            CHILDREN.remove(p)
            return p.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            p.kill()
            p.wait()
            CHILDREN.remove(p)
            raise HarnessError("child %s did not exit within %.0f s" % (p.args[1], timeout))
        time.sleep(0.002)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise HarnessError("no VmHWM for pid %d" % pid)


class Daemon:
    def __init__(self, args, d, tag):
        self.port_file = os.path.join(d, "port-" + tag)
        self.log = os.path.join(d, "daemon-" + tag + ".log")
        t0 = time.perf_counter()
        self.proc = spawn(
            [CLI, "serve"] + args + ["--port", "0", "--port-file", self.port_file], self.log
        )
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                CHILDREN.remove(self.proc)
                raise HarnessError(
                    "daemon exited with %d before it was ready:\n%s"
                    % (self.proc.returncode, tail(self.log))
                )
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                raise HarnessError("daemon not ready after %.0f s:\n%s" % (READY_TIMEOUT_S, tail(self.log)))
            time.sleep(0.0002)  # fine-grained: a table1-hot set-up takes ~20 ms
        self.setup_s = time.perf_counter() - t0
        with open(self.port_file) as f:
            self.port = int(f.read().strip())

    def shutdown(self):
        try:
            c = Conn(self.port)
            c.call(b'{"op": "shutdown"}\n')
            c.close()
        except (OSError, HarnessError):
            pass
        code, _ = reap(self.proc, 30)
        if code != 0:
            raise HarnessError("daemon exited with %d:\n%s" % (code, tail(self.log)))


class Dropped(Exception):
    pass


class Conn:
    def __init__(self, port):
        self.s = socket.create_connection(("127.0.0.1", port), timeout=CHILD_TIMEOUT_S)
        self.s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.s.makefile("rb")

    def call(self, line):
        try:
            self.s.sendall(line)
            r = self.f.readline()
        except OSError as e:
            raise Dropped(str(e))
        if not r.endswith(b"\n"):
            raise Dropped("connection closed")
        return r

    def close(self):
        self.f.close()
        self.s.close()


# ------------------------------------------------------------- statistics


def pct(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s) - 1e-9) - 1)]


def tail_pct(values, cap):
    """The highest percentile <= cap with at least 10 samples beyond it:
    (q, value), or None when even the median has fewer."""
    n = len(values)
    for q in (0.99, 0.95, 0.9, 0.75, 0.5):
        if q <= cap and n - math.ceil(q * n - 1e-9) >= 10:
            return q, pct(values, q)
    return None


# ------------------------------------------------------------------ oracle


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, msg, count=1):
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(msg)


def reply_results(obj):
    if "results" in obj:
        return [[r["jungloid"], r["code"]] for r in obj["results"]]
    return [[s["title"], s["code"], s["uses_var"]] for s in obj["suggestions"]]


def check_reply(tally, raw, expect=None, empty=None, count=1):
    """One distinct reply, seen [count] times."""
    try:
        obj = json.loads(raw)
    except ValueError:
        tally.fail("unparsable reply %r" % raw[:80], count)
        return None
    if obj.get("ok") is not True:
        tally.fail("error reply %s" % raw[:200].decode("utf-8", "replace"), count)
        return None
    if empty is not None and obj.get("op") == "query":
        if empty and obj["count"] != 0:
            tally.fail("unsolvable query %s returned %d results" % (obj.get("id"), obj["count"]), count)
        if not empty and obj["count"] == 0:
            tally.fail("solvable query %s returned no results" % obj.get("id"), count)
    if expect is not None and reply_results(obj) != expect:
        tally.fail("reply %s disagrees with the oracle" % obj.get("id"), count)
    return obj


# --------------------------------------------------------------- workloads


def closed_loop(conn, lines, seconds):
    """Send lines (wrapping) back to back for [seconds]; returns latencies
    in seconds, the elapsed time and {(request line, reply): n}."""
    lat = []
    seen = {}  # (request line, reply) -> count; repeated requests are byte-equal
    n = len(lines)
    i = 0
    gc.disable()  # no collector pauses inside the client's timings
    start = time.perf_counter()
    end = start + seconds
    t1 = start
    while t1 < end:
        t0 = time.perf_counter()
        r = conn.call(lines[i % n])
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        k = (lines[i % n], r)
        seen[k] = seen.get(k, 0) + 1
        i += 1
    gc.enable()
    return lat, t1 - start, seen


def open_loop(conn, lines, start, seconds, interval, clock=time.perf_counter, sleep=time.sleep):
    """Send lines[k] at start + k * interval (one connection, so a slow
    reply delays the next send); latency is timed from the due time, and
    how late the generator sent is kept beside it."""
    out = []
    k = 0
    while k < len(lines):
        due = start + k * interval
        if due >= start + seconds:
            break
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        r = conn.call(lines[k])
        done = clock()
        out.append({"due": due, "late": sent - due, "latency": done - due, "reply": r})
        k += 1
    return out


def read_lines(path):
    with open(path, "rb") as f:
        return [l if l.endswith(b"\n") else l + b"\n" for l in f.read().splitlines(True) if l.strip()]


def digest(d, names):
    h = hashlib.sha256()
    for n in names:
        p = os.path.join(d, n)
        if os.path.exists(p):
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def api_args(world):
    with open(os.path.join(world, "api.list")) as f:
        return [a for name in f.read().split() for a in ("--api", os.path.join(world, name))]


IMAGE = ["world.img", "world.img.reach"]


def world_dir():
    """The fixed 100k-method world and its pristine warm-start image, made
    once per build of the program (keyed by the binaries' digest) and used
    read-only by every run after that."""
    h = hashlib.sha256()
    for b in (CLI, PB):
        with open(b, "rb") as f:
            h.update(f.read())
    os.makedirs(WORK, exist_ok=True)
    w = os.path.join(WORK, "world-" + h.hexdigest()[:16])
    if os.path.exists(os.path.join(w, "image.sha")):
        return w
    for old in os.listdir(WORK):
        if old.startswith("world-"):
            shutil.rmtree(os.path.join(WORK, old), ignore_errors=True)
    tmp = "%s.tmp%d" % (w, os.getpid())
    os.makedirs(tmp)
    subprocess.run([PB, "world", "--dir", tmp], check=True, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    # one cold daemon start with --save-graph writes the image
    args = api_args(tmp) + ["--no-mining", "--workers", str(JOBS), "--save-graph", os.path.join(tmp, IMAGE[0])]
    Daemon(args, tmp, "image").shutdown()
    with open(os.path.join(tmp, "image.sha"), "w") as f:
        f.write(digest(tmp, IMAGE))
    os.rename(tmp, w)
    return w


def setups(w, make, keep_last=True):
    """Set up SETUPS[w] times; all but the last are torn down at once."""
    times = []
    last = None
    n = SETUPS[w]
    for k in range(n):
        x = make(k)
        times.append(x.setup_s)
        if k < n - 1 or not keep_last:
            x.shutdown()
        else:
            last = x
    return statistics.median(times), times, last


def run_daemon_workload(w, world, d, seconds, tally, report):
    expect = json.load(open(os.path.join(d, "expect.json")))
    oracle = expect["oracle"]
    report["oracle_skipped"] = expect["oracle_truncated_skipped"]
    lines = read_lines(os.path.join(d, "requests.ndjson"))
    if w == "table1-hot":
        args = ["--workers", str(JOBS)]
    else:
        args = api_args(world) + ["--no-mining", "--workers", str(JOBS)]
    if w in PINNED:
        # the client, and the daemons it spawns from here on, on one CPU
        report["cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {report["cpu"]})
    image_sum = None
    if w == "search-100k":
        args += ["--save-graph", os.path.join(world, IMAGE[0])]
        image_sum = open(os.path.join(world, "image.sha")).read()
        if digest(world, IMAGE) != image_sum:
            raise HarnessError("the cached warm-start image is not pristine")
    setup_s, setup_all, dm = setups(w, lambda k: Daemon(args, d, "s%d" % k))
    report["setup_s"] = (setup_s, "s", len(setup_all))
    conn = Conn(dm.port)
    reloads = []
    if w == "churn-100k":
        # the reload generator is a forked process of its own, so neither
        # client waits on the other's interpreter lock
        rlines = read_lines(os.path.join(d, "reloads.ndjson"))
        rout = os.path.join(d, "reloads.out")
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                rconn = Conn(dm.port)
                res = open_loop(rconn, rlines, start, seconds, RELOAD_INTERVAL_S)
                with open(rout, "w") as f:
                    json.dump([dict(r, reply=r["reply"].decode("utf-8", "replace")) for r in res], f)
                code = 0
            finally:
                os._exit(code)
        FORKED.append(pid)
        lat, elapsed, seen = closed_loop(conn, lines, seconds)
        _, status = os.waitpid(pid, 0)
        FORKED.remove(pid)
        if os.waitstatus_to_exitcode(status) != 0:
            raise HarnessError("the reload generator failed")
        reloads = [dict(r, reply=r["reply"].encode("utf-8")) for r in json.load(open(rout))]
    else:
        lat, elapsed, seen = closed_loop(conn, lines, seconds)
    final = []
    if w == "churn-100k":
        for line in read_lines(os.path.join(d, "final.ndjson")):
            final.append(conn.call(line))
    conn.close()
    rss = vm_hwm_mb(dm.proc.pid)
    dm.shutdown()
    if image_sum is not None and digest(world, IMAGE) != image_sum:
        tally.fail("the warm-start image changed during the run")

    # ---- oracle, outside the timed window ----
    sent = sum(seen.values())
    tally.attempted += sent
    unsolvable = set(expect.get("unsolvable", []))
    for (line, raw), count in seen.items():
        i = json.loads(line)["id"]  # the stream index (search) or distinct index (table1)
        rid = str(i)
        if w == "search-100k":
            check_reply(tally, raw, oracle.get(rid), empty=i in unsolvable, count=count)
        elif w == "table1-hot":
            check_reply(tally, raw, oracle.get(rid), count=count)
        else:
            check_reply(tally, raw, empty=False, count=count)
    if w == "churn-100k":
        tally.attempted += len(reloads)
        for r in reloads:
            check_reply(tally, r["reply"])
        applied = len(reloads)
        subprocess.run(
            [PB, "churn-final", "--seed", str(SEED), "--applied", str(applied), "--world", world, "--dir", d],
            check=True,
            stdout=sys.stderr,
        )
        fexp = json.load(open(os.path.join(d, "final_expect.json")))
        tally.attempted += len(final)
        for raw in final:
            obj = check_reply(tally, raw)
            if obj is not None and reply_results(obj) != fexp[str(obj["id"])]:
                tally.fail("final answer %s disagrees with a cold rebuild" % obj["id"])
        rl = [r["latency"] * 1e3 for r in reloads]
        late = [r["late"] * 1e3 for r in reloads]
        report["reload_p50_ms"] = (statistics.median(rl), "ms", len(rl))
        t = tail_pct(rl, 0.9)
        report["reload_tail"] = t
        report["reload_p90_ms"] = (t[1], "ms", len(rl)) if t else None
        report["generator_late_ms"] = (statistics.median(late), max(late))
    lat_ms = [x * 1e3 for x in lat]
    report["query_p50_ms"] = (statistics.median(lat_ms), "ms", len(lat_ms))
    t = tail_pct(lat_ms, 0.99)
    report["query_tail"] = t
    report["query_p99_ms"] = (t[1], "ms", len(lat_ms)) if t else None
    t = tail_pct(lat_ms, 0.9)
    report["query_p90_ms"] = (t[1], "ms", len(lat_ms)) if t else None
    report["query_per_s"] = (len(lat) / elapsed, "1/s", len(lat))
    report["rss_mb"] = (rss, "MB", 1)


def run_batch_workload(world, d, seconds, tally, report):
    expect = json.load(open(os.path.join(d, "expect.json")))
    oracle = expect["oracle"]
    report["oracle_skipped"] = expect["oracle_truncated_skipped"]
    unsolvable = set(expect["unsolvable"])
    base = [CLI, "batch"] + api_args(world) + ["--no-mining", "--jobs", str(JOBS)]

    class Once:
        def __init__(self, qfile, tag):
            out = os.path.join(d, "batch-%s.out" % tag)
            self.log = os.path.join(d, "batch-%s.log" % tag)
            t0 = time.perf_counter()
            with open(out, "wb") as o:
                p = spawn(base + [os.path.join(d, qfile)], self.log, stdout=o)
                code, self.rss = reap(p, CHILD_TIMEOUT_S)
            self.setup_s = self.wall = time.perf_counter() - t0
            if code != 0:
                raise HarnessError("batch exited with %d:\n%s" % (code, tail(self.log)))
            self.out = out

        def shutdown(self):
            pass

    setup_s, setup_all, _ = setups("batch-100k", lambda k: Once("empty.txt", "s%d" % k), keep_last=False)
    report["setup_s"] = (setup_s, "s", len(setup_all))
    nq = sum(1 for _ in open(os.path.join(d, "batch.txt")))
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(Once("batch.txt", "r%d" % len(runs)))
    # ---- oracle: every run's output, block by block ----
    for r in runs:
        tally.attempted += nq
        with open(r.out, "rb") as f:
            text = f.read().decode("utf-8")
        blocks = []
        for line in text.splitlines(True):
            if line.startswith("(") and line.rstrip().endswith("result(s)"):
                blocks.append(line)
            elif blocks:
                blocks[-1] += line
        if len(blocks) != nq:
            tally.fail("batch printed %d blocks for %d queries" % (len(blocks), nq), nq)
            continue
        for i, exp in oracle.items():
            if blocks[int(i)] != exp:
                tally.fail("batch answer %s disagrees with the oracle" % i)
        for i, b in enumerate(blocks):
            if i not in unsolvable and b.split("\n", 1)[0].endswith(": 0 result(s)"):
                tally.fail("solvable batch query %d returned no results" % i)
    walls = [r.wall for r in runs]
    report["batch_per_s"] = (statistics.median([nq / x for x in walls]), "1/s", len(walls))
    report["batch_wall_ms"] = (statistics.median(walls) * 1e3, "ms", len(walls))
    report["batch_max_ms"] = max(walls) * 1e3
    report["rss_mb"] = (max(r.rss for r in runs), "MB", len(runs))


# ------------------------------------------------------------------ report


def stamp(d):
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    commit = cmd(["git", "rev-parse", "--short", "HEAD"]) or "unknown (not a git checkout)"
    ocaml = cmd(["ocamlfind", "ocamlopt", "-version"]) or cmd(["ocamlopt", "-version"]) or "unknown"
    world = {}
    p = os.path.join(d, "expect.json")
    if os.path.exists(p):
        world = json.load(open(p)).get("world", {})
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "ocaml": ocaml,
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", "(unset: runtime defaults)"),
        "world": world,
    }


# BENCHMARK.json's end-to-end metrics in terms of the per-workload ones in
# the report: every workload reports all five.
def e2e_metrics(w, rep):
    if w == "batch-100k":
        p50, tailv = rep["batch_wall_ms"][0], rep["batch_max_ms"]
        per_s = rep["batch_per_s"][0]
    elif w == "churn-100k":
        p50, tailv = rep["reload_p50_ms"][0], rep["reload_p90_ms"][0]
        per_s = rep["query_per_s"][0]
    elif w == "table1-hot":
        # p90, not p99: the p99 falls on the steep part of a stall tail
        # (about 1.3% of replies take over 1 ms, against a 0.06 ms median),
        # so a small change in how often stalls come moves it by a lot
        p50, tailv = rep["query_p50_ms"][0], rep["query_p90_ms"][0]
        per_s = rep["query_per_s"][0]
    else:
        p50, tailv = rep["query_p50_ms"][0], rep["query_p99_ms"][0]
        per_s = rep["query_per_s"][0]
    return {
        "setup_s": (rep["setup_s"][0], "s"),
        "p50_ms": (p50, "ms"),
        "tail_ms": (tailv, "ms"),
        "ops_per_s": (per_s, "1/s"),
        "rss_mb": (rep["rss_mb"][0], "MB"),
    }


def print_report(w, seed, st, dig, rep, tally):
    print("perfbench %s seed=%d" % (w, seed))
    print(
        "stamp: commit=%s nproc=%s ocaml=%s OCAMLRUNPARAM=%s world=%s"
        % (st["commit"], st["nproc"], st["ocaml"], st["OCAMLRUNPARAM"], json.dumps(st["world"]))
    )
    print("stream digest: %s" % dig)
    if "cpu" in rep:
        print("client and daemon pinned to CPU %d" % rep["cpu"])
    for name in (
        "setup_s",
        "query_p50_ms",
        "query_p90_ms",
        "query_p99_ms",
        "query_per_s",
        "reload_p50_ms",
        "reload_p90_ms",
        "batch_per_s",
        "rss_mb",
    ):
        v = rep.get(name)
        if v is None:
            continue
        label = name
        if name == "query_p99_ms" and rep["query_tail"][0] != 0.99:
            label = "query_p%d_ms" % round(rep["query_tail"][0] * 100)
        if name == "reload_p90_ms" and rep["reload_tail"][0] != 0.9:
            label = "reload_p%d_ms" % round(rep["reload_tail"][0] * 100)
        print("  %-16s %12.4f %-4s n=%d" % (label, v[0], v[1], v[2]))
    if "generator_late_ms" in rep:
        print("  reload generator lateness: median %.3f ms, max %.3f ms" % rep["generator_late_ms"])
    if rep.get("oracle_skipped"):
        print(
            "  oracle: %d sampled queries passed over (exhaustive enumeration hit its path limit)"
            % rep["oracle_skipped"]
        )
    ratio = tally.failed / max(1, tally.attempted)
    print("  %-16s %12.6f      n=%d" % ("fail_ratio", ratio, tally.attempted))
    for n in tally.notes:
        print("  mismatch: " + n)


# -------------------------------------------------------------------- main


def build():
    for need in ("dune-project", os.path.join("bin", "prospector_cli.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            log("perfbench: %s not found -- run from the root of a full checkout" % need)
            sys.exit(2)
    r = subprocess.run(
        # no shared dune cache: the build reads and writes only the checkout
        ["dune", "build", "--root", ".", "--cache=disabled", "bin/prospector_cli.exe", "perfbench/pb.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=850,
    )
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def emit(correct, attempted, failed, metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def selftest():
    ok = True

    def check(name, cond):
        nonlocal ok
        print("%-52s %s" % (name, "ok" if cond else "FAILED"))
        ok = ok and cond

    r = subprocess.run([PB, "selftest"], capture_output=True, text=True)
    print(r.stdout, end="")
    check("pb selftest (span arithmetic)", r.returncode == 0)
    v = list(range(1, 1001))
    check("percentile: 1000 samples -> p99 (10 beyond)", tail_pct(v, 0.99) == (0.99, 990))
    check("percentile: 999 samples -> p95", tail_pct(v[:999], 0.99)[0] == 0.95)
    check("percentile: 100 samples, cap p90 -> p90", tail_pct(v[:100], 0.9) == (0.9, 90))
    check("percentile: 15 samples -> none beyond p50", tail_pct(v[:15], 0.99) is None)

    # open loop: a fake clock where every reply takes 0.25 s against a
    # 0.1 s schedule, so sends fall behind and latency counts the wait
    class FakeConn:
        def __init__(self, clock):
            self.clock = clock

        def call(self, line):
            self.clock[0] += 0.25
            return b"{}\n"

    clk = [0.0]
    out = open_loop(
        FakeConn(clk), [b"x\n"] * 10, 0.0, 1.0, 0.1, clock=lambda: clk[0], sleep=lambda s: clk.__setitem__(0, clk[0] + s)
    )
    lat = [round(o["latency"], 6) for o in out]
    late = [round(o["late"], 6) for o in out]
    check("open loop: latency timed from the due time", lat[:3] == [0.25, 0.4, 0.55])
    check("open loop: generator lateness reported", late[:3] == [0.0, 0.15, 0.3])

    # the same seed gives a byte-identical stream; another seed does not
    world = world_dir()
    d = os.path.join(WORK, "selftest-%d" % os.getpid())
    again = os.path.join(d, "world")
    os.makedirs(again)
    subprocess.run([PB, "world", "--dir", again], check=True)
    names = open(os.path.join(world, "api.list")).read().split()
    check("world determinism: regenerated .japi identical", digest(world, names) == digest(again, names))
    digs = {}
    for w in ("table1-hot", "batch-100k"):
        for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
            sub = os.path.join(d, w + tag)
            os.makedirs(sub)
            subprocess.run(
                [PB, "gen", "--workload", w, "--seed", str(seed), "--seconds", "1", "--world", world]
                + ["--dir", sub],
                check=True,
            )
            digs[w + tag] = digest(sub, ["requests.ndjson", "batch.txt", "reloads.ndjson"])
        check("stream determinism: %s same seed" % w, digs[w + "a"] == digs[w + "b"])
        check("stream determinism: %s other seed differs" % w, digs[w + "a"] != digs[w + "c"])
    shutil.rmtree(d, ignore_errors=True)
    return 0 if ok else 1


SEED = 0


def main():
    global SEED
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    atexit.register(kill_children)
    build()
    if a.selftest:
        return selftest()
    if a.workload is None:
        ap.error("--workload is required")
    SEED = a.seed
    d = os.path.join(WORK, "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    try:
        world = world_dir()
        subprocess.run(
            [PB, "gen", "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
            + ["--world", world, "--dir", d],
            check=True,
            stdout=sys.stderr,
            timeout=CHILD_TIMEOUT_S,
        )
        dig = digest(d, ["requests.ndjson", "reloads.ndjson", "batch.txt"])
        st = stamp(d)
        tally = Tally()
        if a.trace == 1:
            r = subprocess.run(
                [PB, "trace", "--workload", a.workload, "--seconds", str(a.seconds), "--world", world, "--dir", d],
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            sys.stderr.write(r.stderr)
            if r.returncode != 0:
                raise HarnessError("traced run failed with %d" % r.returncode)
            res = json.loads(r.stdout.strip().splitlines()[-1])
            os.makedirs(OUT, exist_ok=True)
            spans_out = os.path.join(OUT, "%s-seed%d.spans.tsv" % (a.workload, a.seed))
            shutil.copyfile(os.path.join(d, "spans.tsv"), spans_out)
            print("perfbench %s seed=%d (traced, in-process)" % (a.workload, a.seed))
            print(
                "stamp: commit=%s nproc=%s ocaml=%s OCAMLRUNPARAM=%s world=%s"
                % (st["commit"], st["nproc"], st["ocaml"], st["OCAMLRUNPARAM"], json.dumps(st["world"]))
            )
            print("stream digest: %s" % dig)
            print("spans: %d written to %s" % (res["spans"], spans_out))
            for k, m in res["metrics"].items():
                print("  %-24s %14.4f %s" % (k, m["value"], m["unit"]))
            metrics = {k: (m["value"], m["unit"]) for k, m in res["metrics"].items()}
            emit(res["correct"], res["attempted"], res["failed"], metrics)
            return 0 if res["correct"] else 1
        rep = {}
        if a.workload == "batch-100k":
            run_batch_workload(world, d, a.seconds, tally, rep)
        else:
            run_daemon_workload(a.workload, world, d, a.seconds, tally, rep)
        print_report(a.workload, a.seed, st, dig, rep, tally)
        emit(tally.failed == 0, tally.attempted, tally.failed, e2e_metrics(a.workload, rep))
        return 0 if tally.failed == 0 else 1
    except (HarnessError, Dropped, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        kill_children()
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
