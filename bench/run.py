"""Run one benchmark workload of ptwell and print its metrics.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

One closed-loop client sends one operation at a time.  With --trace 0 the
run measures the end-to-end metrics (ops_per_s, op_p50_ms, peak_rss_mb,
setup_s); with --trace 1 it runs one round untraced and one round with the
program's public functions wrapped, and reports the per-layer metrics and
the tracing overhead.  Every answer goes to the referee, outside the timed
region.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Run from the root of a ptwell checkout; the program is imported from src/.
"""
import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import referee  # noqa: E402  (stdlib-only until it checks)
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed in fresh processes: one unmeasured probe fills the page
# cache and writes bytecode, then half the measured probes run before the
# timed loop and half after it, and the median counts.
SETUP_PROBES = 6


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probes(workload, count):
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        raw, before, after = (float(v) for v in done.stdout.split())
        samples.append(raw * 2.0 * refclock.REFERENCE_S / (before + after))
    return samples


def run_cli(req):
    """One CLI process: (exit code, stdout bytes, wall seconds, peak RSS in KiB)."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "cli_stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(workloads.cli_command(req), stdout=subprocess.PIPE, stderr=err,
                                env=_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss


class Loop:
    """Whole rounds of one workload's requests.

    Keeps round one's answers for the referee, checks that later rounds
    reproduce them, and keeps every attempt's latency scaled to the
    reference speed (see refclock).
    """

    def __init__(self, reqs):
        self.reqs = reqs
        self.answers = [None] * len(reqs)
        self.prints = [None] * len(reqs)
        self.latencies = []  # (scaled seconds, succeeded)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0
        self.unrepeated = []

    def record(self, i, ok, answer, latency):
        """Book one attempt; later rounds must reproduce round one's answer."""
        self.attempted += 1
        self.failed += not ok
        self.latencies.append((latency, ok))
        fp = workloads.fingerprint(self.reqs[i], answer)
        if self.rounds == 0:
            self.answers[i], self.prints[i] = answer, fp
        elif fp != self.prints[i]:
            self.unrepeated.append(workloads.describe(self.reqs[i]))

    def run(self, seconds, attempt):
        timer = refclock.ScaledTimer()
        t0 = time.perf_counter()
        while True:
            for i, req in enumerate(self.reqs):
                ok, answer, wall = attempt(req)
                self.record(i, ok, answer, timer.scale(wall))
            self.rounds += 1
            if time.perf_counter() - t0 >= seconds:
                break
        self.wall = time.perf_counter() - t0
        return self


def inprocess_attempt(workload, program, tracer):
    def attempt(req):
        workloads.reset(workload, program)
        t0 = time.perf_counter()
        try:
            answer = workloads.run_op(program, req, tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            return False, exc, time.perf_counter() - t0
        return True, answer, time.perf_counter() - t0
    return attempt


def end_to_end(loop, setup_s, peak_rss_kib):
    """The four end-to-end metrics, times scaled to the reference speed.

    ops_per_s divides the successful attempts by the summed latencies of
    all attempts, failed ones included; op_p50_ms is the median latency of
    the successful attempts.
    """
    good = [t for t, ok in loop.latencies if ok]
    return {
        "ops_per_s": {"value": len(good) / sum(t for t, _ in loop.latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(good) * 1e3 if good else math.nan, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def timed_run(workload, reqs, seconds):
    setup_probes(workload, 1)
    probes = setup_probes(workload, SETUP_PROBES // 2)
    if workload == "cli":
        peak = [0]

        def attempt(req):
            code, out, wall, rss = run_cli(req)
            peak[0] = max(peak[0], rss)
            return code == 0, (code, out), wall
        loop = Loop(reqs).run(seconds, attempt)
        probes += setup_probes(workload, SETUP_PROBES - SETUP_PROBES // 2)
        program = workloads.load(workload)  # for the backend line and the referee
        return loop, end_to_end(loop, statistics.median(probes), peak[0]), program
    program = workloads.load(workload)
    workloads.warm_up(workload, program)
    loop = Loop(reqs).run(seconds, inprocess_attempt(workload, program, workloads.NullTracer()))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the referee imports
    probes += setup_probes(workload, SETUP_PROBES - SETUP_PROBES // 2)
    return loop, end_to_end(loop, statistics.median(probes), peak), program


def _cli_main(program, argv):
    program.critical.cache_clear()  # a fresh process starts with an empty cache
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = program.cli.main(list(argv))
    return code, buf.getvalue().encode(), time.perf_counter() - t0


def traced_run(workload, reqs, seed):
    program = workloads.load(workload)
    workloads.warm_up(workload, program)
    tracer = tracing.Tracer()
    extra = {}
    if workload == "cli":
        loop = Loop(reqs)
        untraced = traced = startup = 0.0
        stdout_bytes = 0
        for i, req in enumerate(reqs):
            code, out, wall, _ = run_cli(req)
            loop.record(i, code == 0, (code, out), wall)
            _, text, main_s = _cli_main(program, req[1:])
            restore = tracing.install(tracer, program)
            tracer.request = i
            try:
                _, traced_text, traced_s = _cli_main(program, req[1:])
            finally:
                restore()
            if not out == text == traced_text:
                loop.unrepeated.append(workloads.describe(req))
            untraced += main_s
            traced += traced_s
            startup += (wall - main_s) * 1e3
            stdout_bytes += len(out)
        loop.rounds, loop.wall = 1, sum(t for t, _ in loop.latencies)
        extra = {"cli.startup_ms": startup, "cli.stdout_bytes": stdout_bytes}
    else:
        loop = Loop(reqs)
        attempt = inprocess_attempt(workload, program, workloads.NullTracer())
        t0 = time.perf_counter()
        for i, req in enumerate(reqs):
            loop.record(i, *attempt(req))
        untraced = time.perf_counter() - t0
        loop.rounds, loop.wall = 1, untraced
        restore = tracing.install(tracer, program)
        attempt = inprocess_attempt(workload, program, tracer)
        t0 = time.perf_counter()
        try:
            for i, req in enumerate(reqs):
                tracer.request = i
                _, answer, _ = attempt(req)
                if workloads.fingerprint(req, answer) != loop.prints[i]:
                    loop.unrepeated.append(workloads.describe(req))
        finally:
            restore()
        traced = time.perf_counter() - t0
    values = tracer.metrics()
    values.update(extra)
    overhead = traced / untraced - 1.0
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "overhead": overhead,
                   "untraced_s": untraced, "traced_s": traced,
                   "requests": [workloads.describe(r) for r in reqs],
                   "counts": dict(tracer.calls), "ms": dict(tracer.ms),
                   "self_ms": tracer.self_ms(),
                   "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                              "parent": s[4], "request": s[5]} for s in tracer.spans]},
                  fh)
    print(f"tracing overhead: {overhead * 100:.1f}% "
          f"(untraced round {untraced:.3f} s, traced {traced:.3f} s); spans in {path}")
    for name, unit in tracing.PER_LAYER:
        print(f"  {name:48s} {values[name]:14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    return loop, metrics, program


def main(argv=None):
    # one CPU for the run and every process it starts, so a process and the
    # reference loop that scales its time share the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ptwell" / "__init__.py").is_file():
        print(f"error: no ptwell sources under {SRC}; run from a ptwell checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    reqs = workloads.make_round(args.workload, args.seed)
    if args.trace:
        loop, metrics, program = traced_run(args.workload, reqs, args.seed)
    else:
        loop, metrics, program = timed_run(args.workload, reqs, args.seconds)
    backend = "python" if program.oracle_verifier.njit is None else "numba"
    print(f"workload {args.workload} seed {args.seed}: {loop.rounds} round(s) of {len(reqs)} "
          f"requests in {loop.wall:.2f} s ({(loop.attempted - loop.failed) / loop.wall:.4g} "
          f"successful ops per wall second); RK4 loop backend: {backend}")

    problems = referee.check(args.workload, reqs, loop.answers, program)
    problems += [f"answer changed between rounds: {d}" for d in loop.unrepeated]
    for p in problems[:20]:
        print(f"referee: {p}", file=sys.stderr)
    for i, answer in enumerate(loop.answers):
        if isinstance(answer, BaseException) or (loop.reqs[i][0] == "cli" and answer[0] != 0):
            print(f"failed: {workloads.describe(reqs[i])}: {answer!r}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
