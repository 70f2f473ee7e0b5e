"""Benchmark runner for twistalex.

    python3 bench/run.py --workload fibred-na --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Each workload is a list of
`twistalex` CLI jobs (see workloads.py).  The runner spawns them one at a
time, each as `python3 -m twistalex.cli ...` with `src` on PYTHONPATH, and
checks every job's stdout.  It repeats the job list ("a pass") until
`--seconds` have elapsed and reports medians over the passes:

  wall_s       spawn-to-exit seconds of one pass, summed over its jobs
  cpu_s        user + system CPU seconds of one pass (os.wait4 per job)
  peak_rss_mb  largest ru_maxrss of any job in the run
  setup_s      median seconds to start the interpreter, import
               twistalex.cli and exit, over several spawns

Timings are given at a reference CPU speed.  The runner pins itself, and
so every job, to one CPU, and while jobs run a probe thread on the same
CPU times a fixed piece of pure-Python work (`tick`) every 30 ms.  Each measured time is scaled by TICK_REF_S over the
trimmed mean tick time of the same interval.  On a shared host, other
tenants slow a CPU down by up to 1.7x for seconds at a time; the scaling
cancels that, and the raw times are printed beside the scaled ones.

A job fails on a nonzero exit, on the per-job time limit or on an output
check; `failed_frac` (failed / attempted jobs) is printed with the metrics
and carried by the `failed` and `attempted` fields of the result.

With `--trace 1` the runner times one untraced pass, then runs the same
jobs in-process under the span tracer (traced.py) in a child process for
`--seconds`, and reports the per-layer metrics listed in BENCHMARK.json.

The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, jobs, sha256  # noqa: E402

JOB_LIMIT_S = 60
TRACE_LIMIT_S = 150
SETUP_SPAWNS = 9
SETUP_CODE = "import twistalex.cli"
PROBE_INTERVAL_S = 0.03
# Trimmed mean of `tick` measured by the probe on an otherwise idle vCPU of
# a 2-vCPU KVM guest on a 2.1 GHz Xeon, Python 3.11.7.
TICK_REF_S = 0.0008


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def tick():
    """Fixed pure-Python work: integer arithmetic and dict stores."""
    d = {}
    x = 1
    for i in range(4000):
        x = (x * 1103515245 + 12345) % 2147483648
        d[i & 255] = x
    return x


class Probe:
    """Times `tick` on the runner's CPU while the block runs.

    `scale` is TICK_REF_S over the trimmed mean tick time (lowest and
    highest tenth dropped): multiply a time measured inside the block by it
    to get the time at the reference speed.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            tick()
            self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    @property
    def scale(self):
        s = sorted(self.samples)
        if not s:
            start = time.perf_counter()
            tick()
            s = [time.perf_counter() - start]
        cut = len(s) // 10
        return TICK_REF_S / statistics.fmean(s[cut:len(s) - cut])


def spawn(cmd, out_path, limit):
    """Run cmd to completion, stdout to out_path.

    Returns (exit code or None on the time limit, wall s, cpu s, maxrss KB).
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if expired.is_set() else proc.returncode
    return code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def measure_setup(workdir):
    """(scaled, raw) median wall of SETUP_SPAWNS interpreter starts."""
    out = os.path.join(workdir, "setup.out")
    cmd = [sys.executable, "-c", SETUP_CODE]
    spawn(cmd, out, JOB_LIMIT_S)            # writes the bytecode caches
    walls = []
    with Probe() as probe:
        for _ in range(SETUP_SPAWNS):
            code, wall, _, _ = spawn(cmd, out, JOB_LIMIT_S)
            if code != 0:
                raise RuntimeError(f"importing twistalex.cli failed "
                                   f"(exit {code})")
            walls.append(wall)
    raw = statistics.median(walls)
    return raw * probe.scale, raw


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.scale = 1.0
        self.maxrss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.stdout = {}


def run_pass(job_list, workdir):
    p = Pass()
    with Probe() as probe:
        for job in job_list:
            out = os.path.join(workdir, job.name + ".out")
            code, wall, cpu, rss = spawn(
                [sys.executable, "-m", "twistalex.cli", *job.argv], out,
                JOB_LIMIT_S)
            p.attempted += 1
            p.wall += wall
            p.cpu += cpu
            p.maxrss_kb = max(p.maxrss_kb, rss)
            with open(out, "rb") as fh:
                stdout = fh.read()
            p.stdout[job.name] = stdout
            if code is None:
                problems = [f"time limit of {JOB_LIMIT_S} s"]
            elif code != 0:
                problems = [f"exit code {code}"]
            else:
                problems = job.check(stdout)
            if problems:
                p.failed += 1
                print(f"FAIL {job.name}: {'; '.join(problems)}",
                      file=sys.stderr)
    p.scale = probe.scale
    return p


def run_traced(job_list, reference, seconds, workdir, units):
    """Per-layer metrics (medians over traced passes, metrics in seconds
    scaled), attempted and failed job counts."""
    spec = os.path.join(workdir, "trace-spec.json")
    result = os.path.join(workdir, "trace-result.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"jobs": [[j.name, j.argv] for j in job_list],
                   "seconds": seconds, "result": result}, fh)
    out = os.path.join(workdir, "trace.out")
    with Probe() as probe:
        code, _, _, _ = spawn([sys.executable, os.path.join(HERE, "traced.py"),
                               spec], out, TRACE_LIMIT_S)
    with open(out + ".err", encoding="utf-8", errors="replace") as fh:
        sys.stderr.write(fh.read())
    if code != 0:
        print(f"FAIL traced run: exit {code}", file=sys.stderr)
        return {}, len(job_list), len(job_list)
    with open(result, encoding="utf-8") as fh:
        traced = json.load(fh)
    failed = 0
    attempted = 0
    for run in traced["passes"]:
        for name, exit_code, digest in run["jobs"]:
            attempted += 1
            if exit_code != 0 or digest != sha256(reference[name]):
                failed += 1
                print(f"FAIL traced {name}: exit {exit_code}; in-process "
                      f"stdout must equal the subprocess stdout",
                      file=sys.stderr)
    metrics = {}
    for k in traced["passes"][0]["metrics"]:
        value = statistics.median(r["metrics"][k] for r in traced["passes"])
        metrics[k] = value * probe.scale if units.get(k) == "s" else value
    return metrics, attempted, failed


def load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twistalex", "cli.py")):
        print(f"error: no twistalex source under {ROOT}/src", file=sys.stderr)
        return 2
    # a running job is killed on the way out (see spawn)
    signal.signal(signal.SIGTERM, _terminate)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    e2e_units, layer_units = load_metric_units()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        job_list = jobs(args.workload, args.seed, ROOT, workdir)
        setup_s, setup_raw = measure_setup(workdir)
        if args.trace:
            print(f"{args.workload} seed {args.seed}: traced in-process run")
            ref = run_pass(job_list, workdir)
            metrics, attempted, failed = run_traced(
                job_list, ref.stdout, args.seconds, workdir, layer_units)
            attempted += ref.attempted
            failed += ref.failed
            if metrics:
                untraced = (ref.wall * ref.scale
                            - len(job_list) * setup_s)
                metrics["trace.overhead_ratio"] = (metrics["trace.wall_s"]
                                                   / untraced)
            units = layer_units
        else:
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(job_list, workdir))
            attempted = sum(p.attempted for p in passes)
            failed = sum(p.failed for p in passes)
            metrics = {
                "wall_s": statistics.median(p.wall * p.scale for p in passes),
                "cpu_s": statistics.median(p.cpu * p.scale for p in passes),
                "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024,
                "setup_s": setup_s,
            }
            units = e2e_units
            print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
                  f"of {len(job_list)} job(s); raw wall_s "
                  f"{statistics.median(p.wall for p in passes):.4g}, raw "
                  f"cpu_s {statistics.median(p.cpu for p in passes):.4g}, "
                  f"raw setup_s {setup_raw:.4g}, scale "
                  f"{statistics.median(p.scale for p in passes):.4g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [k for k in units if k not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        failed = max(failed, 1)
    for name, unit in units.items():
        print(f"  {name:40s} {metrics.get(name, float('nan')):14.6g} {unit}")
    print(f"  {'failed_frac':40s} {failed / max(attempted, 1):14.6g} "
          f"fraction ({failed}/{attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
