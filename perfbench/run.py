#!/usr/bin/env python3
"""Build and run the dacc benchmark.

One workload (the last stdout line is the result):

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Every workload, each in its own process, with output checks:

    python3 perfbench/run.py [--seed S] [--trace 1] [--quick] [--check]

dacc_bench is built from the repository's sources into .bench_build/ (or
--build-dir DIR) on first use. Each run prints `workload metric value unit`
lines and writes a stamped JSON file under .bench_build/out/ (or --out DIR);
--trace 1 also writes <workload>.layers.json and a Chrome trace there.
compare.py reads those files.
"""
import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper-sweep", "mp2c-churn", "cmd-stream", "arm-storm"]
TIME_LIMIT_S = 170  # one run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds dacc_bench; returns False on failure."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log("error: %s holds no dacc sources to build the benchmark from" % ROOT)
        return False
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(build_dir), "--target", "dacc_bench",
                  "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                log(build_log.read_text()[-4000:])
                log("error: building the benchmark failed (see %s)" % build_log)
                return False
    return True


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_bench(program, workload, args, deadline):
    cmd = [str(program), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", str(args.out)]
    if args.trace:
        cmd.append("--trace")
    if args.heartbeats:
        cmd.append("--heartbeats")
    if args.leader_kill:
        cmd.append("--leader-kill")
    timeout = max(5.0, deadline - time.monotonic())
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0 or not r.stdout.strip():
        log(r.stderr[-4000:])
        raise RuntimeError("dacc_bench %s exited with %d" % (workload, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(raw, references):
    """Output checks of one run: dacc_bench's own (paper shapes, byte
    comparisons, pool drained, every job complete), digest agreement across
    units (traced ones included), the committed reference digest, and the
    figure points against the figure benches' committed BENCH_<fig>.json."""
    problems = list(raw["errors"])
    if not raw["digests_agree"]:
        problems.append("simulated digest differs between units")
    want = references.get(str(raw["seed"]), {}).get(raw["workload"])
    if want is not None and want != raw["digest"]:
        problems.append("digest %s != reference %s for seed %d"
                        % (raw["digest"], want, raw["seed"]))
    committed = {}
    for name, ns in raw["points"].items():
        path = ROOT / ("BENCH_%s.json" % name.split("/")[0])
        if path not in committed:
            committed[path] = ({r["name"]: r["sim_ns"] for r in
                                load_json(path)["results"]}
                               if path.exists() else {})
        want = committed[path].get(name)
        if want is not None and want != ns:
            problems.append("%s: %d sim ns, %s has %d"
                            % (name, ns, path.name, want))
    return problems


def summarize(raw, spec):
    """The result object: the end-to-end metrics over the run's units, or the
    traced run's per-layer metrics.

    Every unit of a run does the same simulated work (their digests agree),
    so the spread of their host times is interference from the rest of the
    machine, which only ever adds time. The fastest unit is therefore the
    steadiest estimate of the program's own cost (README.md, Noise)."""
    if raw["trace"]:
        # A simulated result the workload does not define reads 0.
        values = {m["name"]: 0 for m in spec["per_layer"]}
        values.update(raw["model"], **raw["layers"])
        wanted = spec["per_layer"]
    else:
        values = {"best_wall_s": min(raw["wall_s"]),
                  "best_cpu_s": min(raw["cpu_s"]),
                  "setup_s": statistics.median(raw["setup_s"]),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def one(workload, args, spec, references, deadline):
    raw = run_bench(args.build_dir / "dacc_bench", workload, args, deadline)
    problems = check(raw, references)
    metrics = summarize(raw, spec)
    attempted, failed = raw["attempted"], raw["failed"]
    when = datetime.datetime.now()
    stamp = dict(raw["stamp"], commit=git_commit(), seed=args.seed,
                 quick=args.quick, seconds=args.seconds, when=when.isoformat())
    if stamp["sanitizer"] or stamp["build_type"] == "Debug":
        problems.append("timings from a %s build are not comparable"
                        % ("sanitizer" if stamp["sanitizer"] else "Debug"))
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    for name, m in metrics.items():
        print("%s %s %.6g %s" % (workload, name, m["value"], m["unit"]))
    if not raw["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("%s units %d count" % (workload, raw["units"]))
        print("%s failed_ratio %.6g ratio" % (workload, failed / max(1, attempted)))
        for name, value in raw["model"].items():
            print("%s %s %.6g %s" % (workload, name, value, units[name]))
    print("%s digest %s" % (workload, raw["digest"]))
    for p in problems:
        log("%s: check failed: %s" % (workload, p))

    tag = "trace" if raw["trace"] else "e2e"
    record = {"result": result, "stamp": stamp, "problems": problems, "raw": raw}
    name = "%s-s%d-%s-%s.json" % (workload, args.seed, tag,
                                  when.strftime("%Y%m%d-%H%M%S-%f"))
    with open(args.out / name, "w") as f:
        json.dump(record, f, indent=1)
    if raw["trace"]:
        with open(args.out / ("%s.layers.json" % workload), "w") as f:
            json.dump({"stamp": stamp, "metrics": metrics}, f, indent=1)
    return result


def main():
    # Exit through Python on SIGTERM, so that subprocess.run kills and reaps
    # a dacc_bench still running (a hung one would otherwise outlive us).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = load_json(ROOT / "BENCHMARK.json")
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured host time per workload (default %d, 1 with "
                        "--quick)" % spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--quick", action="store_true")
    p.add_argument("--heartbeats", action="store_true",
                   help="arm-storm with liveness heartbeats (not part of the "
                        "benchmark; see README.md)")
    p.add_argument("--leader-kill", action="store_true",
                   help="arm-storm with one seeded Raft leader kill (not part "
                        "of the benchmark; see README.md)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless every output check passes")
    p.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    p.add_argument("--out", type=Path, default=None,
                   help="run output directory (default BUILD_DIR/out)")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    args.build_dir = args.build_dir.resolve()
    args.out = args.out or args.build_dir / "out"
    start = time.monotonic()

    references = load_json(HERE / "reference.json")["digests"]
    if not build(args.build_dir):
        return 1
    args.out.mkdir(parents=True, exist_ok=True)

    # The first run in a checkout also builds; the time limit covers the runs.
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    built = time.monotonic()
    ok = True
    result = None
    for w in workloads:
        deadline = time.monotonic() + TIME_LIMIT_S - min(10.0, built - start)
        result = one(w, args, spec, references, deadline)
        ok = ok and result["correct"]
    if args.workload != "all":
        print(json.dumps(result))
    else:
        print("check: %s" % ("ok" if ok else "FAILED"))
    return 1 if args.check and not ok else 0


if __name__ == "__main__":
    sys.exit(main())
