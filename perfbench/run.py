"""Benchmark of the ``derivpoly`` command-line program.

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

``--trace 0`` is the timed run.  One driver process runs the workload's
commands as subprocesses, one at a time (a closed loop with one client).  A
first, untimed pass compiles the bytecode and is checked by ``gate.py``.
Then as many whole timed passes as fit in ``--seconds`` seconds (at least
one) repeat the commands, and each output must be byte-identical to the
checked one.  Every timed child runs beside the host-speed gauge of
``gauge.py``, which rescales its CPU time to a nominal host speed.  The run
reports:

* ``wall_s``: the time of one pass, the sum over its commands of the median
  rescaled time;
* ``setup_s``: the median rescaled time of a no-work command, sampled
  ``SETUP_REPEATS`` times before the first pass and after each pass;
* ``peak_rss_mb``: the largest max-RSS of any timed child process.

Raw spawn-to-exit wall times and CPU times are kept in the result file, and
``fail_ratio`` (failed over attempted commands) is printed.

``--trace 1`` is the traced run.  It runs the same commands in-process,
alternating untraced passes with passes traced by ``tracing.py``, and
reports the per-layer counts, self times (medians over traced passes, not
rescaled) and the tracing overhead.  Caches are reset between commands to
match the cold state of a fresh process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  Everything the run writes goes to
``perfbench/out/``.  Without ``src/derivpoly`` the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import gauge
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5


def child_env() -> dict:
    """Environment of each child: no DERIVPOLY_* or other PYTHON* settings."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def host_info(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "derivpoly").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)), "commit": commit,
            "source_sha256": source.hexdigest()[:16]}


def reference_pass(argvs, env) -> tuple[list[bytes], list[list[str]]]:
    """Untimed first pass: compiles bytecode, and its outputs are checked."""
    results, errors = [], []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "derivpoly", *argv],
                              cwd=ROOT, env=env, capture_output=True)
        results.append((proc.returncode, proc.stdout))
        errors.append(proc.stderr.decode(errors="replace")[-500:])
    report = gate.check_pass(argvs, results)
    print_failures(argvs, report, errors)
    return [out for _, out in results], report


def print_failures(argvs, report, errors=None) -> None:
    for i, (argv, problems) in enumerate(zip(argvs, report)):
        if problems:
            print(f"FAIL {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
            if errors and errors[i]:
                print(errors[i], file=sys.stderr)


def run_timed(argvs, seconds: float, info: dict):
    env = child_env()
    cpu = max(os.sched_getaffinity(0))
    ref_out, report = reference_pass(argvs, env)
    ref_digest = [gate.digest(o) for o in ref_out]
    samples: dict[str, list] = {" ".join(a): [] for a in argvs}
    setup: list = []
    attempted = failed = peak_kib = 0
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryFile(dir=OUT) as stdout:
        def spawn(argv):
            stdout.seek(0)
            stdout.truncate()
            sample = gauge.run_gauged([sys.executable, "-m", "derivpoly", *argv],
                                      cpu, cwd=ROOT, env=env, stdout=stdout,
                                      stderr=subprocess.DEVNULL)
            stdout.seek(0)
            return sample, stdout.read()

        def setup_samples():
            nonlocal attempted, failed
            for _ in range(SETUP_REPEATS):
                sample, out = spawn(workloads.SETUP_COMMAND)
                setup.append(sample)
                attempted += 1
                failed += sample[3] != 0 or out != b"1\n"

        setup_samples()
        end = time.perf_counter() + seconds
        pass_s = 0.0
        while not samples[" ".join(argvs[-1])] or time.perf_counter() + pass_s <= end:
            t0 = time.perf_counter()
            for i, argv in enumerate(argvs):
                sample, out = spawn(argv)
                samples[" ".join(argv)].append(sample)
                peak_kib = max(peak_kib, sample[4])
                attempted += 1
                failed += (sample[3] != 0 or bool(report[i])
                           or gate.digest(out) != ref_digest[i])
            setup_samples()
            pass_s = time.perf_counter() - t0

    def pass_time(field: int) -> float:
        return sum(statistics.median(s[field] for s in cmd)
                   for cmd in samples.values())

    metrics = {
        "wall_s": (pass_time(0), "s"),
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    passes = len(samples[" ".join(argvs[-1])])
    fields = ("rescaled_s", "cpu_s", "wall_s")
    detail = {
        "passes": passes, "fail_ratio": failed / attempted,
        "raw_cpu_s": pass_time(1), "raw_wall_s": pass_time(2),
        "commands": {cmd: {f: [s[k] for s in cmd_samples] for k, f in enumerate(fields)}
                     for cmd, cmd_samples in samples.items()},
        "setup": {f: [s[k] for s in setup] for k, f in enumerate(fields)},
    }
    print(f"wall_s       {metrics['wall_s'][0]:.4f} s  (median per command over {passes} "
          f"passes; raw CPU {detail['raw_cpu_s']:.4f} s, raw wall {detail['raw_wall_s']:.4f} s)")
    print(f"setup_s      {metrics['setup_s'][0]:.4f} s  (median of {len(setup)})")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"fail_ratio   {detail['fail_ratio']:.4f}  ({failed}/{attempted} commands, "
          "set-up commands included)")
    return metrics, attempted, failed, detail


def _in_process(cli, special_numbers, argv) -> tuple[int, bytes]:
    special_numbers.reset_caches()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue().encode()


def _verdict_counts(argvs, outputs) -> dict[str, int]:
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for argv, out in zip(argvs, outputs):
        if argv[0] == "verify":
            for status, _ in gate.verdicts(argv, out.decode()):
                counts[status] += 1
    return counts


def run_traced(argvs, seconds: float, info: dict):
    sys.path.insert(0, str(SRC))
    import derivpoly
    from derivpoly import cli, special_numbers
    import tracing

    tracer = tracing.Tracer()
    untraced_s, traced_s, passes = [], [], []
    ref_digest, report, verdicts = None, None, None
    attempted = failed = 0
    end = time.perf_counter() + seconds
    traced = False
    while not (traced_s and untraced_s) or time.perf_counter() + (
            traced_s if traced else untraced_s)[-1] <= end:
        if traced:
            tracer.install(derivpoly)
            tracer.reset_counts()
            first = len(tracer.start)
        t0 = time.perf_counter()
        results = []
        for argv in argvs:
            if traced:
                tracer.new_run()
            results.append(_in_process(cli, special_numbers, argv))
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            traced_s.append(elapsed)
            summary = tracer.summary(first)
            counts = dict(tracer.counts)
            counts.update((f"{k}.calls", v[0]) for k, v in summary.items())
            passes.append((summary, counts))
        else:
            untraced_s.append(elapsed)
        if report is None:
            report = gate.check_pass(argvs, results)
            ref_digest = [gate.digest(o) for _, o in results]
            verdicts = _verdict_counts(argvs, [o for _, o in results])
            print_failures(argvs, report)
        for i, (code, out) in enumerate(results):
            attempted += 1
            failed += code != 0 or bool(report[i]) or gate.digest(out) != ref_digest[i]
        traced = not traced
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{info['workload']}-seed{info['seed']}.csv.gz")

    counts = passes[0][1]
    if any(p[1] != counts for p in passes):
        print("counts differ between traced passes", file=sys.stderr)
        failed += 1

    def median_of(name: str, field: int) -> float:
        return statistics.median(p[0].get(name, (0, 0.0, 0.0))[field] for p in passes)

    metrics = {}
    for name in tracing.PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            value = median_of(layer, 1)
        elif stat == "s":
            value = median_of(layer, 2)
        elif stat == "repeat_share":
            calls = counts.get(f"{layer}.calls", 0)
            value = counts[f"{layer}.repeats"] / calls if calls else 0.0
        elif layer == "verify.verdicts":
            value = verdicts[stat]
        elif name == "trace.overhead_ratio":
            value = statistics.median(traced_s) / statistics.median(untraced_s)
        else:
            value = counts.get(name, 0)
        metrics[name] = (value, tracing.unit(name))

    total_self = statistics.median(sum(v[1] for v in p[0].values()) for p in passes)
    shares = {name: median_of(name, 1) / total_self
              for name in sorted({n for p in passes for n in p[0]})}
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value} {unit}")
    print("self-time shares: " + ", ".join(
        f"{n} {s:.1%}" for n, s in sorted(shares.items(), key=lambda kv: -kv[1])
        if s >= 0.005))
    detail = {"traced_pass_s": traced_s, "untraced_pass_s": untraced_s,
              "self_time_shares": shares}
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "derivpoly" / "cli.py").is_file():
        print(f"perfbench: no derivpoly sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    info = host_info(args.workload, args.seed)
    argvs = workloads.commands(args.workload, args.seed)
    print("host: " + json.dumps(info, sort_keys=True))
    run = run_traced if args.trace else run_timed
    metrics, attempted, failed, detail = run(argvs, args.seconds, info)

    OUT.mkdir(exist_ok=True)
    record = {"host": info, "trace": args.trace, "seconds": args.seconds,
              "commands": [" ".join(a) for a in argvs],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": attempted, "failed": failed, "detail": detail}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
