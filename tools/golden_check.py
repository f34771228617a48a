#!/usr/bin/env python3
"""Golden-artifact harness driver for bench binaries.

    golden_check.py --mode MODE --bench PATH --name NAME [...]
    golden_check.py --mode diff|update --all [--build-dir build]

The first form checks one bench; the ctest targets use it. The second
runs every bench that has a ``bench/golden/<name>.golden.json``,
finding its binary at ``<build-dir>/bench/<name>``. It checks every
golden even after a failure, then names each golden whose bench has no
binary, failed to run, or did not match. No golden can be skipped
silently.

The modes are built on the bench's ``--golden-mode`` preset (a
seconds-scale scenario so the whole suite fits in a CI job):

  diff         run the bench once and structurally diff its JSON
               artifact against bench/golden/<name>.golden.json using
               diff_report's "golden" tolerance profile. This is what
               the ``golden_<bench>`` ctest targets execute.
  determinism  run the bench twice, --threads 1 and --threads N, into
               two scratch artifacts and require them byte-identical.
               This is the ``determinism_<bench>`` ctest targets: the
               RunEngine's contract is that thread count never changes
               results.
  update       regenerate the golden in place (run + copy). Used by
               maintainers after an intentional metric change; see
               EXPERIMENTS.md "Regenerating goldens".
  dist         run the bench locally and again as a distributed sweep
               (master + ``--dist-workers`` spawned worker processes
               over loopback TCP) and require the two artifacts
               byte-identical. This is the ``dist_identity_<bench>``
               ctest targets: distribution must never change results.
  dist-kill    like dist, but the master starts the first worker with
               ``--dist-die-after 1`` so it dies mid-sweep and its
               in-flight job is re-dispatched. The artifact must still
               be byte-identical to the local run (``dist_kill_<bench>``
               ctest target).
  dist-chaos   like dist, but every worker wraps its socket in the
               deterministic fault injector (``--dist-chaos-profile``/
               ``--dist-chaos-seed``): short reads/writes, delayed
               flushes, mid-frame disconnects, refused connects. The
               artifact must still be byte-identical to the local run
               (``dist_chaos_<bench>`` ctest target).
  dist-resume  crash-safety check for the master's job journal. Runs
               the sweep once locally, then distributed with
               ``--dist-master-die-after K`` so the master _Exit()s
               after K jobs are journaled, then again with ``--resume``.
               Asserts the journal held exactly K job records at the
               crash, that the resumed master dispatched only the
               remaining jobs over the wire (sum of the resume run's
               wall.dist.worker*.jobs counters == total - K), and that
               the final artifact is byte-identical to the local run
               (``dist_resume_<bench>`` ctest target).
  stress       run the bench once with ``--stress`` instead of
               ``--golden-mode``. The bench itself asserts its
               wall-clock / peak-RSS budgets and the serial-vs-threaded
               byte identity in-process and exits nonzero on any
               violation, so this mode just propagates the exit status
               (and keeps stdout in the ctest log — the budget numbers
               are the interesting output). This is the
               ``stress_fig_scale`` ctest target (LABELS stress,
               CC_STRESS_TESTS=ON only).

Exit status: 0 on success, 1 on mismatch, 2 on usage/exec errors.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import diff_report  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mode", required=True,
                        choices=["diff", "determinism", "update",
                                 "dist", "dist-kill", "dist-chaos",
                                 "dist-resume", "stress"])
    parser.add_argument("--bench",
                        help="path to the bench executable")
    parser.add_argument("--name",
                        help="bench name, e.g. fig07_main_comparison")
    parser.add_argument("--all", action="store_true",
                        help="diff or update every golden-mode golden "
                             "in --golden-dir")
    parser.add_argument("--build-dir", default="build",
                        help="with --all: build tree holding "
                             "bench/<name> binaries")
    parser.add_argument("--golden-dir", default="bench/golden",
                        help="directory of checked-in goldens")
    parser.add_argument("--out-dir", default="bench/out",
                        help="scratch directory for fresh artifacts")
    parser.add_argument("--threads", type=int, default=4,
                        help="thread count for the threaded run")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for dist modes")
    parser.add_argument("--chaos-profile", default="light",
                        help="fault-injection profile for dist-chaos")
    parser.add_argument("--chaos-seed", type=int, default=7,
                        help="fault-injection seed for dist-chaos")
    parser.add_argument("--die-after", type=int, default=2,
                        help="journaled jobs before the dist-resume "
                             "master self-kills")
    args = parser.parse_args(argv)
    if args.all:
        if args.mode not in ("diff", "update"):
            parser.error("--all supports only --mode diff or update")
        if args.bench or args.name:
            parser.error("--all takes no --bench or --name")
    elif not (args.bench and args.name):
        parser.error("--bench and --name are required without --all")
    return args


class BenchError(Exception):
    """A bench could not be run or wrote no artifact (exit status 2)."""


def run_bench_raw(exe, json_path, threads, extra=()):
    """Run the bench and return its exit status (may be nonzero)."""
    cmd = [exe, "--golden-mode", "--quiet", "--threads", str(threads),
           "--json", json_path] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    except OSError as err:
        raise BenchError(f"cannot run {exe}: {err}") from err
    return proc.returncode


def run_bench(exe, json_path, threads, extra=()):
    code = run_bench_raw(exe, json_path, threads, extra)
    if code != 0:
        raise BenchError(f"{exe} {' '.join(extra)} exited {code}")
    if not os.path.exists(json_path):
        raise BenchError(f"{exe} did not write {json_path}")


def count_journal_jobs(path):
    """Count Job records in a master journal (src/dist/journal.hpp).

    The journal is a sequence of wire frames — [u32 length LE]
    [u8 type][u8 codec][body] with length == len(body) + 2 — and a
    Job record is frame type 102. A torn tail (partial frame from a
    crash mid-append) is ignored, matching the C++ replay.
    """
    with open(path, "rb") as f:
        data = f.read()
    jobs = 0
    off = 0
    while off + 4 <= len(data):
        length = int.from_bytes(data[off:off + 4], "little")
        if length < 2 or off + 4 + length > len(data):
            break  # torn tail
        if data[off + 4] == 102:
            jobs += 1
        off += 4 + length
    return jobs


def dist_worker_job_total(stats_path):
    """Sum wall.dist.worker*.jobs counters from a --stats-out dump."""
    with open(stats_path) as f:
        doc = json.load(f)
    counters = doc.get("stats", {}).get("counters", {})
    return sum(int(value) for name, value in counters.items()
               if name.startswith("wall.dist.worker") and
               name.endswith(".jobs"))


def check_golden(args, name, exe):
    """Diff (or, in update mode, regenerate) one bench's golden."""
    golden = os.path.join(args.golden_dir, f"{name}.golden.json")
    fresh = os.path.join(args.out_dir, f"{name}.golden.json")
    run_bench(exe, fresh, threads=args.threads)
    if args.mode == "update":
        os.makedirs(args.golden_dir, exist_ok=True)
        return diff_report.main([fresh, golden, "--update"])
    return diff_report.main([fresh, golden, "--profile", "golden"])


def check_all(args):
    """check_golden() for every golden-mode golden; names failures."""
    suffix = ".golden.json"
    try:
        names = sorted(f[:-len(suffix)]
                       for f in os.listdir(args.golden_dir)
                       if f.endswith(suffix))
    except OSError as err:
        print(f"error: cannot list {args.golden_dir}: {err}",
              file=sys.stderr)
        return 2
    if not names:
        print(f"error: no *{suffix} goldens in {args.golden_dir}",
              file=sys.stderr)
        return 2
    status = 0
    failures = []
    for name in names:
        exe = os.path.join(args.build_dir, "bench", name)
        if not os.access(exe, os.X_OK):
            failures.append(f"{name} (no binary at {exe})")
            status = 2
            continue
        try:
            code = check_golden(args, name, exe)
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            failures.append(f"{name} (bench failed)")
            status = 2
            continue
        if code != 0:
            failures.append(f"{name} (does not match)")
            status = max(status, code)
    if failures:
        print(f"{len(failures)} of {len(names)} goldens failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return status
    verb = "updated" if args.mode == "update" else "match"
    print(f"all {len(names)} goldens {verb}")
    return 0


def check_one(args):
    """Run one --mode check on --bench."""
    if args.mode == "stress":
        out = os.path.join(args.out_dir, f"{args.name}.json")
        cmd = [args.bench, "--stress", "--quiet",
               "--threads", str(args.threads), "--json", out]
        try:
            # stdout stays attached: the budget table is the output a
            # nightly-log reader wants to see.
            proc = subprocess.run(cmd)
        except OSError as err:
            print(f"error: cannot run {args.bench}: {err}",
                  file=sys.stderr)
            return 2
        if proc.returncode != 0:
            print(f"{args.name}: stress run exited "
                  f"{proc.returncode} (budget or serial-vs-threaded "
                  "identity violation)", file=sys.stderr)
            return 1
        if not os.path.exists(out):
            print(f"{args.name}: stress run wrote no artifact at "
                  f"{out}", file=sys.stderr)
            return 1
        print(f"{args.name}: stress budgets held and serial == "
              f"--threads {args.threads}")
        return 0

    if args.mode == "determinism":
        serial = os.path.join(args.out_dir,
                              f"{args.name}.serial.json")
        threaded = os.path.join(args.out_dir,
                                f"{args.name}.threaded.json")
        serial_trace = os.path.join(args.out_dir,
                                    f"{args.name}.serial.trace.json")
        threaded_trace = os.path.join(
            args.out_dir, f"{args.name}.threaded.trace.json")
        # Exercise the whole observability surface while checking
        # determinism: sampled traces and interval flow series must be
        # byte-identical across thread counts just like the report.
        obs = ["--trace-sample", "4", "--stats-interval", "60"]
        run_bench(args.bench, serial, threads=1,
                  extra=obs + ["--trace-out", serial_trace])
        run_bench(args.bench, threaded, threads=args.threads,
                  extra=obs + ["--trace-out", threaded_trace])
        with open(serial, "rb") as f:
            serial_bytes = f.read()
        with open(threaded, "rb") as f:
            threaded_bytes = f.read()
        if serial_bytes != threaded_bytes:
            print(f"{args.name}: --threads 1 and --threads "
                  f"{args.threads} artifacts differ; structural diff:")
            # Exact structural diff for a readable failure message.
            diff_report.main([threaded, serial, "--profile", "exact"])
            return 1
        with open(serial_trace, "rb") as f:
            serial_trace_bytes = f.read()
        with open(threaded_trace, "rb") as f:
            threaded_trace_bytes = f.read()
        if serial_trace_bytes != threaded_trace_bytes:
            print(f"{args.name}: --threads 1 and --threads "
                  f"{args.threads} sampled trace files differ "
                  f"({len(serial_trace_bytes)} vs "
                  f"{len(threaded_trace_bytes)} bytes)")
            return 1
        print(f"{args.name}: serial and {args.threads}-thread "
              "artifacts are byte-identical "
              f"({len(serial_bytes)} bytes report, "
              f"{len(serial_trace_bytes)} bytes sampled trace)")
        return 0

    if args.mode in ("dist", "dist-kill", "dist-chaos"):
        local = os.path.join(args.out_dir, f"{args.name}.local.json")
        dist = os.path.join(args.out_dir, f"{args.name}.dist.json")
        run_bench(args.bench, local, threads=args.threads)
        extra = ["--dist-workers", str(args.workers)]
        if args.mode == "dist-kill":
            extra.append("--dist-kill-one")
        if args.mode == "dist-chaos":
            extra += ["--dist-chaos-profile", args.chaos_profile,
                      "--dist-chaos-seed", str(args.chaos_seed)]
        run_bench(args.bench, dist, threads=args.threads, extra=extra)
        with open(local, "rb") as f:
            local_bytes = f.read()
        with open(dist, "rb") as f:
            dist_bytes = f.read()
        if local_bytes != dist_bytes:
            print(f"{args.name}: local and distributed "
                  f"({args.workers} workers, mode {args.mode}) "
                  "artifacts differ; structural diff:")
            diff_report.main([dist, local, "--profile", "exact"])
            return 1
        variant = {"dist-kill": "kill-one ",
                   "dist-chaos":
                   f"chaos({args.chaos_profile}/{args.chaos_seed}) "
                   }.get(args.mode, "")
        print(f"{args.name}: local and {args.workers}-worker "
              f"{variant}distributed artifacts are byte-identical "
              f"({len(local_bytes)} bytes)")
        return 0

    if args.mode == "dist-resume":
        local = os.path.join(args.out_dir, f"{args.name}.local.json")
        dist = os.path.join(args.out_dir, f"{args.name}.dist.json")
        journal = os.path.join(args.out_dir, f"{args.name}.journal")
        stats = os.path.join(args.out_dir, f"{args.name}.stats.json")
        for stale in (dist, journal, stats):
            if os.path.exists(stale):
                os.remove(stale)
        run_bench(args.bench, local, threads=args.threads)

        base = ["--dist-workers", str(args.workers),
                "--journal", journal]
        code = run_bench_raw(
            args.bench, dist, threads=args.threads,
            extra=base + ["--dist-master-die-after",
                          str(args.die_after)])
        if code == 0:
            print(f"{args.name}: master with --dist-master-die-after "
                  f"{args.die_after} exited 0 — it never crashed, so "
                  "resume was not exercised", file=sys.stderr)
            return 1
        if not os.path.exists(journal):
            print(f"{args.name}: crashed master left no journal at "
                  f"{journal}", file=sys.stderr)
            return 1
        pre = count_journal_jobs(journal)
        if pre != args.die_after:
            print(f"{args.name}: journal holds {pre} job records "
                  f"after the crash, expected exactly "
                  f"{args.die_after}", file=sys.stderr)
            return 1

        run_bench(args.bench, dist, threads=args.threads,
                  extra=base + ["--resume", "--stats-out", stats])
        post = count_journal_jobs(journal)
        redispatched = dist_worker_job_total(stats)
        if redispatched != post - pre:
            print(f"{args.name}: resume run dispatched "
                  f"{redispatched} jobs over the wire but the journal "
                  f"grew by {post - pre} ({pre} -> {post}) — journal "
                  "replay did not skip the completed jobs",
                  file=sys.stderr)
            return 1
        with open(local, "rb") as f:
            local_bytes = f.read()
        with open(dist, "rb") as f:
            dist_bytes = f.read()
        if local_bytes != dist_bytes:
            print(f"{args.name}: local and resumed-after-crash "
                  "artifacts differ; structural diff:")
            diff_report.main([dist, local, "--profile", "exact"])
            return 1
        print(f"{args.name}: resumed master skipped {pre} journaled "
              f"jobs, dispatched the remaining {redispatched}, and "
              "the artifact is byte-identical to the local run "
              f"({len(local_bytes)} bytes)")
        return 0

    return check_golden(args, args.name, args.bench)


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        if args.all:
            return check_all(args)
        return check_one(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
