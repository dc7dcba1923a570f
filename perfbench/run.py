#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the LVRM sources and the benchmark binary from this checkout, runs one
workload, checks the simulated outputs against the recorded digests, and
prints the result as one JSON object on the last line of stdout:

    python3 perfbench/run.py --workload udp_fwd --seed 1 --seconds 30 --trace 0

Run it from the repository root. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics. The build goes to
$CARGO_TARGET_DIR (default .bench_build), manifests and span dumps to
.bench_out/. Exit status is 0 only when every output check passed.

--record-digest stores the run's digest for (workload, seed) in
perfbench/digests.json instead of checking it; use it only for a change that
alters simulated behaviour on purpose, and say so in the change.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("udp_fwd", "click_churn", "tcp_ftp")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_sha256():
    """Digest of the program and benchmark sources, for provenance when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "lvrm", "system.hpp")):
        fail("no LVRM sources under %s/src; run from a repository checkout"
             % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "lvrm_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "lvrm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--inject-ns", type=int, default=0,
                    help="busy-wait added to every egress-hook call (self-test)")
    ap.add_argument("--perturb", action="store_true",
                    help="start the traffic 1 ns late (self-test)")
    ap.add_argument("--record-digest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    spec = load_json(spec_path)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    manifest_path = os.path.join(out_dir, "manifest-%s.json" % tag)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--manifest=" + manifest_path]
    if args.trace:
        cmd.append("--spans=" + os.path.join(out_dir, "spans-%s.csv" % tag))
    if args.inject_ns:
        cmd.append("--inject-ns=%d" % args.inject_ns)
    if args.perturb:
        cmd.append("--perturb")
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev(),
               PERFBENCH_SOURCE_SHA256=source_sha256())
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 1)
    if proc.returncode not in (0, 1) or not os.path.isfile(manifest_path):
        fail("benchmark binary failed (exit %d)" % proc.returncode, 1)
    manifest = load_json(manifest_path)

    errors = list(manifest["errors"])
    digests = load_json(DIGESTS) if os.path.isfile(DIGESTS) else {}
    seed_key = str(args.seed)
    if args.record_digest:
        digests.setdefault(args.workload, {})[seed_key] = manifest["digest"]
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    else:
        recorded = digests.get(args.workload, {}).get(seed_key)
        if recorded is not None and recorded != manifest["digest"]:
            errors.append("digest %s != recorded %s for %s seed %d: the "
                          "simulated outputs changed"
                          % (manifest["digest"], recorded, args.workload,
                             args.seed))

    metrics = {}
    for m in wanted:
        got = manifest["metrics"].get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            errors.append("metric %s unit %s != %s" % (m["name"], got["unit"],
                                                       m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for e in errors:
        print("  CHECK FAILED: " + e)
    correct = not errors and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(manifest["attempted"])),
                      "failed": int(manifest["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
