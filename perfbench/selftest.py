#!/usr/bin/env python3
"""Self-test of the benchmark itself (not run by the benchmark command).

    python3 perfbench/selftest.py [--seconds 4]

Checks, on udp_fwd with the default seed:
  1. A fixed busy-wait injected into the egress hook raises host_ns_per_frame
     by at least half the injected time per frame.
  2. The traced run attributes the injected time to the egress boundary:
     traffic.testbed_out_ns and the traffic layer's self time per frame rise
     by at least 80% of it, and no other layer's self time per frame rises
     by more than a quarter of it.
  3. The injection leaves the simulated outputs, and so the digest, intact.
  4. A perturbed simulated output (traffic starting 1 ns late) trips the
     digest check: run.py reports correct=false and exits non-zero.
Exit status 0 = every check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INJECT_NS = 5000
SELF_LAYERS = ("sim.self_ns_per_frame", "traffic.self_ns_per_frame",
               "lvrm.self_ns_per_frame", "tcp.self_ns_per_frame",
               "bench.self_ns_per_frame")


def run(seconds, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "udp_fwd", "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=4.0)
    s = ap.parse_args().seconds
    failures = []

    def check(ok, what):
        print(("PASS  " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    inject = ("--inject-ns", str(INJECT_NS))
    code0, base, _ = run(s, 0)
    code1, slow, _ = run(s, 0, *inject)
    check(code0 == 0 and base and base["correct"], "baseline run is correct")
    check(code1 == 0 and slow and slow["correct"],
          "injected run is correct (host-only change keeps the digest)")
    if base and slow:
        rise = value(slow, "host_ns_per_frame") - value(base, "host_ns_per_frame")
        check(rise >= 0.5 * INJECT_NS,
              "host_ns_per_frame rose by %.0f ns for %d ns injected per frame"
              % (rise, INJECT_NS))

    code2, tbase, _ = run(s, 1)
    code3, tslow, _ = run(s, 1, *inject)
    check(code2 == 0 and code3 == 0 and tbase and tslow,
          "traced runs are correct")
    if tbase and tslow:
        out_rise = (value(tslow, "traffic.testbed_out_ns") -
                    value(tbase, "traffic.testbed_out_ns"))
        check(out_rise >= 0.8 * INJECT_NS,
              "traffic.testbed_out_ns rose by %.0f ns" % out_rise)
        self_rise = (value(tslow, "traffic.self_ns_per_frame") -
                     value(tbase, "traffic.self_ns_per_frame"))
        check(self_rise >= 0.8 * INJECT_NS,
              "traffic.self_ns_per_frame rose by %.0f ns" % self_rise)
        for name in SELF_LAYERS:
            if name == "traffic.self_ns_per_frame":
                continue
            rise = value(tslow, name) - value(tbase, name)
            check(rise < 0.25 * INJECT_NS,
                  "%s moved by %.0f ns (not attributed there)" % (name, rise))

    code4, perturbed, out = run(s, 0, "--perturb")
    tripped = "digest" in out and perturbed and not perturbed["correct"]
    check(code4 != 0 and bool(tripped),
          "perturbed simulated output trips the digest check")

    print("selftest: %s" % ("ok" if not failures else
                            "%d check(s) failed" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
