#!/usr/bin/env python3
"""The benchmark's own self-test, at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps the limits of the benchmark file format, that the
runner's input streams are reproducible (same seed, same stream; other
seed, other stream), that one flipped float bit in a served reply fails
the output check, and that every workload prints every name of
BENCHMARK.json with its unit, traced and untraced. Exits non-zero on the
first failure.
"""
import json
import math
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(ok, what):
    if not ok:
        print("selftest FAILED: " + what)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p
        for p in spec["paths"]), "paths")
    check(len(spec["command"]) <= 32 and all(
        len(c) <= 200 for c in spec["command"]), "command")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and NAME.match(w["name"])
              and len(w["why"]) <= 200 and "\n" not in w["why"],
              "workload " + str(w))
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and NAME.match(m["name"]) and UNIT.match(m["unit"])
              and m["better"] in ("lower", "higher")
              and 0 < m["bound"] <= 0.25, "end_to_end " + str(m))
        names.append(m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"} and NAME.match(m["name"])
              and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
              "per_layer " + str(m))
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has unit s, lower is better, and the largest bound")


def runner(*args):
    proc = subprocess.run([run.RUNNER] + list(args), capture_output=True,
                          text=True, timeout=170, cwd=run.ROOT)
    return proc


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    print("selftest BENCHMARK.json: ok")

    run.build()
    proc = runner("--selftest")
    print(proc.stdout.strip())
    check(proc.returncode == 0, "stream reproducibility or reply check")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = runner("--workload", workload, "--seed", "3", "--seconds",
                          "1", "--trace", str(trace), "--tiny", "--out-dir",
                          os.path.join(run.ROOT, ".bench_out", "selftest"))
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and lines,
                  "%s trace %d: runner exit %d\n%s" % (
                      workload, trace, proc.returncode, proc.stderr[-2000:]))
            specs = spec["per_layer" if trace else "end_to_end"]
            result = run.assemble(json.loads(lines[-1]), specs, workload, trace)
            check(result is not None and result["correct"],
                  "%s trace %d: result %s" % (workload, trace, lines[-1]))
            for m in specs:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and math.isfinite(got["value"]),
                      "%s trace %d: %s" % (workload, trace, m["name"]))
                # The runner's own table prints the name and unit too.
                if m["name"] in json.loads(lines[-1])["metrics"]:
                    check(re.search(r"^metric %s\s+\S+ %s$" % (
                        re.escape(m["name"]), re.escape(m["unit"])),
                        proc.stdout, re.M) is not None,
                        "%s: %s printed with its unit" % (workload, m["name"]))
            if not trace:
                check(all(m["value"] != 0 for m in result["metrics"].values()),
                      "%s: an end-to-end metric reads 0" % workload)
            print("selftest %s trace %d: %d metrics ok" % (
                workload, trace, len(specs)))
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
