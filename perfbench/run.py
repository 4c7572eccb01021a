#!/usr/bin/env python3
"""Orion training benchmark: build the harness and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mf-dist2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is the harness's JSON result.  The
harness and the distributed worker executable are built from source
with dune into .bench_build/.  Every ORION_* variable is cleared before
the harness starts, so a caller's settings cannot change what is
measured; the harness then checks that the environment is pinned.

--self-check runs every workload of BENCHMARK.json at a tiny dataset
size and verifies that each end-to-end and per-layer metric named there
is emitted with its unit, that every training call passes the
correctness gate, and that a deliberately perturbed reference is
reported as a failure.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
HARNESS = os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe")
WORKER = os.path.join(BUILD_DIR, "default", "bin", "orion_worker.exe")
REQUIRED = ["dune-project", "lib", os.path.join("bin", "orion_worker.ml")]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
SELF_CHECK_SCALE = "0.001"


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        die("not an Orion source checkout (missing %s)" % ", ".join(missing))
    cmd = ["dune", "build", "--root", root, "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2",
           "./bin/orion_worker.exe", "./perfbench/harness.exe"]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if done.returncode != 0:
        die("build failed with exit code %d" % done.returncode)


def revision(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def harness_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORION_")}
    env["ORION_WORKER_EXE"] = os.path.join(root, WORKER)
    env["ORION_DIST_TIMEOUT"] = "60"
    return env


def run_harness(root, args, capture=False):
    """Run the harness in its own process group; kill the whole group if
    it outlives RUN_TIMEOUT_S, so no worker process is left behind."""
    proc = subprocess.Popen([os.path.join(root, HARNESS)] + args, cwd=root,
                            env=harness_env(root), start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("harness did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def last_json(out):
    lines = [l for l in (out or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_check(root, rev):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        base = ["--workload", name, "--seed", "1", "--seconds", "0",
                "--data-scale", SELF_CHECK_SCALE, "--rev", rev]
        for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, out = run_harness(root, base + ["--trace", trace], capture=True)
            res = last_json(out) if code == 0 else None
            if res is None:
                problems.append("%s trace %s: exit %d, no result" % (name, trace, code))
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace %s: gate failed on a clean run" % (name, trace))
            got = res["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append("%s trace %s: %s missing" % (name, trace, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s trace %s: %s unit %s, BENCHMARK.json says %s"
                                    % (name, trace, m["name"], got[m["name"]]["unit"], m["unit"]))
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append("%s trace %s: unlisted metrics %s" % (name, trace, sorted(extra)))
        code, out = run_harness(root, base + ["--trace", "0", "--perturb-reference"],
                                capture=True)
        res = last_json(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] != res["attempted"]:
            problems.append("%s: a perturbed reference was not reported as a failure" % name)
        else:
            print("self-check %s: metrics complete; perturbed reference failed %d/%d call(s)"
                  % (name, res["failed"], res["attempted"]))
    for p in problems:
        print("self-check FAILED: " + p)
    return 1 if problems else 0


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build(root)
    rev = revision(root)
    if argv == ["--self-check"]:
        return self_check(root, rev)
    code, _ = run_harness(root, argv + ["--rev", rev])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
