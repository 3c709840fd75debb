#!/usr/bin/env python3
"""Run the mediator benchmark once, from the root of a source checkout.

    python3 perfbench/run.py --workload fastpath --seed 1 --seconds 10 --trace 0

Builds the mediator and driver from the checkout (Go build state stays
under .bench_build/), runs the driver, and passes its output through:
every metric by name and unit, the stamp, and as the last line one JSON
object with the keys correct, attempted, failed and metrics. Exits 1
when the correctness gate fails or the build fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fastpath", "campaign", "bulk-json")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOENV="off",
               GOPROXY="off", CGO_ENABLED="0")
    return env


def tree_id():
    """The source tree's identity: the git commit, with a hash of the
    uncommitted changes after it when the tree is dirty; without git, a
    hash of every file outside build and VCS directories."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              check=True).stdout
    try:
        head = git("rev-parse", "HEAD").decode().strip()
        if not git("status", "--porcelain"):
            return head
        h = hashlib.sha256(git("diff", "HEAD", "--binary"))
        for name in sorted(git("ls-files", "--others", "--exclude-standard", "-z").split(b"\0")):
            if name:
                h.update(name)
                with open(os.path.join(ROOT, name.decode()), "rb") as f:
                    h.update(f.read())
        return "%s-dirty-%s" % (head, h.hexdigest()[:16])
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    bindir = os.path.join(BUILD, "bin")
    build = subprocess.run(
        ["go", "build", "-o", bindir + os.sep, "./cmd/mediator", "./cmd/driver"],
        cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD, "runs", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    subprocess.run(["rm", "-rf", workdir], check=True)
    cmd = [os.path.join(bindir, "driver"),
           "-mediator", os.path.join(bindir, "mediator"),
           "-workdir", workdir,
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-commit", tree_id()]
    spinners = start_idle_spinners(os.cpu_count() or 1)
    try:
        # Its own process group, so a timeout stops the driver and every
        # mediator it started; but not its own session, which on Linux
        # would give it its own scheduler autogroup and let the spinners'
        # group compete with it as an equal.
        proc = subprocess.Popen(cmd, env=env, process_group=0)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("run.py: driver timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            code = 1
        # A driver that died early may leave a mediator behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    finally:
        stop(spinners)
    return code


def start_idle_spinners(n):
    """Keeps every CPU busy at SCHED_IDLE priority while the driver runs.

    On a VM, a vCPU that halts between the benchmark's many short waits
    can lose its physical CPU to the host's other guests, and the
    wake-up then waits for it: up to a third of a run's time showed up
    as CPU steal, and throughput and latency followed it. A SCHED_IDLE
    task runs only when nothing else on that CPU is runnable and yields
    to any waking task at once, so the vCPUs never halt and the
    benchmark's own threads are not delayed. Mediator CPU is read per
    process and does not include the spinners.
    """
    pids = []
    for _ in range(n):
        pid = os.fork()
        if pid == 0:
            try:
                os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
            except OSError:
                os._exit(1)  # never spin at normal priority
            while True:
                pass
        pids.append(pid)
    return pids


def stop(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)


if __name__ == "__main__":
    sys.exit(main())
