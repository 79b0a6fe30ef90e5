#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the program from ../src) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs the benchmark binary. Build output goes to stderr; the binary's
last stdout line is the result JSON. Workloads: pp_apps_skewed,
blast_db_refetch, shuffle_dedup, des_campaign (see perfbench/README.md).
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed", 1)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return out / target


def git_sha():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program and benchmark sources: identifies the code
    measured even where there is no git history."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv):
    if argv == ["--selftest"]:
        binary = build("perfbench_selftest")
        return subprocess.run([str(binary)]).returncode
    if len(argv) != 8:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    binary = build("perfbench")
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(), PERFBENCH_SOURCE_DIGEST=source_digest())
    proc = subprocess.Popen([str(binary)] + argv, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
