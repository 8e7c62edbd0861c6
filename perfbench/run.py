#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
layers from src/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload. The last line of
stdout is the result object; build output goes to stderr. The exit code
is the benchmark's: 0 when every output check passed, 1 when one
failed, 2 on a usage or build error.

Extra flags pass through to the binary; the self-test
(perfbench/selftest.py) uses --smoke.
"""

import os
import shutil
import signal
import subprocess
import sys

# One benchmark run must end within this many seconds (the build is not
# counted); a run that exceeds it is killed and reported as failed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def flag(argv, name):
    """The value after `name` in argv, or None."""
    if name in argv and argv.index(name) + 1 < len(argv):
        return argv[argv.index(name) + 1]
    return None


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main(argv):
    if "--workload" not in argv:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1> [--smoke]")
    for needed in ("src/CMakeLists.txt", "examples/fej/isa",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail(f"run from the repository root: {needed} is missing")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)

    args = [os.path.join(build_dir, "perfbench")] + argv + ["--root", "."]
    if flag(argv, "--trace") == "1":
        args += ["--trace-out", os.path.join(
            build_dir, f"trace-{flag(argv, '--workload')}.json")]
    # Its own session, so a timeout or a stop signal also stops the
    # cold-sample children.
    child = subprocess.Popen(args, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        sys.exit(child.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main(sys.argv[1:])
