#!/usr/bin/env python3
"""Build and run the grading-service benchmark.

    python3 gradebench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds gradebench/ (and the kit's src/)
with CMake into $CARGO_TARGET_DIR/gradebench, default
.bench_build/gradebench, then runs the benchmark binary. Its standard
output is passed through; the last line is the JSON result. Build output
goes to standard error. Extra arguments after the four standard ones are
handed to the binary unchanged (the self-test uses --corrupt-reference).

Each run also leaves a record under <build>/results/ (the result plus
seed, nproc, compiler, build type, commit and a digest of src/), and a
traced run (--trace 1) its spans under <build>/spans/.

The exit status is the binary's: 0 when every report line matched the
serial reference, 1 when the correctness check failed, 2 for bad
arguments. A failed build or a run that overstays its time exits 3
without printing a result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# The held-out seed, 48611, was kept out of every tuning run; pass it
# with --seed to check a claim on inputs nobody tuned for.
DEFAULT_SEED = 1

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_bounded(command, timeout, **kwargs):
    """subprocess.run, except that a timeout kills the command's whole
    process group (a build's compilers too) and waits for it."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return subprocess.CompletedProcess(command, proc.returncode, out)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "gradebench"


def build(out_dir):
    """Configure once, then build incrementally. False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("gradebench: no kit sources at src/; nothing to build", file=sys.stderr)
        return False
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir)])
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", str(out_dir), "--target", "gradebench", "-j", jobs])
    for step in steps:
        try:
            done = run_bounded(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"gradebench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def commit():
    """The checkout's git commit, or "none" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("gradebench: build failed", file=sys.stderr)
        return 3

    command = [str(out_dir / "gradebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = out_dir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    command += extra

    try:
        done = run_bounded(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"gradebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        return done.returncode or 3

    meta = {}
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
    meta.update(commit=commit(), src_digest=src_digest())
    record = {"meta": meta, "result": json.loads(lines[-1])}
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
