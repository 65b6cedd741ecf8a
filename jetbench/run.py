#!/usr/bin/env python3
"""Build and run the jetsim benchmark.

    python3 jetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 jetbench/run.py --selftest
    python3 jetbench/run.py --record-digests

Run from the repository root. The first call configures and builds the
simulator library and the jetbench binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build); later calls only re-check the
build. The last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"}.

Besides the binary's own checks, a run fails when its combined result
digest differs from an earlier run of the same workload and seed on
the same sources (kept in the build directory).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1  # jetbench's kDefaultSeed: the seed digests.json records
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 860


def fail(msg, code=1):
    print(f"jetbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else REPO / root


def build():
    """Configure once, then bring the binary up to date."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources (src/CMakeLists.txt) next to jetbench/", 2)
    root = build_root()
    bdir = root / "jetbench"
    bdir.mkdir(parents=True, exist_ok=True)
    log = root / "jetbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(root / "jetbench-build.lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", str(bdir), "--target", "jetbench",
                      "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                if cmd[1] == "-S":  # a failed configure leaves a bad cache
                    shutil.rmtree(bdir, ignore_errors=True)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir / "jetbench"


def source_digest():
    """sha256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "jetbench"):
        for p in sorted((REPO / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(REPO)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    if not (REPO / ".git").exists() or not shutil.which("git"):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def recorded_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def run_binary(binary, workload, seed, seconds, trace, source, env=None,
               expect=True):
    """Run the binary once; returns (stdout lines, result or None,
    digest record or None, exit code)."""
    rec = recorded_digests()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit_id(), "--source", source,
           "--work-dir", str(build_root() / "jetbench-work")]
    if expect and seed == rec.get("seed") and workload in rec.get("combined", {}):
        cmd += ["--expect", rec["combined"][workload]]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S, cwd=REPO)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    result, digest = None, None
    for line in lines:
        if line.startswith("digest "):
            digest = json.loads(line[len("digest "):])
    if r.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return lines, result, digest, r.returncode


def check_against_earlier_runs(workload, seed, source, digest, result):
    """All runs of a workload and seed on the same sources must agree."""
    path = build_root() / "jetbench-seen.json"
    with open(build_root() / "jetbench-seen.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        seen = json.loads(path.read_text()) if path.exists() else {}
        key = f"{source}:{workload}:{seed}"
        earlier = seen.setdefault(key, digest["combined"])
        path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    if earlier != digest["combined"]:
        print(f"jetbench: {workload} seed {seed}: digest {digest['combined']} "
              f"differs from an earlier run's {earlier}", file=sys.stderr)
        result["failed"] = result["attempted"]
        result["correct"] = False


def measure(args):
    binary = build()
    source = source_digest()
    lines, result, digest, code = run_binary(
        binary, args.workload, args.seed, args.seconds, args.trace, source)
    for line in lines[:-1] if result else lines:
        print(line)
    if result is None or digest is None:
        fail(f"{args.workload}: no result (exit code {code})")
    check_against_earlier_runs(args.workload, args.seed, source, digest, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def record_digests(_args):
    binary = build()
    source = source_digest()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seed = DEFAULT_SEED
    combined = {}
    for w in spec["workloads"]:
        _, result, digest, code = run_binary(binary, w["name"], seed, 1, 0,
                                             source, expect=False)
        if result is None or not result["correct"]:
            fail(f"{w['name']}: cannot record a digest from a failing run")
        combined[w["name"]] = digest["combined"]
    DIGESTS.write_text(json.dumps({"seed": seed, "combined": combined},
                                  indent=2) + "\n")
    print(f"recorded {DIGESTS.relative_to(REPO)}")


def selftest(_args):
    """Every workload at minimal length: metric names and units match
    BENCHMARK.json, error_rate is 0, digests match the recorded ones,
    and JETSIM_* variables change no digest and no definition."""
    binary = build()
    source = source_digest()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    rec = recorded_digests()
    problems = []

    def expect(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    env_cache = build_root() / "jetbench-selftest-envcache"
    shutil.rmtree(env_cache, ignore_errors=True)
    hostile = dict(os.environ, JETSIM_THREADS="1", JETSIM_QUICK="1",
                   JETSIM_CACHE_DIR=str(env_cache), JETSIM_CHECK_MODE="abort")
    for w in spec["workloads"]:
        name = w["name"]
        print(name)
        base = None
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result, digest, code = run_binary(
                binary, name, rec.get("seed", DEFAULT_SEED), 1, trace, source)
            expect(result is not None, f"{name} trace {trace}: exit {code} with a result")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: {key} names and units")
            printed = {l.split()[1]: l.split()[-1] for l in lines
                       if l.startswith("metric ")}
            expect(all(printed.get(k) == u for k, u in want.items()),
                   f"{name} trace {trace}: every metric printed with its unit")
            expect(printed.get("error_rate") == "share" and result["failed"] == 0
                   and result["correct"], f"{name} trace {trace}: error_rate 0")
            expect(digest["combined"] == rec.get("combined", {}).get(name),
                   f"{name} trace {trace}: digest matches digests.json")
            if trace == 0:
                base = digest
        _, result, digest, code = run_binary(
            binary, name, rec.get("seed", DEFAULT_SEED), 1, 0, source, env=hostile)
        expect(result is not None and base is not None and digest == base,
               f"{name}: JETSIM_THREADS/CACHE_DIR/QUICK change no digest, "
               "definition or runner thread count")
        expect(not env_cache.exists() or not any(env_cache.iterdir()),
               f"{name}: nothing written to JETSIM_CACHE_DIR")
    if problems:
        fail(f"selftest: {len(problems)} check(s) failed")
    print("selftest: all checks passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest(args)
    elif args.record_digests:
        record_digests(args)
    elif args.workload:
        measure(args)
    else:
        p.error("--workload, --selftest or --record-digests is required")


if __name__ == "__main__":
    main()
