"""cosuggest benchmark: seeded workloads, end-to-end metrics, and a traced mode.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reduce-log --seed 1 --seconds 30 --trace 0

``--workload`` is reduce-log, eval-reduced, suggest-online, or all (the
three in turn).  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced jobs plus the tracing
overhead against untraced jobs run alongside.  The last line of standard
output is one JSON object; a run record with the machine, the seeds and
the workload descriptors goes to perfbench/.work/records/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKLOADS = ("reduce-log", "eval-reduced", "suggest-online")
ITEMS = {"reduce-log": "log rows", "eval-reduced": "reduced sessions", "suggest-online": "requests"}
END_TO_END = {  # name -> unit; lower is better except throughput
    "setup_s": "s",
    "job_s": "s",
    "throughput_per_s": "items/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MiB",
}
DEADLINE_S = 165  # a run must end within 180 s
CACHED_INPUTS_PER_WORKLOAD = 12


def _digest_files(paths: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def source_digest() -> str:
    return _digest_files(list((SRC / "cosuggest").rglob("*.py")), SRC)


def _env() -> dict:
    """Child environment: the checkout's src/ first, no COSUGGEST_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("COSUGGEST_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare(workload: str, seed: int, deadline: float) -> tuple[Path, float, bool]:
    """Inputs directory for (workload, seed), generated once per generator version."""
    generator = [BENCH / name for name in ("gen.py", "oracle.py", "prepare.py")]
    key = _digest_files(generator, BENCH)
    if workload == "eval-reduced":  # its input is made by the program's own reduce stage
        key += source_digest()
    key = hashlib.sha256(key.encode()).hexdigest()[:16]
    inputs = WORK / "inputs" / f"{workload}-{seed}-{key}"
    if (inputs / "manifest.json").is_file():
        os.utime(inputs)
        return inputs, 0.0, True
    shutil.rmtree(inputs, ignore_errors=True)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), workload, str(seed), str(inputs)],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        shutil.rmtree(inputs, ignore_errors=True)
        raise RuntimeError(f"preparing {workload} failed: {proc.stderr.strip()[-2000:]}")
    others = sorted(
        (d for d in (WORK / "inputs").glob(f"{workload}-*") if d != inputs), key=lambda d: d.stat().st_mtime
    )
    for stale in others[: max(0, len(others) + 1 - CACHED_INPUTS_PER_WORKLOAD)]:
        shutil.rmtree(stale, ignore_errors=True)
    return inputs, time.monotonic() - start, False


def run_worker(
    workload: str,
    inputs: Path,
    scratch: Path,
    deadline: float,
    traced: bool = False,
    trace_out: Path | None = None,
    setup_only: bool = False,
) -> dict:
    spec = {
        "workload": workload,
        "inputs": str(inputs),
        "src": str(SRC),
        "scratch": str(scratch),
        "trace": traced,
        "trace_out": str(trace_out) if trace_out else None,
        "setup_only": setup_only,
    }
    spec_path, result_path = scratch / "spec.json", scratch / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
            env=_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": True, "failures": ["worker ran past the run's deadline"]}
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"traced": traced, "crashed": True, "failures": [f"worker exited {proc.returncode}"] + tail}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["traced"] = traced
    return result


def end_to_end(workload: str, reps: list[dict], probes: list[dict], items: int) -> dict[str, float]:
    """Medians over the run's good jobs; set-up also over the set-up probes.

    A metric whose measurement point is missing in every job is left out.
    """
    good = [r for r in reps if not r["failures"]]
    if not good:
        return {}
    metrics = {"peak_rss_mb": median(r["peak_rss_mb"] for r in good)}
    setups = [s for r in good + [p for p in probes if not p["failures"]] for s in r["setups"]]
    if setups:
        metrics["setup_s"] = median(setups)
    split = [r for r in good if "job_s" in r]
    if split:
        metrics["job_s"] = median(r["job_s"] for r in split)
        metrics["throughput_per_s"] = median(items / r["job_s"] for r in split)
    if workload == "suggest-online":
        metrics["latency_p50_us"] = median(r["latency_us"][0] for r in good)
        metrics["latency_p99_us"] = median(r["latency_us"][1] for r in good)
    else:  # a batch request is one whole CLI job
        walls = [r["wall_s"] * 1e6 for r in good]
        metrics["latency_p50_us"] = median(walls)
        metrics["latency_p99_us"] = max(walls)  # nearest-rank p99 of fewer than 100 jobs
    return {name: metrics[name] for name in END_TO_END if name in metrics}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    good = [r for r in traced if not r["failures"] and "job_s" in r]
    plain = [r for r in untraced if not r["failures"] and "job_s" in r]
    if not good or not plain:
        return {}
    names = [name for name in tracing.UNITS if name != "trace.overhead_share"]
    metrics = {name: median(r["layers"][name] for r in good) for name in names}
    metrics["trace.overhead_share"] = median(r["job_s"] for r in good) / median(r["job_s"] for r in plain) - 1
    return metrics


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine() -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Prepare, run jobs for ``seconds``, check, and summarise one workload."""
    scratch = WORK / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    run = {"workload": workload, "seed": seed, "trace": trace, "measured_s": 0.0, "metrics": {}, "missing": []}
    try:
        inputs, run["prepare_s"], run["inputs_cached"] = prepare(workload, seed, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # e.g. the program's reduce stage failed
        return dict(run, prepare_s=0.0, inputs_cached=False, attempted=1, failed=1, failures=[str(exc)], jobs=[])
    try:
        manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        reps: list[dict] = []
        probes: list[dict] = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for traced in (False, True) if trace else (False,):
                trace_out = traces / f"{workload}-seed{seed}-job{len(reps)}.json"
                reps.append(run_worker(workload, inputs, scratch, deadline, traced, trace_out))
            now = time.monotonic()
            # Stop when another round like the last one would overrun the measuring time.
            if any(r.get("crashed") for r in reps) or 2 * now - round_start > min(start + seconds, deadline):
                break
        # Set-up probes fill the rest: the job in a fresh process, stopped where its
        # set-up ends.  A probe needs the set-up mark, so none run if it is missing.
        probing = not trace and not reps[-1].get("crashed") and bool(reps[-1].get("setups"))
        while probing:
            probe_start = time.monotonic()
            probes.append(run_worker(workload, inputs, scratch, deadline, setup_only=True))
            now = time.monotonic()
            probing = not probes[-1].get("crashed") and 2 * now - probe_start <= min(start + seconds, deadline)
        run["measured_s"] = time.monotonic() - start
        if workload == "reduce-log":
            check = run_worker("reduce-log-check", inputs, scratch, deadline)
            reps[0]["failures"] += check["failures"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    items = manifest["items"]
    untraced = [r for r in reps if not r["traced"]]
    if workload == "suggest-online":
        attempted = len(reps) * items + len(probes)
        failed = sum(r.get("failed_requests", items if r["failures"] else 0) for r in reps)
    else:
        attempted = len(reps) + len(probes)
        failed = sum(1 for r in reps if r["failures"])
    failed += sum(1 for p in probes if p["failures"])
    if trace:
        metrics = per_layer(untraced, [r for r in reps if r["traced"]])
    else:
        metrics = end_to_end(workload, untraced, probes, items)
    return dict(
        run,
        descriptors=manifest["descriptors"],
        items=items,
        attempted=attempted,
        failed=failed,
        failures=sorted({f for r in reps + probes for f in r["failures"]}),
        missing=sorted({m for r in reps + probes for m in r.get("missing", [])}),
        metrics=metrics,
        jobs=reps,
        setup_probes=probes,
    )


def _print_summary(run: dict, record: Path) -> None:
    jobs = run["jobs"]
    mode = "on" if run["trace"] else "off"
    inputs = "cached" if run["inputs_cached"] else f"prepared in {run['prepare_s']:.1f} s"
    print(
        f"workload {run['workload']}  seed {run['seed']}  trace {mode}  "
        f"{len(jobs)} jobs in {run['measured_s']:.1f} s  (inputs {inputs}; {run.get('items', 0)} {ITEMS[run['workload']]})"
    )
    for name, value in run["metrics"].items():
        unit = END_TO_END.get(name) or tracing.UNITS[name]
        better = "higher" if name == "throughput_per_s" else "lower"
        note = f"  {better} is better" if not run["trace"] else ""
        print(f"  {name:34s} {value:>16.6g} {unit}{note}")
    samples = [j["latency_samples"] for j in jobs if "latency_samples" in j]
    if samples and not run["trace"]:
        print(f"  (latency: median over jobs of each job's percentile, {samples[0]} requests per job)")
    share = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"  {'failed_share':34s} {share:>16.6g} failed/attempted ({run['failed']}/{run['attempted']})")
    for failure in run["failures"][:10]:
        print(f"  FAILED: {failure}")
    for name in run["missing"]:
        print(f"  MISSING: {name}")
    print(f"run record: {record.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S * (3 if args.workload == "all" else 1)
    if not (SRC / "cosuggest" / "__init__.py").is_file():
        print(f"error: no cosuggest sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = machine()
    results = []
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        record = WORK / "records" / f"{stamp}-{workload}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(
            json.dumps({"machine": env, "args": vars(args), **run}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _print_summary(run, record)
        results.append(run)

    def entry(name: str, value: float) -> dict:
        return {"value": value, "unit": END_TO_END.get(name) or tracing.UNITS[name]}

    prefix = len(results) > 1
    metrics = {
        (f"{run['workload']}.{name}" if prefix else name): entry(name, value)
        for run in results
        for name, value in run["metrics"].items()
    }
    names = set(tracing.UNITS if args.trace else END_TO_END)
    complete = all(set(run["metrics"]) == names for run in results)
    failed = sum(run["failed"] for run in results)
    summary = {
        "correct": failed == 0 and complete,
        "attempted": sum(run["attempted"] for run in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
