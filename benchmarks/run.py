"""The grasstodd benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload verdict-grid --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client. A run is a series of passes over
the workload's op list; each pass is a fresh child interpreter
(``child.py``) that runs the ops through ``grasstodd.cli.main``. For
verdict-grid, tau-report and pfaffian-eval each op runs in a process forked
from that child before it has run anything, so every op starts cold, as a
command-line invocation does; the session runs its whole stream in the one
child. Only one child is alive at a time. A run makes at least two passes
and starts another while one more still fits in ``--seconds``. Every op is
short (0.15 s or less when the box is quiet), so a run samples each one a
dozen times or more, spread over the whole run.

With ``--trace 0`` the result carries the end-to-end metrics. Each op's
latency is its fastest over the passes: on a shared 2-core box, neighbours
slow this process by up to 1.5x for seconds to minutes at a time, and the
fastest of many samples of a short op is the figure least moved by them. Then

- ``wall_s``: the sum of those latencies, the time one pass takes when no
  op is slowed (it leaves out the fork before each isolated op);
- ``op_p50_ms`` and ``op_tail_ms``: their median, and the highest order
  statistic with at least ten ops beyond it (the percentile is reported);
- ``setup_s``: the median time from spawning an interpreter until
  ``import grasstodd.cli`` completes, probed once before the first pass,
  once after each pass, and at the end up to twelve probes in all;
- ``peak_rss_mb``: the median over passes of the largest RSS of a process
  that ran ops.

With ``--trace 1`` a run makes one untraced and one profiled pass and
carries the per-layer metrics of the profiled pass and the tracing overhead
(traced minus untraced ``wall_s``).

The lines before the last give the metrics with units, ``fail_ratio`` and
the run environment; the last line is one JSON object. The details,
including the spans of a traced run, go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_REL = "benchmarks/out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 12     # at least; one before the first pass and one after each
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0  # a whole run ends well inside the 180 s the contract allows

E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(probes: int) -> list:
    """Seconds from spawning an interpreter until `import grasstodd.cli`
    completes in it, once per probe."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import grasstodd.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-s", "-c", code], stdout=subprocess.PIPE,
                                env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait()
        if line != b"ready\n" or proc.returncode:
            raise RuntimeError(f"import probe failed with exit code {proc.returncode}")
    return times


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the child and every op process it forked, and wait until the
    whole process group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.communicate()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_pass(ops: list, trace: bool, isolate: bool, timeout: float) -> dict:
    """Run one child over `ops`. Ops it did not finish in time, or at all,
    come back as failed with the reason."""
    job = json.dumps({"src": str(SRC), "ops": ops, "trace": trace, "isolate": isolate})
    proc = subprocess.Popen([sys.executable, "-s", str(HERE / "child.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    timed_out = False
    try:
        out, err = proc.communicate(job, timeout=max(timeout, 0.01))
    except subprocess.TimeoutExpired as exc:
        timed_out = True
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        err = ""
        stop_group(proc)
    except BaseException:  # interrupted or terminated: leave no process behind
        stop_group(proc)
        raise
    records, end = {}, None
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # a line cut short by the kill
        if rec.get("end"):
            end = rec
        else:
            records[rec["id"]] = rec
    reason = "timed out" if timed_out else f"child exited with code {proc.returncode}: {err.strip()[-300:]}"
    for op in ops:
        records.setdefault(op["id"], {"id": op["id"], "error": reason})
    sources = list(records.values()) + ([end] if end else [])
    rss = [r["rss_kb"] / 1024 for r in sources if "rss_kb" in r]
    counts: dict = {}
    for r in sources:
        for key, value in r.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
    return {"records": records, "peak_rss_mb": max(rss) if rss else None, "counts": counts}


def load_digests(workload: str, seed: int):
    """Shipped per-op answer digests for this workload and seed, or None."""
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    packed = table.get("*", table.get(str(seed)))
    return None if packed is None else [packed[i:i + 8] for i in range(0, len(packed), 8)]


def answer_digests(workload: str, seed: int, scale: str = "full") -> list:
    """Per-op answer digests, in op-id order, from one pass whose answers
    all pass their checks."""
    ops = workloads.build_ops(workload, seed, ROOT, OUT_REL, scale)
    done = run_pass(ops, False, workload in workloads.ISOLATED, RUN_DEADLINE_S)
    failures = summarize([done], None)["failures"]
    if failures:
        raise RuntimeError(f"{workload} seed {seed}: {failures[0]}")
    return [done["records"][i]["digest"] for i in range(len(ops))]


def tail_rank(count: int) -> int:
    """Index (ascending) of the highest order statistic with at least ten
    values beyond it; the maximum when there are fewer than eleven."""
    return count - 11 if count >= 11 else count - 1


def summarize(passes: list, digests) -> dict:
    """Failures over the passes, and each op's latencies."""
    attempted = failed = 0
    failures = []
    per_op: dict = {}
    for p in passes:
        for op_id, rec in sorted(p["records"].items()):
            attempted += 1
            error = rec.get("error")
            if error is None and digests is not None:
                if op_id >= len(digests) or rec.get("digest") != digests[op_id]:
                    error = f"answer digest {rec.get('digest')} differs from the shipped one"
            if error is not None:
                failed += 1
                failures.append({"id": op_id, "error": error})
            if "t0" in rec:
                per_op.setdefault(op_id, []).append(rec["t1"] - rec["t0"])
    return {"attempted": attempted, "failed": failed, "failures": failures, "per_op": per_op}


def latency_metrics(per_op: dict) -> tuple:
    """(wall_s, op_p50_ms, op_tail_ms, tail percentile) from each op's
    fastest latency."""
    if not per_op:
        return None, None, None, None
    fastest = sorted(min(v) for v in per_op.values())
    rank = tail_rank(len(fastest))
    return (sum(fastest), 1000 * statistics.median(fastest), 1000 * fastest[rank],
            round(100 * (rank + 1) / len(fastest), 2))


def layer_metrics(counts: dict, untraced_wall, traced_wall, ops: list) -> dict:
    """Per-layer metrics of a traced pass; hit ratios from summed cache
    counts (0 when nothing was served from a cache)."""
    out = {k: v for k, v in counts.items() if not k.endswith((".hits", ".misses"))}
    for key in counts:
        if key.endswith(".hits"):
            base = key[: -len(".hits")]
            hits, misses = counts[key], counts[base + ".misses"]
            out[base + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["session.repeat_share"] = workloads.repeat_share(ops)
    out["trace.wall_s"] = traced_wall
    if traced_wall is not None and untraced_wall is not None:
        out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def environment(workload: str, seed: int, ops: list) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "ops_by_kind": dict(sorted(Counter(op["kind"] for op in ops).items())),
        "session.repeat_share": workloads.repeat_share(ops),
    }


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *, scale: str = "full",
                 digests="shipped", pass_timeout: float | None = None) -> dict:
    """Run one workload and return its result: the contract's four keys,
    plus `report` (everything else worth keeping)."""
    if not (SRC / "grasstodd" / "cli.py").is_file():
        raise FileNotFoundError(f"no grasstodd sources under {SRC}")
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    if digests == "shipped":
        digests = load_digests(workload, seed) if scale == "full" else None
    ops = workloads.build_ops(workload, seed, ROOT, OUT_REL, scale)
    isolate = workload in workloads.ISOLATED
    env = environment(workload, seed, ops)
    setup = measure_setup(1)

    def one_pass(subset: list, traced: bool = False) -> dict:
        left = deadline - time.perf_counter()
        t0 = time.perf_counter()
        done = run_pass(subset, traced, isolate, left if pass_timeout is None else min(pass_timeout, left))
        done["seconds"] = time.perf_counter() - t0
        return done

    passes = [one_pass(ops)]
    setup += measure_setup(1)
    traced_pass = one_pass(ops, traced=True) if trace else None
    while not trace:
        # One setup probe after each pass spreads the probes over the run.
        cost = passes[-1]["seconds"] + statistics.median(setup)
        now = time.perf_counter()
        left = min(start + seconds, deadline) - now
        if cost > left and not (len(passes) < MIN_PASSES and now + 1.5 * cost < deadline):
            break
        passes.append(one_pass(ops))
        setup += measure_setup(1)
    setup += measure_setup(max(0, SETUP_PROBES - len(setup)))

    summary = summarize(passes + ([traced_pass] if trace else []), digests)
    untraced = summarize(passes, None)["per_op"]
    wall, p50, tail, pct = latency_metrics(untraced)
    rss = [p["peak_rss_mb"] for p in passes if p["peak_rss_mb"] is not None]
    e2e = {
        "wall_s": wall,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss) if rss else None,
    }
    env.update(passes=len(passes), setup_probes=len(setup), op_tail_percentile=pct, op_tail_samples=len(untraced))
    if trace:
        traced = summarize([traced_pass], None)["per_op"]
        metrics = layer_metrics(traced_pass["counts"], wall, latency_metrics(traced)[0], ops)
        units = per_layer_units()
    else:
        metrics, units = e2e, E2E_UNITS
    complete = all(metrics.get(name) is not None for name in units)
    report = {"environment": env, "end_to_end": e2e,
              "fail_ratio": summary["failed"] / summary["attempted"],
              "failures": summary["failures"][:20], "per_op": untraced}
    if trace:
        report["layers"] = metrics
        report["spans"] = [
            {"op": op["id"], "workload": workload, "argv": op.get("argv", ["lr", *map(json.dumps, op.get("args", []))]),
             "start": traced_pass["records"][op["id"]].get("t0"), "end": traced_pass["records"][op["id"]].get("t1")}
            for op in ops
        ]
    return {
        "correct": summary["failed"] == 0 and complete,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
        "report": report,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, stopping the child
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = res.pop("report")
    env = report["environment"]
    out_dir = ROOT / OUT_REL
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (out_dir / f"{tag}.json").write_text(json.dumps({**res, **report}, indent=1) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed {args.seed}: {env['ops']} ops x {env['passes']} passes, "
          f"{env['setup_probes']} setup probes, "
          f"python {env['python']}, nproc {env['nproc']}, {env['cpu']}")
    print(f"# ops by kind {env['ops_by_kind']}; op_tail_ms is p{env['op_tail_percentile']} "
          f"of {env['op_tail_samples']} ops; session.repeat_share {env['session.repeat_share']:.4f}")
    for name, value in report["end_to_end"].items():
        print(f"{name:>12} {value:.6g} {E2E_UNITS[name]}" if value is not None else f"{name:>12} n/a")
    print(f"{'fail_ratio':>12} {report['fail_ratio']:.6g} ({res['failed']} of {res['attempted']} ops)")
    for f in report["failures"]:
        print(f"# failed op {f['id']}: {f['error']}")
    print(f"# details in {OUT_REL}/{tag}.json")
    print(json.dumps(res, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
