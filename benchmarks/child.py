"""One benchmark pass: a fresh interpreter that runs a list of ops.

Reads ``{"src": ..., "ops": [...], "trace": bool, "isolate": bool}`` as JSON
on stdin and imports ``grasstodd`` from ``src``. Each op runs in-process
through ``grasstodd.cli.main(argv)`` with its stdout and stderr captured
(the ``lr`` op calls ``grasstodd.lr_coefficient`` instead). Only the call is
timed; the answer check and its digest come after.

With ``isolate`` each op runs in its own process forked from this one, which
has imported the package but run nothing, so every op starts with empty
caches, as one command-line invocation does. Without it the ops share this
process and its caches, as a long-lived session does.

One JSON line per op goes to stdout as soon as the op ends, so a pass that
is killed still reports what it finished. The last line closes the pass.
Peak RSS comes with each isolated op or with the closing line; with
``trace`` so do the profile counts (see ``profile_counts``).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time

import checks

# Layer names are the package modules, plus stdlib fractions as a pseudo-layer.
MODULES = ("partitions", "chow", "series", "bundles", "cone", "pfaffian", "cli")
LAYERS = MODULES + ("fractions",)

# (module, function) pairs whose cumulative time and call count are reported.
FUNCTIONS = (
    ("chow", "build_h_matrices"),
    ("bundles", "todd_tangent"),
    ("series", "exp_graded"),
    ("chow", "multiply"),
    ("chow", "pieri"),
    ("chow", "reduce_mod_h"),
    ("cone", "roberts_verdict"),
    ("chow", "lr_coefficient"),
    ("pfaffian", "pfaffian"),
    ("pfaffian", "determinant"),
    ("partitions", "enumerate_box"),
    ("cli", "emit_json"),
)

# Public cached functions whose cache_info() gives hits and misses.
CACHED = (("partitions", "enumerate_box"), ("chow", "ring"),
          ("chow", "build_h_matrices"), ("cone", "tau_components"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def run_op(op: dict, cli_main, lr_coefficient):
    """Run one op; returns (t0, t1, rc, answer, error)."""
    if op["kind"] == "lr":
        t0 = time.perf_counter()
        try:
            value = lr_coefficient(*op["args"])
        except Exception as exc:  # an op that raises is a failed op, not a dead pass
            return t0, time.perf_counter(), None, None, f"{type(exc).__name__}: {exc}"
        return t0, time.perf_counter(), 0, value, None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli_main(op["argv"])
            error = None
        except SystemExit as exc:
            rc, error = exc.code, None
        except Exception as exc:
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    if error is None and rc not in (0, 1):
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return t0, t1, rc, out.getvalue(), error


def layer_of(filename: str, pkg: str) -> str:
    if filename.startswith(pkg + os.sep):
        return os.path.splitext(os.path.basename(filename))[0]
    if os.path.basename(filename) == "fractions.py":
        return "fractions"
    return "other"


def profile_counts(stats: dict, pkg: str, modules: dict) -> dict:
    """Additive counts from cProfile's raw stats and the caches: per-layer
    self time, per-function cumulative time and calls, cache hits and misses.

    A builtin's own time is charged to the module of each caller, in
    proportion to what that caller spent in it, so a module's self time is
    the time spent in its code and in the C functions it called directly.
    `calls` counts executions of the function body; a call answered by an
    lru_cache wrapper never reaches the body and is not counted.
    """
    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    for (filename, _, _), (_, _, tt, _, callers) in stats.items():
        if filename == "~":
            for (cfile, _, _), caller_stats in callers.items():
                self_s[layer_of(cfile, pkg)] += caller_stats[2]
        else:
            self_s[layer_of(filename, pkg)] += tt
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for module, name in FUNCTIONS:
        path = os.path.join(pkg, module + ".py")
        cum = calls = 0
        for (filename, _, funcname), (_, nc, _, ct, _) in stats.items():
            if filename == path and funcname == name:
                cum += ct
                calls += nc
        out[f"{module}.{name}.cum_s"] = cum
        out[f"{module}.{name}.calls"] = calls
    for module, name in CACHED:
        info = getattr(getattr(modules[module], name), "cache_info", None)
        ci = info() if info is not None else None
        out[f"{module}.{name}.hits"] = ci.hits if ci else 0
        out[f"{module}.{name}.misses"] = ci.misses if ci else 0
    return out


class Runner:
    """Runs ops against the imported package, profiled when tracing."""

    def __init__(self, src: str, trace: bool):
        import grasstodd
        import grasstodd.cli

        self.pkg = os.path.join(src, "grasstodd")
        if not os.path.realpath(grasstodd.__file__).startswith(self.pkg + os.sep):
            raise ImportError(f"grasstodd imported from {grasstodd.__file__}, not {self.pkg}")
        self.main = grasstodd.cli.main
        self.lr = grasstodd.lr_coefficient
        self.modules = {m: importlib.import_module(f"grasstodd.{m}") for m in MODULES}
        self.trace = trace
        self.profiler = None

    def start_profile(self) -> None:
        if self.trace:
            import cProfile

            self.profiler = cProfile.Profile()

    def counts(self) -> dict:
        import pstats

        return profile_counts(pstats.Stats(self.profiler).stats, self.pkg, self.modules)

    def record(self, op: dict) -> dict:
        if self.profiler is not None:
            self.profiler.enable()
        t0, t1, rc, answer, error = run_op(op, self.main, self.lr)
        if self.profiler is not None:
            self.profiler.disable()
        if error is None:
            error = checks.check(op, rc, answer)
        return {"id": op["id"], "t0": t0, "t1": t1, "rc": rc, "error": error,
                "digest": None if answer is None else digest(str(answer))}


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def emit(stream, record: dict) -> None:
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def run_isolated(runner: Runner, op: dict, stream) -> None:
    """Fork, run `op` in the child, and wait for it. This process holds no
    threads, so forking it is safe."""
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            runner.start_profile()
            rec = runner.record(op)
            rec["rss_kb"] = max_rss_kb()
            if runner.trace:
                rec["counts"] = runner.counts()
            emit(stream, rec)
        except BaseException:  # the forked child must never return into the loop
            code = 70
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status:
        emit(stream, {"id": op["id"], "error": f"op process ended with wait status {status}"})


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    try:
        runner = Runner(src, job["trace"])
    except ImportError as exc:
        print(exc, file=sys.stderr)
        return 3
    stream = sys.stdout
    if job["isolate"]:
        for op in job["ops"]:
            run_isolated(runner, op, stream)
        emit(stream, {"end": True})
        return 0
    runner.start_profile()
    for op in job["ops"]:
        emit(stream, runner.record(op))
    end = {"end": True, "rss_kb": max_rss_kb()}
    if runner.trace:
        end["counts"] = runner.counts()
    emit(stream, end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
