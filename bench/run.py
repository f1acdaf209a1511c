"""weakiasi benchmark: drives ``weakiasi.cli.main(argv)`` in-process.

Run from the repository root:

    python3 bench/run.py --workload gnp_search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # one row per workload

One run sets up (imports ``weakiasi``, generates and writes the seeded
inputs; several times, the median is ``setup_s``), then repeats the
workload's op list as a closed loop with one client until ``--seconds`` is
used up.  Every op's output goes through the correctness gate.  After each
timed step a fixed reference loop samples the host's speed, and reported
times are scaled to a fixed reference speed (see ``Speed``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced and it carries the
per-layer metrics of the traced passes.  The line before it holds
informational fields (git SHA, Python, nproc, op counts, src/ lines, the
tail percentile, failures).  Spans and results go to ``.bench_out/``.

Exit status: 0 when every produced output was correct, 1 when one was
wrong, 2 when the program cannot be found or set up.  An op that raises or
exits non-zero is a failed op, not a wrong output.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# The reference loop runs for this share of every timed step's duration; a
# step is scaled by the chunks that ended within REF_WINDOW seconds of it.
REF_SHARE = 0.12
REF_WINDOW = 1.0
# A reference chunk counts as this many seconds of scaled time; about its
# mean duration on the 2-core development host, so scaled times read close to
# the wall times seen there.
REF_SECONDS = 0.0006
# Every run makes at least this many passes.  The tail percentile is chosen
# from the op count of these passes, so it does not change with machine speed.
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = (
    ("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
    ("peak_rss_mib", "MiB"), ("setup_s", "s"),
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentile(count: int) -> tuple[float, int]:
    """Highest ladder percentile with at least ten ops beyond it, and that number.

    Nearest rank: the q-th percentile of n sorted values is value
    ceil(q * n / 100), so n - ceil(q * n / 100) ops lie beyond it.  Falls
    back to the median when fewer than 20 ops ran.
    """
    for q in TAIL_LADDER:
        beyond = count - math.ceil(q * count / 100)
        if beyond >= 10:
            return q, beyond
    return 50.0, count - math.ceil(count / 2)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean of
    all order statistics, steadier than any single one on few, clustered values."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def reference_chunk() -> int:
    """Fixed pure-Python work, about half a millisecond; never changes with src/."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        acc += len(counts) ^ i
    return acc


class Speed:
    """Samples the host's speed with ``reference_chunk`` after each timed step.

    On a shared host a busy neighbour on the same core slows this process
    by up to 2x, switching within milliseconds, and the slow share drifts by
    tens of percent within a minute.  Timing the reference loop right after
    every step, for REF_SHARE of the step's duration, measures the speed the
    steps ran at; ``scaled`` turns a step's wall time into seconds at the
    fixed reference speed (a chunk counts as REF_SECONDS), using the chunks
    within REF_WINDOW seconds of the step.  The program never runs the
    reference loop, so a change to the program moves only the timed steps,
    never the scale.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each chunk
        self.chunks: list[float] = []  # its duration

    def sample(self, busy: float) -> None:
        """Run reference chunks for REF_SHARE of ``busy`` seconds, at least one."""
        spent = 0.0
        while not spent or spent < REF_SHARE * busy:
            start = time.perf_counter()
            reference_chunk()
            end = time.perf_counter()
            self.ends.append(end)
            self.chunks.append(end - start)
            spent += end - start

    def scaled(self, start: float, took: float) -> float:
        """``took`` wall seconds, begun at ``start``, in reference seconds."""
        lo = bisect.bisect_left(self.ends, start - REF_WINDOW)
        hi = bisect.bisect_right(self.ends, start + took + REF_WINDOW)
        return took * REF_SECONDS / statistics.fmean(self.chunks[lo:hi])


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _import_program():
    """Import weakiasi from src/ afresh; returns its cli module."""
    for name in [n for n in sys.modules if n == "weakiasi" or n.startswith("weakiasi.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("weakiasi.cli")


Prepared = list[tuple[workloads.Op, list[list[str]], dict[str, Path]]]


def _materialize(ops: list[workloads.Op], workdir: Path) -> Prepared:
    """Write every op's input files; return (op, argv lists, file paths)."""
    prepared = []
    for i, op in enumerate(ops):
        opdir = workdir / f"op{i:02d}"
        opdir.mkdir()
        for name, text in op.files.items():
            (opdir / name).write_text(text)
        paths = {}
        calls = []
        for call in op.calls:
            argv = []
            for arg in call:
                if arg.startswith("@"):
                    paths[arg[1:]] = opdir / arg[1:]
                    arg = str(opdir / arg[1:])
                argv.append(arg)
            calls.append(argv)
        prepared.append((op, calls, paths))
    return prepared


def set_up(workload: str, seed: int, work_root: Path, speed: Speed):
    """Import, generate and write; timed SETUP_REPEATS times, in scaled seconds."""
    times = []
    workdir = None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        start = time.perf_counter()
        cli = _import_program()
        ops = workloads.build_ops(workload, seed)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
        prepared = _materialize(ops, workdir)
        took = time.perf_counter() - start
        speed.sample(took)
        times.append((start, took))
    return cli, prepared, workdir, [speed.scaled(start, took) for start, took in times]


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def run_op(cli, calls: list[list[str]]) -> tuple[float, float, str | None, str]:
    """(start, latency, failure or None, stdout of the last call)."""
    out = ""
    start = time.perf_counter()
    for argv in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught exception is a failed op, never fatal
            return start, time.perf_counter() - start, f"{argv[0]} raised {type(exc).__name__}", ""
        if code != 0:
            err = stderr.getvalue().strip().splitlines()
            return start, time.perf_counter() - start, f"{argv[0]} exit {code}: {err[-1] if err else ''}", ""
        out = stdout.getvalue()
    return start, time.perf_counter() - start, None, out


Timing = tuple[float, float]  # (perf_counter at the start, wall seconds)


@dataclass
class Run:
    """Outcome of all passes of one run.

    ``timings[traced]`` holds one list per pass of that kind, with each op's
    timing; ``speed`` holds the reference samples taken after every op.
    """

    timings: dict[bool, list[list[Timing]]] = field(default_factory=lambda: {False: [], True: []})
    speed: Speed = field(default_factory=Speed)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    layer_passes: list[dict[str, float]] = field(default_factory=list)

    def scaled_walls(self, traced: bool) -> list[float]:
        return [sum(self.speed.scaled(*t) for t in timing) for timing in self.timings[traced]]

    def op_latencies(self) -> list[list[float]]:
        """Each op's scaled latency in every untraced pass."""
        return [[self.speed.scaled(*t) for t in op] for op in zip(*self.timings[False])]


def run_pass(cli, prepared, run: Run, tracer: spans.Tracer | None, pass_no: int) -> None:
    """One pass over the op list, each op followed by a speed sample."""
    results = []
    first_span = len(tracer.spans) if tracer else 0
    for i, (op, calls, _paths) in enumerate(prepared):
        if tracer:
            tracer.op = f"{pass_no}:{i}"
        results.append(run_op(cli, calls))
        run.speed.sample(results[-1][1])
    run.timings[tracer is not None].append([(start, took) for start, took, _f, _o in results])
    if tracer:
        run.layer_passes.append(spans.layer_metrics(tracer.spans[first_span:]))
    for (op, _calls, paths), (_start, _latency, failure, out) in zip(prepared, results):
        run.attempted += 1
        if failure is None:
            problem = gate.check_op(op.kind, op.expect, out, paths)
            if problem is not None:
                run.wrong += 1
                failure = f"wrong output: {problem}"
        if failure is not None:
            run.failed += 1
            key = f"{op.name}: {failure}"
            run.failures[key] = run.failures.get(key, 0) + 1


def measure(cli, prepared, seconds: float, trace: bool) -> tuple[Run, list]:
    run = Run()
    tracer = None
    restore = None
    if trace:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
    try:
        start = time.perf_counter()
        passes: list[float] = []
        while True:
            traced = trace and len(passes) % 2 == 1
            if tracer:
                tracer.enabled = traced
            t0 = time.perf_counter()
            run_pass(cli, prepared, run, tracer if traced else None, len(passes))
            passes.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            # Start another pass only if it is expected to end within budget.
            if len(passes) >= MIN_PASSES and elapsed + statistics.median(passes) > seconds:
                break
    finally:
        if restore:
            restore()
    return run, (tracer.spans if tracer else [])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "weakiasi" / "cli.py").is_file():
        raise SetupError(f"program sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    cli, prepared, workdir, setup_times = set_up(workload, seed, work_root, Speed())
    try:
        run, span_list = measure(cli, prepared, seconds, trace)
    finally:
        shutil.rmtree(workdir)

    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
        "ops_per_pass": len(prepared),
        "passes": len(run.timings[False]) + len(run.timings[True]),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / run.attempted,
        "wrong_outputs": run.wrong,
        "failures": run.failures,
    }
    if workload == "corona_label":
        hist = Counter(op.expect["mono_vertices"] for op, _c, _p in prepared)
        info["ops_per_mono_vertex_count"] = dict(sorted(hist.items()))

    if trace:
        layers = {
            name: statistics.median(p[name] for p in run.layer_passes)
            for name in run.layer_passes[0]
        }
        info["untraced_wall_s"] = statistics.median(run.scaled_walls(False))
        info["traced_wall_s"] = statistics.median(run.scaled_walls(True))
        layers["trace.overhead_s"] = info["traced_wall_s"] - info["untraced_wall_s"]
        units = {name: unit for name, unit, _b in spans.LAYER_METRICS}
        metrics = {name: _metric(layers[name], units[name]) for name in units}
    else:
        q, _ = tail_percentile(MIN_PASSES * len(prepared))
        latencies = run.op_latencies()
        n = sum(map(len, latencies))
        info["op_tail"] = {"percentile": q, "ops": n, "ops_beyond": n - math.ceil(q * n / 100)}
        info["unscaled_pass_walls_s"] = [sum(t for _s, t in timing) for timing in run.timings[False]]
        # Each op's latency is its median over the passes, which removes most
        # of the host's pass-to-pass noise.  Every op ran equally often, so
        # percentiles over the ops are percentiles over all executions; they
        # are Harrell-Davis estimates, as one op alone sits at a percentile.
        op_medians = [statistics.median(samples) for samples in latencies]
        values = {
            "wall_s": sum(op_medians),
            "op_p50_s": harrell_davis(op_medians, 50.0),
            "op_tail_s": harrell_davis(op_medians, q),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}

    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps({"info": info, **result}, indent=1) + "\n")
    if span_list:
        with open(out_dir / f"spans-{stem}.jsonl", "w") as fh:
            for s in span_list:
                fh.write(json.dumps(s.to_json_dict()) + "\n")
    return info, result


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


# ---------------------------------------------------------------------------
# All workloads, one row each
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: int, trace: bool) -> int:
    status = 0
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=180 + 4 * seconds,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        rows.append((workload, info, result))

    for workload, info, result in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            top = sorted(((v, k) for k, v in m.items() if k.endswith(".self_s")), reverse=True)[:3]
            tops = ", ".join(f"{k[:-7]} {v:.3f} s" for v, k in top)
            print(f"{workload:13s} largest self time: {tops}; "
                  f"solver nodes {m['solver.sparing_exact.nodes']:.0f}; "
                  f"tracing overhead {m['trace.overhead_s']:+.3f} s "
                  f"({info['traced_wall_s']:.3f} traced vs {info['untraced_wall_s']:.3f} untraced wall_s)")
        else:
            tail = info["op_tail"]
            print(f"{workload:13s} wall_s {m['wall_s']:.3f} s  op_p50_s {m['op_p50_s']:.4f} s  "
                  f"op_tail_s {m['op_tail_s']:.4f} s (p{tail['percentile']:g} of {tail['ops']} ops)  "
                  f"failed_ratio {info['failed_ratio']:.4f} ({info['failed']}/{info['attempted']} ops)  "
                  f"peak_rss_mib {m['peak_rss_mib']:.1f} MiB  setup_s {m['setup_s']:.4f} s")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
