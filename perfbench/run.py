"""cqexp benchmark: README CLI commands run in-process, timed and checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {curve,priors,blocklength} \
        --seed N --seconds S --trace {0,1}

One process runs one workload. It sets up (imports cqexp from ./src,
writes the workload's generated channels, loads every channel) and then
repeats passes over the workload's command list, each command through the
``cqexp.cli`` entry point, while another pass still fits in ``--seconds``.
Every op's stdout is checked against references computed by
``checks.py``, and against the first pass's stdout byte for byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics. A provenance line precedes it.
"""

from __future__ import annotations

import time

# Set-up time counts from here: before numpy, cqexp or the benchmark's
# own modules are imported.
T_START = time.perf_counter()

import os  # noqa: E402

# Single-threaded numpy/BLAS and cqexp: set before numpy is first imported.
THREAD_VARS = (
    "CQEXP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is measured this many times per run (this process plus fresh
# child processes) and reported as the median.
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "ok_frac": "frac", "peak_rss_mb": "MB"}
COMMANDS = ("exponent", "renyi", "capacity", "simulate", "besttype")


def per_layer_units() -> dict[str, str]:
    """Every metric of a traced run, with its unit."""
    import tracing

    return {
        **tracing.PER_LAYER_UNITS,
        **{f"cli.{c}_s": "s" for c in COMMANDS},
        **{f"op.{label}_s": "s" for label in workloads.FIXED_OP_LABELS},
        "trace.overhead_frac": "frac",
    }


@dataclass
class OpResult:
    code: int
    stdout: str
    stderr: str
    seconds: float


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up seconds (used internally)")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Running ops.


def run_op(op: workloads.Op, tracer=None) -> OpResult:
    import click
    from cqexp import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.open(tracer.name_id(f"cqexp.cli.{op.command}")) if tracer is not None else None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ret = cli.main.main(args=op.argv(), prog_name="cqexp", standalone_mode=False)
            code = ret if isinstance(ret, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # an op that crashes is counted as failed, the run goes on
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    return OpResult(code, out.getvalue(), err.getvalue(), seconds)


def run_pass(ops, tracer=None, first_op_id=0) -> list[OpResult]:
    """One pass over the ops; traced when a tracer is given."""
    import tracing

    remove = tracing.instrument(tracer) if tracer is not None else None
    try:
        results = []
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = first_op_id + k
            results.append(run_op(op, tracer))
        return results
    finally:
        if remove is not None:
            remove()


# ---------------------------------------------------------------------------
# Provenance.


def git_commit() -> str:
    """HEAD commit read from ./.git, or 'unknown' outside a git checkout."""
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
    return "unknown"


def source_digest() -> str:
    """sha256 over src/**/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(args) -> dict:
    import numpy as np

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# The run.


def probe_setup(args) -> float:
    """Set-up seconds measured in a fresh child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def check_pass(ops, results, first, checker) -> int:
    """Check one pass; returns the number of failed ops."""
    failed = 0
    for k, (op, res) in enumerate(zip(ops, results)):
        problems = []
        if res.code != 0:
            problems.append(f"exit code {res.code}: {res.stderr.strip()[-300:]}")
        else:
            problems += checker.check(op.command, op.channel, op.args, res.stdout)
            if first is not None and res.stdout != first[k].stdout:
                problems.append("stdout differs from the first pass")
        if problems:
            failed += 1
            print(f"FAILED {op.label} ({' '.join(op.argv())}): " + "; ".join(problems[:3]),
                  file=sys.stderr)
    return failed


def run(args, workdir: Path) -> int:
    ops = workloads.setup(args.workload, args.seed, workdir)
    own_setup = time.perf_counter() - T_START
    import cqexp

    if Path(cqexp.__file__).resolve().parent != (SRC / "cqexp").resolve():
        return fail(f"cqexp was imported from {cqexp.__file__}, not from {SRC}")
    setup_samples = [own_setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    import checks
    import tracing

    checker = checks.Checker()
    tracer = tracing.Tracer() if args.trace else None
    plain: list[list[OpResult]] = []
    traced: list[tuple[list[OpResult], dict]] = []
    first = None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        for use_tracer in (None, tracer) if args.trace else (None,):
            lo = tracer.size if args.trace else 0
            first_op_id = attempted
            results = run_pass(ops, use_tracer, first_op_id)
            if use_tracer is not None:
                counts = [dict(tracer.counts[first_op_id + k]) for k in range(len(ops))]
                spans = tracer.arrays(lo)
                traced.append((results, tracing.pass_metrics(spans, counts)))
                if len(traced) == 1:
                    print_op_counts(ops, spans, counts, first_op_id)
            else:
                plain.append(results)
            attempted += len(ops)
            failed += check_pass(ops, results, first, checker)
            first = first or results
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break

    if args.trace:
        metrics = traced_metrics(ops, plain, traced)
        write_trace(args, tracer, ops, traced)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median([sum(r.seconds for r in p) for p in plain]),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    record = provenance(args)
    record.update(passes=len(plain) + len(traced), setup_samples_s=setup_samples)
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_op_counts(ops, spans, counts, first_op_id) -> None:
    """One stdout line per op of a traced pass with its per-layer counts."""
    import tracing

    for k, op in enumerate(ops):
        m = tracing.pass_metrics(spans.select(spans.op == first_op_id + k), [counts[k]])
        shown = {name: m[name] for name, unit in tracing.PER_LAYER_UNITS.items() if unit == "count"}
        print(json.dumps({"op": " ".join(op.argv()), "counts": shown}))


def traced_metrics(ops, plain, traced) -> dict:
    """Per-layer metrics: medians over traced passes; op times from untraced ones.

    median_low keeps a measured value, so a count stays a whole number.
    """
    median = statistics.median_low
    values = {name: median([m[name] for _, m in traced]) for name in traced[0][1]}
    for command in COMMANDS:
        values[f"cli.{command}_s"] = median(
            [sum(r.seconds for op, r in zip(ops, p) if op.command == command) for p in plain])
    for label in workloads.FIXED_OP_LABELS:
        values[f"op.{label}_s"] = median(
            [sum(r.seconds for op, r in zip(ops, p) if op.label == label) for p in plain])
    wall_plain = median([sum(r.seconds for r in p) for p in plain])
    wall_traced = median([sum(r.seconds for r in res) for res, _ in traced])
    values["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def write_trace(args, tracer, ops, traced) -> None:
    """Spans of the whole run, plus each traced pass's metrics, as one .npz."""
    import numpy as np

    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    spans = tracer.arrays()
    np.savez_compressed(
        out / f"trace_{args.workload}_seed{args.seed}.npz",
        names=np.asarray(spans.names), name=spans.name, start_ns=spans.start,
        end_ns=spans.end, parent=spans.parent, op=spans.op,
        meta=np.asarray(json.dumps({
            "provenance": provenance(args),
            "ops": [" ".join(op.argv()) for op in ops],
            "pass_metrics": [m for _, m in traced],
        })),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "cqexp" / "__init__.py").is_file():
        return fail(f"no cqexp sources under {SRC}; run from a source checkout")
    if not (ROOT / "channels").is_dir():
        return fail(f"no channels/ directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    workdir = HERE.relative_to(ROOT) / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workloads.setup(args.workload, args.seed, workdir)
            print(repr(time.perf_counter() - T_START))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
