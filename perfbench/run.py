#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table3-serial --seed 20170626 \\
        --seconds 25 --trace 0

``--workload`` is ``table3-serial``, ``fanout-journaled`` or ``cr-invivo``
(see ``workloads.py`` for what each runs and why).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run's
record (git sha, source digest, Python version, nproc, backend, seed, size
and a calibration-loop score, so ratios compare across hosts).

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s`` -- ops completed per second of timed wall-clock after
  set-up (an op is one injection run, or one driven C/R run);
* ``setup_s`` -- compile, golden profile, function table, ladder build
  and workload preparation before the first timed op, in a fresh process,
  median of three;
* ``peak_rss_mb`` -- peak resident memory of the driver process plus,
  for the fan-out, ``jobs`` times the largest worker's peak, at the end of
  the first round.

``--trace 1`` is a separate run: the same ops untraced and then with
timing wrappers at every layer boundary (``layers.py``), and it reports
the per-layer metrics.  It fails when a wrapper the workload needs never
fires or a wrapper count disagrees with the program's exact tallies.

The measuring happens in child processes of this one, so every set-up
starts from cold caches; each child is waited for.  ``--smoke`` shrinks
every workload to a few ops (the self-test uses it), and
``--write-reference`` re-records ``reference.json`` at the reference seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("table3-serial", "fanout-journaled", "cr-invivo")
DEFAULT_SEED = 20170626
SETUP_SAMPLES = 3
#: Seconds a whole invocation may take, children included.
TIME_LIMIT = 175.0
SMOKE_N_PER_APP = 4
SMOKE_CR_RUNS = 16


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="minimal sizes (self-test only)"
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for the run record and traced spans",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="re-record reference.json at the reference seed and exit",
    )
    parser.add_argument(
        "--role", choices=("main", "setup", "driver"), default="main",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


# -- run records ---------------------------------------------------------------


def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, perf_counter() - start)
    return 0.2 / best


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """sha256 over every file under src/ (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- the measuring child ---------------------------------------------------------


def make_workload(args: argparse.Namespace):
    from workloads import N_PER_APP, REFERENCE_SEED, WORKLOADS, load_reference

    cls = WORKLOADS[args.workload]
    kwargs = {}
    if args.smoke:
        kwargs["n_per_app"] = SMOKE_N_PER_APP
        if args.workload == "cr-invivo":
            kwargs["runs"] = SMOKE_CR_RUNS
    else:
        kwargs["n_per_app"] = N_PER_APP
    reference = load_reference() if args.seed == REFERENCE_SEED else None
    return cls(args.seed, reference=reference, **kwargs)


def measure(workload, seconds: float, workdir: Path, smoke: bool):
    """Closed loop of rounds until the next one would overrun *seconds*.

    Returns the rounds and the peak RSS at the end of the first: later
    rounds repeat its ops, so the figure does not depend on how many fit.
    """
    rounds = []
    begin = perf_counter()
    while True:
        rnd = workload.run_round(len(rounds), workdir)
        rounds.append(rnd)
        if len(rounds) == 1:
            rss = peak_rss_mb(workload.jobs)
        if smoke or perf_counter() - begin + rnd.wall > seconds:
            return rounds, rss


def reap_workers(timeout: float = 10.0) -> None:
    """Wait for exited pool workers so their peak RSS is accounted."""
    import multiprocessing

    deadline = monotonic() + timeout
    while multiprocessing.active_children() and monotonic() < deadline:
        sleep(0.05)


def peak_rss_mb(jobs: int) -> float:
    reap_workers()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * workers if jobs > 1 else 0)) / 1024.0


def role_setup(args: argparse.Namespace) -> dict:
    start = perf_counter()
    workload = make_workload(args)
    workload.prepare()
    return {"setup_s": perf_counter() - start}


def role_driver(args: argparse.Namespace) -> dict:
    start = perf_counter()
    workload = make_workload(args)
    workload.prepare()
    setup_s = perf_counter() - start
    calibration = calibration_score()
    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        window = args.seconds / 2 if args.trace else args.seconds
        rounds, rss = measure(workload, window, workdir, args.smoke)
        payload = {
            "setup_s": setup_s,
            "calibration_mops": calibration,
            "rounds": len(rounds),
            "describe": workload.describe(),
        }
        if args.trace:
            traced, metrics, problems = traced_phase(args, workload, rounds, workdir)
            all_rounds = rounds + traced
        else:
            all_rounds = rounds
            problems = []
            metrics = {
                "ops_per_s": (workload.ops_per_s(rounds), "1/s"),
                "peak_rss_mb": (rss, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload.update(
        attempted=sum(r.ops for r in all_rounds),
        failed=sum(r.failed for r in all_rounds),
        problems=[p for r in all_rounds for p in r.problems] + problems,
        metrics=metrics,
    )
    return payload


def traced_phase(args, workload, untraced: list, workdir: Path):
    """Replay the untraced rounds with every layer wrapped; per-layer table."""
    import layers
    from workloads import N_PER_APP, app_plans
    from repro.apps import app_names, make_app
    from repro.core import LETGO_E

    spans = layers.Spans()
    spans.install()
    try:
        traced = [workload.run_round(r.index, workdir) for r in untraced]
    finally:
        spans.uninstall()
    tally: dict = {}
    for rnd in traced:
        for key, value in rnd.tally.items():
            tally[key] = tally.get(key, 0) + value
    # telemetry.overhead_ratio: the pennant campaign of table3-serial.
    pennant = make_app("pennant")
    plans = app_plans(
        args.seed, app_names().index("pennant"), pennant,
        SMOKE_N_PER_APP if args.smoke else N_PER_APP,
    )
    extra = {
        "instr_per_s": layers.substrate_rates(),
        "telemetry_ratio": layers.telemetry_ratio(pennant, plans, args.seed, LETGO_E),
        "trace_ratio": sum(r.wall for r in traced) / sum(r.wall for r in untraced),
        "ladder_build_s": workload.ladder_build_s,
    }
    metrics = layers.layer_metrics(spans.spans, tally, extra)
    problems = layers.reconcile(args.workload, spans.fired(), tally, metrics)
    args.out.mkdir(parents=True, exist_ok=True)
    spans.write(args.out / f"{args.workload}-seed{args.seed}-spans.jsonl")
    return traced, metrics, problems


# -- the parent ------------------------------------------------------------------


def run_child(args: argparse.Namespace, role: str, deadline: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    # A session of its own, so a timeout can stop the child's pool workers too.
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    if child.returncode != 0:
        raise RuntimeError(f"{role} child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.role == "setup":
        print(json.dumps(role_setup(args)))
        return 0
    if args.role == "driver":
        print(json.dumps(role_driver(args)))
        return 0
    if args.write_reference:
        from workloads import write_reference

        workdir = args.out / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            write_reference(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    deadline = monotonic() + TIME_LIMIT
    samples = []
    try:
        if not args.trace and not args.smoke:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(run_child(args, "setup", deadline)["setup_s"])
        result = run_child(args, "driver", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    samples.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(samples), "s")
    for problem in result["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    import workloads
    from repro.machine.compiled import default_backend

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": default_backend(),
        "calibration_mops": result["calibration_mops"],
        "rounds": result["rounds"],
        "setup_samples_s": samples,
        "op_fail_share": result["failed"] / max(1, result["attempted"]),
        "reference_checked": args.seed == workloads.REFERENCE_SEED,
        **result["describe"],
    }
    line = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": line}, indent=1) + "\n"
    )
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
