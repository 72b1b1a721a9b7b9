"""fibra benchmark: one workload of in-process ``fibra.cli.main`` calls.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 30 --trace 0

Run from the root of a fibra source tree.  One client runs the workload's
commands in a closed loop (the next command starts when the previous one
returns), round after round, with no threads.  Each round reads a fresh set
of input files drawn from the seed and the round number, so every command
meets its graphs for the first time.  Every output is checked against oracles
that do not use fibra.  Every round starts with fibra's caches emptied, and
the last round repeats the first round's inputs: each of those reports must
be byte-identical to its first run.  End-to-end times are scaled by the
machine's speed, measured around each command (see ``reference``).  The last
line of standard output is the JSON result; the lines before it show each
metric with its unit and the environment it was measured in.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced round, empties fibra's caches, replays the same inputs with spans
around each public fibra call (see ``tracing.py``), and reports per-layer
metrics, layer self times and the tracing overhead; spans are written as
JSONL under ``.bench_build/perfbench/traces/``.  ``--smoke`` uses toy sizes.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import plan  # noqa: E402
import tracing  # noqa: E402

T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("refine", "flow", "certify")
SETUP_REPEATS = 9
MAX_WALL_S = 150.0  # start no new round after this, so a slow program still exits in time
TAIL_BEYOND = 10
# A typical reference() time on the development machine (2-core x86-64,
# Python 3.11), so that scaled times read as seconds there.
REFERENCE_S = 0.0030
# A command's speed factor is the median of the reference() times taken before
# it and before the SPEED_WINDOW commands on each side of it.
SPEED_WINDOW = 2

# per-layer metric -> (unit, traced call, statistic, scale)
#   mean: seconds per call; per:<work>: seconds per unit of counted work;
#   count:<work>: the exact count; self_mean: self seconds per call
LAYER_METRICS = {
    "graphs.in_edges_us": ("us", "graphs.Graph.in_edges", "mean", 1e6),
    "graphs.check_network_map_s": ("s", "graphs.check_network_map", "mean", 1.0),
    "graphs.phase_space_map_us": ("us", "graphs.phase_space_map", "mean", 1e6),
    "graphs.coordinate_distance_us": ("us", "graphs.coordinate_distance", "mean", 1e6),
    "input_trees.symmetry_groupoid_s": ("s", "input_trees.symmetry_groupoid", "mean", 1.0),
    "input_trees.input_tree_us": ("us", "input_trees.input_tree", "mean", 1e6),
    "input_trees.enumerate_tree_isos_s": ("s", "input_trees.enumerate_tree_isos", "mean", 1.0),
    "fibrations.coarsest_balanced_s": ("s", "fibrations.coarsest_balanced", "mean", 1.0),
    "fibrations.quotient_of_s": ("s", "fibrations.quotient_of", "mean", 1.0),
    "fibrations.is_balanced_s": ("s", "fibrations.is_balanced", "mean", 1.0),
    "fibrations.check_fibration_s": ("s", "fibrations.check_fibration", "mean", 1.0),
    "fibrations.polydiagonal_violation_us": ("us", "fibrations.Polydiagonal.violation", "mean", 1e6),
    "fibrations.blocks": ("count", "fibrations.coarsest_balanced", "count:blocks", 1.0),
    "fibrations.quotient_edges": ("count", "fibrations.coarsest_balanced", "count:quotient_edges", 1.0),
    "expr_dsl.parse_control_s": ("s", "expr_dsl.parse_control", "mean", 1.0),
    "expr_dsl.evaluate_us": ("us", "expr_dsl.evaluate", "mean", 1e6),
    "dynamics.pullback_s": ("s", "dynamics.pullback", "mean", 1.0),
    "dynamics.interconnect_s": ("s", "dynamics.interconnect", "mean", 1.0),
    "dynamics.field_eval_us_per_node": ("us/node", "dynamics.GlobalField.__call__", "per:nodes", 1e6),
    "numerics.rk4_step_ms": ("ms", "numerics.integrate", "per:steps", 1e3),
    "numerics.integrate_s": ("s", "numerics.integrate", "mean", 1.0),
    "numerics.verify_conjugacy_pointwise_s": ("s", "numerics.verify_conjugacy_pointwise", "mean", 1.0),
    "numerics.verify_conjugacy_flow_s": ("s", "numerics.verify_conjugacy_flow", "mean", 1.0),
    "numerics.verify_polydiagonal_invariance_s": ("s", "numerics.verify_polydiagonal_invariance", "mean", 1.0),
    "numerics.verify_driving_decomposition_s": ("s", "numerics.verify_driving_decomposition", "mean", 1.0),
    "sampling.sample_state_us": ("us", "sampling.sample_state", "mean", 1e6),
    "jsonio.network_from_json_s": ("s", "jsonio.network_from_json", "mean", 1.0),
    "jsonio.map_from_json_s": ("s", "jsonio.map_from_json", "mean", 1.0),
    "jsonio.class_dynamics_from_json_s": ("s", "jsonio.class_dynamics_from_json", "mean", 1.0),
    "cli.self_s": ("s", "cli.main", "self_mean", 1.0),
}


@dataclass
class Execution:
    command: plan.Command
    label: str  # round number, or "probe"
    out: Path
    seconds: float
    rc: int | None
    error: str | None
    reference: float  # reference() seconds just before the command


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="nominal measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, for tests")
    return p.parse_args(argv)


def import_fibra():
    """Import fibra from this tree's ``src``; an installed copy would measure other code."""
    src = ROOT / "src"
    if not (src / "fibra" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fibra sources under {src}")
    sys.path.insert(0, str(src))
    import fibra
    import fibra.cli
    import fibra.jsonio

    if Path(fibra.__file__).resolve().parent != (src / "fibra").resolve():
        raise SystemExit(f"perfbench: fibra was imported from {fibra.__file__}, not {src}")
    return fibra


def environment(args, fibra) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fibra": fibra.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


_REFERENCE_RNG = np.random.default_rng(5)
REFERENCE_SOURCES = [[int(s) for s in _REFERENCE_RNG.integers(0, 400, size=1 + a % 3)] for a in range(400)]


def reference() -> float:
    """Seconds for a fixed piece of work that does not use fibra: integer
    colour refinement of one 400-node graph, the dict, tuple and sorting work
    that dominates fibra's commands.

    The host's speed drifts over seconds, so it runs before every command, and
    each command's time is scaled by REFERENCE_S over the median of the
    reference times nearest it (``scaled_times``).
    """
    t0 = time.perf_counter()
    colour = [a % 3 for a in range(len(REFERENCE_SOURCES))]
    n_colours = 3
    while True:
        sig = [(colour[a], tuple(sorted(colour[s] for s in src))) for a, src in enumerate(REFERENCE_SOURCES)]
        ranks = {k: i for i, k in enumerate(sorted(set(sig)))}
        colour = [ranks[k] for k in sig]
        if len(ranks) == n_colours:
            break
        n_colours = len(ranks)
    return time.perf_counter() - t0


def scaled_times(executions: list[Execution]) -> list[float]:
    """Each command's seconds at the development machine's speed."""
    refs = [ex.reference for ex in executions]
    return [
        ex.seconds * REFERENCE_S / statistics.median(refs[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
        for i, ex in enumerate(executions)
    ]


def execute(fibra, command: plan.Command, out: Path, label: str) -> Execution:
    # Start every command with no collector debt from the previous one, so each
    # pays for the garbage collections its own allocations trigger; the
    # reference runs with the collector off, so fibra's heap cannot slow it.
    gc.collect()
    gc.disable()
    try:
        ref = reference()
    finally:
        gc.enable()
    t0 = time.perf_counter()
    error = None
    try:
        rc = fibra.cli.main(command.argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects its arguments
        rc, error = exc.code, f"exited via SystemExit({exc.code})"
    except Exception:  # an uncaught exception is a failed command, not a crash of the benchmark
        rc, error = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return Execution(command, label, out, time.perf_counter() - t0, rc, error, ref)


def round_commands(args, fibra, work: Path, k: int) -> list[plan.Command]:
    """Round ``k``'s commands, on input files of its own drawn from (seed, k)."""
    commands = plan.build(args.workload, fibra, work / f"inputs{k}", [args.seed, k], args.smoke)
    for cmd in commands:
        cmd.cid = f"r{k}-{cmd.cid}"
    return commands


def reset_caches():
    """Empty the functools caches of every fibra module, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "fibra" or name.startswith("fibra."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_round(fibra, commands, outdir: Path, label: str, tracer=None) -> list[Execution]:
    outdir.mkdir(parents=True, exist_ok=True)
    done = []
    for cmd in commands:
        if tracer is not None:
            tracer.command = f"{label}/{cmd.cid}"
        done.append(execute(fibra, cmd, outdir / f"{cmd.cid}{cmd.suffix}", label))
    return done


def check(executions: list[Execution]) -> list[tuple[Execution, str]]:
    """Failed executions with the reason: oracle verdicts, and byte-identity of
    every command's output across its runs."""
    failures = []
    first: dict[str, str] = {}
    verdicts: dict[tuple, str | None] = {}
    for ex in executions:
        reason = ex.error
        if reason is None:
            try:
                data = ex.out.read_bytes()
            except OSError:
                data = None
            if data is None:
                reason = f"exit {ex.rc} and no output written"
            else:
                digest = hashlib.sha256(data).hexdigest()
                if first.setdefault(ex.command.cid, digest) != digest:
                    reason = "output bytes differ from the command's first run"
                else:
                    key = (ex.command.cid, ex.rc, digest)
                    if key not in verdicts:
                        try:
                            verdicts[key] = ex.command.check(ex.rc, ex.command.output(data.decode()))
                        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                            verdicts[key] = f"oracle could not read the output: {exc!r}"
                    reason = verdicts[key]
        if reason:
            failures.append((ex, reason))
    return failures


def setup(args, fibra, work: Path):
    """Process start to the first timed command, set up SETUP_REPEATS times.

    Each repeat starts a fresh interpreter that imports fibra.cli, then builds
    the first round's inputs, writes their JSON and runs one warm-up command on
    the smallest input.  Returns the first round's commands and the median
    repeat in seconds, unscaled and scaled by the warm-up commands' reference
    times.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import fibra.cli"
    repeats, refs = [], []
    for _ in range(SETUP_REPEATS):
        reset_caches()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True)
        commands = round_commands(args, fibra, work, 0)
        warm = min(commands, key=lambda c: c.work)
        refs.append(execute(fibra, warm, work / f"warmup{warm.suffix}", "warmup").reference)
        repeats.append(time.perf_counter() - t0)
    reset_caches()
    setup_s = statistics.median(repeats)
    return commands, (setup_s, setup_s * REFERENCE_S / statistics.median(refs))


def end_to_end(args, fibra, commands, setup, work: Path):
    rounds = max(2, round(args.seconds / plan.ROUND_SECONDS[args.workload]))
    executions = []
    for k in range(rounds):
        if k >= 1 and time.perf_counter() - T0 > MAX_WALL_S:
            print(f"perfbench: stopped after {k} rounds at the wall-clock cap", file=sys.stderr)
            break
        # Every round starts from empty caches; the last one repeats the first
        # round's inputs, so each of those reports must come out byte-identical.
        reset_caches()
        round_k = commands if k in (0, rounds - 1) else round_commands(args, fibra, work, k)
        executions += run_round(fibra, round_k, work / f"round{k}", str(k))
    failures = check(executions)
    failed = {id(ex) for ex, _ in failures}
    raw = sorted(ex.seconds for ex in executions)
    times = sorted(scaled_times(executions))
    n = len(times)
    tail_rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    useful = sum(ex.command.work for ex in executions if id(ex) not in failed)
    busy = sum(times)
    setup_raw, setup_s = setup
    reference_s = statistics.median(ex.reference for ex in executions)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (times[tail_rank], "s"),
        "work_per_s": (useful / busy, "work/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    name, unit, what = plan.WORK_UNITS[args.workload]
    notes = [
        f"machine speed {REFERENCE_S / reference_s:.4f} (median): reference {reference_s * 1e3:.4f} ms "
        f"against {REFERENCE_S * 1e3:.4f} ms nominal; times below are scaled by the local speed",
        f"unscaled: setup_s {setup_raw:.6g} s, cmd_p50_s {statistics.median(raw):.6g} s, "
        f"cmd_tail_s {raw[tail_rank]:.6g} s, work_per_s {useful / sum(raw):.6g} work/s",
        f"rounds {len(executions) // len(commands)} x {len(commands)} commands; "
        f"the last round repeats the first round's inputs",
        f"cmd_tail_s is p{100.0 * (tail_rank + 1) / n:.1f}: {n - 1 - tail_rank} of {n} commands beyond it",
        f"{name} {useful / busy:.6g} {unit} (work_per_s on this workload: {what})",
        f"failed_frac {len(failures) / n:.6g} frac",
    ]
    return n, [(ex.label, ex.command.cid, why) for ex, why in failures], metrics, notes


def layer_value(stats: tracing.Stats, call: str, statistic: str, scale: float) -> float | None:
    calls = stats.calls.get(call, 0)
    if not calls:
        return None
    kind, _, key = statistic.partition(":")
    if kind == "mean":
        return scale * stats.total[call] / calls
    if kind == "self_mean":
        return scale * stats.self_time[call] / calls
    if kind == "per":
        return scale * stats.total[call] / stats.work[call][key]
    return stats.work[call][key]


def probe_commands(fibra, work: Path, seed: int) -> list[plan.Command]:
    """Toy-size commands of every workload, so each layer metric has calls to measure."""
    commands = []
    for w in WORKLOADS:
        for cmd in plan.build(w, fibra, work / "probe" / w, [seed, 0], smoke=True):
            cmd.cid = f"{w}-{cmd.cid}"
            commands.append(cmd)
    return commands


def traced(args, fibra, commands, work: Path, env: dict):
    """One untraced round, a traced replay of it, then a traced probe of every layer."""
    untraced = run_round(fibra, commands, work / "round0", "0")
    reset_caches()
    round_tracer, probe_tracer = tracing.Tracer(), tracing.Tracer()
    with round_tracer.install():
        replay = run_round(fibra, commands, work / "traced", "traced", round_tracer)
    probes = probe_commands(fibra, work, args.seed)
    with probe_tracer.install():
        probed = run_round(fibra, probes, work / "probe" / "out", "probe", probe_tracer)
        star = fibra.network(
            [("r", fibra.R1)] + [(f"s{i}", fibra.R1) for i in range(8)],
            [(f"e{i}", f"s{i}", "r") for i in range(8)],
        )
        probe_tracer.command = "probe/enumerate_tree_isos"
        isos = fibra.enumerate_tree_isos(star, "r", "r")
    executions = untraced + replay + probed
    failures = [(ex.label, ex.command.cid, why) for ex, why in check(executions)]
    if len(isos) != 40320:
        failures.append(("probe", "enumerate_tree_isos", f"{len(isos)} automorphisms of 8 leaves, not 8!"))

    metrics, notes = {}, []
    for metric, (unit, call, statistic, scale) in LAYER_METRICS.items():
        value = layer_value(round_tracer.stats, call, statistic, scale)
        if value is None:
            value = layer_value(probe_tracer.stats, call, statistic, scale)
            notes.append(f"{metric}: no {call} calls in the {args.workload} round; value from the probe")
        metrics[metric] = (value if value is not None else 0.0, unit)
    round_self, probe_self = round_tracer.layer_self(), probe_tracer.layer_self()
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_total_s"] = (round_self[layer] or probe_self[layer], "s")
    overhead = sum(ex.seconds for ex in replay) - sum(ex.seconds for ex in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    notes.append(
        f"tracing overhead {overhead:.4f} s over {len(replay)} commands "
        f"({100.0 * overhead / sum(ex.seconds for ex in untraced):.1f}% of the untraced round)"
    )
    traces = ROOT / ".bench_build" / "perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    round_tracer.write_jsonl(traces / f"{stem}.jsonl", env)
    probe_tracer.write_jsonl(traces / f"{stem}.probe.jsonl", env)
    notes.append(f"spans written to {traces / stem}.jsonl and {stem}.probe.jsonl")
    return len(executions) + 1, failures, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    fibra = import_fibra()
    env = environment(args, fibra)
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        commands, setup_s = setup(args, fibra, work)
        if args.trace:
            attempted, failures, metrics, notes = traced(args, fibra, commands, work, env)
        else:
            attempted, failures, metrics, notes = end_to_end(args, fibra, commands, setup_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for label, cid, reason in failures[:20]:
        print(f"FAILED {label}/{cid}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
