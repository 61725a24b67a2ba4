"""ecsim benchmark: one workload per call, seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload evolve|scan|propagate --seed N \
        --seconds S --trace 0|1

`--trace 0` measures the end-to-end metrics with no tracing installed.
`--trace 1` replays the first block of the workload with spans around the
program's layer boundaries and reports the per-layer metrics. Every metric is
printed as `name value unit`; the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

The program is imported from `src/` of the same checkout; the benchmark exits
with code 2, printing no result, when that source tree is missing. The
metrics, workloads and the layer table are documented in benchmarks/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".bench_state"

# BLAS/OpenMP pools are pinned to one thread before numpy loads, so that
# scan-pool threads x BLAS threads stays within nproc
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# an untraced run measures at least this many operations, so that the tail
# (10 operations beyond it) lies above the median even on `scan`, whose
# operations take over a second each
MIN_OPS = 24
# a fresh interpreter imports the CLI and parses the workload's scenario texts
SETUP_PROBE_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ecsim.cli
from ecsim.scenario import parse_scenario
for text in json.load(sys.stdin):
    parse_scenario(text)
"""
WARMUP_TEXT = """initial.kind = alpha_state
initial.alpha = 0.3
params.V = 1.0
params.gamma = 0.5
time.t_final = 1.0
time.samples = 8
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve", "scan", "propagate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One workload run: block generation, operations, oracles, bookkeeping."""

    def __init__(self, workload, seed, modules):
        self.workload = workload
        self.seed = seed
        self.m = modules
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # workloads and oracles import numpy, so they are imported only after
    # main() has pinned the BLAS thread count

    def block(self, index):
        import workloads
        if self.workload == "evolve":
            return workloads.evolve_block(self.seed, index)
        if self.workload == "scan":
            return workloads.scan_block(self.seed, index)
        return workloads.propagate_block(self.seed, index,
                                         self.m["ecsim.dynamics"].liouvillian,
                                         self.m["ecsim.dynamics"].SystemParams)

    def parse(self, ops):
        """Parse every scenario text; returns (scenarios, seconds spent)."""
        parse_scenario = self.m["ecsim.scenario"].parse_scenario
        start = time.perf_counter()
        scenarios = [parse_scenario(op.text) for op in ops]
        return scenarios, time.perf_counter() - start

    def execute(self, scenario, tracer):
        """One operation; returns (output, samples produced)."""
        if self.workload == "propagate":
            result = self.m["ecsim.dynamics"].propagate(
                scenario.initial_density(), scenario.params, scenario.t_final,
                scenario.sample_count)
            return result, len(result)
        with tracer.span("scenario.run"):
            table = self.m["ecsim.scenario"].run_scenario(scenario)
        with tracer.span("scenario.csv"):
            text = table.to_csv()
        return text, len(table.rows)

    def check(self, op, output):
        import oracles
        ecsim = self.m["ecsim"]
        if self.workload == "propagate":
            return oracles.check_propagation(op, output, ecsim)
        return oracles.check_table(op, output, ecsim)

    def run_pass(self, ops, scenarios, tracer, first_op_id=0):
        """Run ops one after another (closed loop, one client); oracles run
        after each op, outside its timed region. Returns per-op seconds and
        the number of samples produced."""
        times, samples = [], 0
        for k, (op, scenario) in enumerate(zip(ops, scenarios)):
            self.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.operation(first_op_id + k):
                    output, produced = self.execute(scenario, tracer)
            except Exception as exc:  # one failed op must not end the run
                times.append(time.perf_counter() - start)
                self._fail(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            samples += produced
            errors = self.check(op, output)
            if errors:
                self._fail("; ".join(errors))
        return times, samples

    def _fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _tail(times):
    """Time at the highest percentile with at least 10 operations beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probe(texts):
    """Wall time of one fresh interpreter that imports ecsim.cli and parses
    `texts`; returns after the interpreter has exited."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE_CODE, str(SRC)],
                   input=json.dumps(texts), text=True, check=True, timeout=120,
                   cwd=ROOT)
    return time.perf_counter() - start


def _warm_up(bench):
    scenario = bench.m["ecsim.scenario"].parse_scenario(WARMUP_TEXT)
    bench.execute(scenario, tracing.NullTracer())


def end_to_end(bench, seconds):
    """Untraced closed loop over fresh blocks until `seconds` of operation
    time and MIN_OPS operations have been measured; only whole blocks are
    run. The set-up probes are spread between blocks, outside the timed
    region, so that one slow stretch of a shared host does not hit all of
    them."""
    texts = [op.text for op in bench.block(0)]
    setup = [setup_probe(texts)]
    _warm_up(bench)
    tracer = tracing.NullTracer()
    times, block_rates, samples = [], [], 0
    while sum(times) < seconds or len(times) < MIN_OPS:
        ops = bench.block(len(block_rates))
        scenarios, _ = bench.parse(ops)
        block_times, block_samples = bench.run_pass(ops, scenarios, tracer)
        times += block_times
        samples += block_samples
        block_rates.append(block_samples / sum(block_times))
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(texts))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(texts))
    tail, percentile = _tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "samples_per_s": statistics.median(block_rates),
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_tail": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"operations": len(times), "blocks": len(block_rates),
              "samples": samples, "tail_percentile": percentile,
              "measured_s": sum(times), "block_rates": block_rates,
              "setup_probes_s": setup}
    return metrics, detail


def _code_hash():
    digest = hashlib.sha256()
    for base in (SRC / "ecsim", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_counts_repeat(key, counts):
    """Compare this run's exact counts with the last run of the same code,
    workload and seed in this checkout; returns a drift message or None."""
    path = STATE_DIR / "counts.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    before = seen.get(key)
    if before is not None and before != counts:
        return f"counts drifted from the previous run: {before} -> {counts}"
    seen[key] = counts
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, path)
    return None


def per_layer(bench, seconds, nproc):
    """Replay block 0: once untraced (on `scan` also once at EC_THREADS=1),
    then traced until `seconds` have passed since the first pass, with at
    least two traced passes. Counts of every traced pass must be identical."""
    ops = bench.block(0)
    scenarios, _ = bench.parse(ops)
    _warm_up(bench)
    start = time.perf_counter()
    times, untraced_samples = bench.run_pass(ops, scenarios, tracing.NullTracer())
    untraced_rate = untraced_samples / sum(times)

    serial_s = 0.0
    if bench.workload == "scan":
        os.environ["EC_THREADS"] = "1"
        try:
            serial_times, _ = bench.run_pass(ops, scenarios, tracing.NullTracer())
        finally:
            os.environ["EC_THREADS"] = str(nproc)
        serial_s = sum(serial_times)

    tracer = tracing.Tracer()
    passes, parse_times, rates = [], [], []
    with tracing.installed(tracer, bench.m):
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            scenarios, parse_s = bench.parse(ops)
            first = len(passes) * len(ops)
            times, samples = bench.run_pass(ops, scenarios, tracer, first)
            passes.append(tracing.summarize(tracer.spans, tracer.counts,
                                            set(range(first, first + len(ops)))))
            parse_times.append(parse_s)
            rates.append(samples / sum(times))

    counts = {name: passes[0][name] for name in tracing.COUNT_NAMES}
    drift = [k for k, summary in enumerate(passes)
             if {name: summary[name] for name in tracing.COUNT_NAMES} != counts]
    if drift:
        bench.problems.append(f"counts differ between traced passes {drift}")
    stored = _check_counts_repeat(f"{_code_hash()}:{bench.workload}:{bench.seed}",
                                  counts)
    if stored:
        bench.problems.append(stored)
    drifted = bool(drift or stored)

    metrics = dict(counts)
    for name in passes[0]:
        if name not in counts:
            metrics[name] = statistics.median(p[name] for p in passes)
    metrics.update({
        "scenario.parse_s": statistics.median(parse_times),
        "scenario.serial_s": serial_s,
        "trace.overhead_ratio": untraced_rate / statistics.median(rates) - 1.0,
        "failed_ratio": bench.failed / bench.attempted,
    })
    detail = {"traced_passes": len(passes), "ops_per_pass": len(ops),
              "counts_drifted": drifted}
    return metrics, detail, drifted


def _commit():
    """HEAD of the checkout, from git itself (so packed refs and worktrees
    resolve); git is not allowed to search above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    if done.returncode != 0:
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def environment(nproc):
    import numpy
    import scipy
    return {
        "nproc": nproc, "os.cpu_count": os.cpu_count(),
        "EC_THREADS": os.environ.get("EC_THREADS"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "commit": _commit(), "source_sha256": _code_hash(),
    }


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "ecsim" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    os.environ["EC_THREADS"] = str(nproc)
    sys.path.insert(0, str(SRC))
    import ecsim
    import ecsim.dynamics
    import ecsim.scenario
    import ecsim.states
    if not Path(ecsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ecsim from {ecsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    modules = {name: sys.modules[name] for name in
               ("ecsim", "ecsim.dynamics", "ecsim.scenario", "ecsim.states")}
    bench = Bench(args.workload, args.seed, modules)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics, detail, drifted = per_layer(bench, args.seconds, nproc)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, detail = end_to_end(bench, args.seconds)
        drifted = False
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    env = environment(nproc)
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(f"failed_ratio {bench.failed / bench.attempted:.6g} 1 "
          f"({bench.failed} of {bench.attempted} operations)")
    for problem in bench.problems:
        print(f"problem {problem}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": bench.failed == 0 and not drifted,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
