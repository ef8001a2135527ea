"""Benchmark of nhlc: end-to-end and per-layer metrics on two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/nhlc).  Closed loop,
one client: every CLI command and every library pass runs in a fresh
Python process, one at a time, so the space cache and the bracket memo
start cold as they do for users.

A run writes the workload's input files into a scratch directory of the
checkout, times the workload's set-up (validation of every input, or import
and build for the library workload) several times, then runs passes of the
workload's commands for --seconds.  The inputs are fixed, so --seed does
not change them.  The stdout of every command must match its sha256 in
perfbench/fingerprints.json; a mismatch, a nonzero exit, a traceback or a
timeout counts as a failed operation.

The host's speed drifts, at times by a factor of three within a minute,
and a command's wall time follows it.  So the run is pinned to one CPU, and
a fixed stdlib-only loop (the host probe) runs on that CPU just before every
command.  Each command's wall time is scaled to the reference host speed,
multiplied by PROBE_REF_S / (its probe's time), and wall_s and setup_s are
medians of these scaled times.  The raw medians are printed on the summary
lines.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it runs untraced passes for the first half of the window and
traced passes (perfbench/tracer.py) for the second, and reports the
per-layer metrics: medians over traced passes of per-pass sums over
processes, plus the tracing overhead and the host-speed probe.  Counters
must be identical across the traced passes, and every metric the workload
is expected to move must be nonzero.  A per-layer time is the self time of
its spans (duration minus child spans and timed kernels), except that
verify.<check>_s is the inclusive time of one verifier of `nhlc verify`, and
spaces.<kind>.solve_s counts only calls that missed the space cache.

The last line of stdout is the JSON result; the lines before it summarise
each metric (median, quartiles, sample count) and the host-speed probe.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, namedtuple

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
PY = sys.executable
TRACER = os.path.join(HERE, "tracer.py")
SOLVE_PASS = os.path.join(HERE, "solve_pass.py")
HARD_LIMIT_S = 165.0
# set-up runs at least SETUP_REPEATS times and until SETUP_BUDGET_S is spent,
# so that the reported median rests on many samples when set-up is short
SETUP_REPEATS = 5
SETUP_BUDGET_S = 3.0
# the host probe's loop count, and its time on the reference host (about
# that of a 2 GHz Xeon core with no contention); time metrics are scaled to it
PROBE_ITERATIONS = 1_000_000
PROBE_REF_S = 0.1

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

LADDER = ("a4.json", "twisted_a4.json", "color_heis3.json")


def _cli(*args):
    return ("cli",) + args


WORKLOADS = {
    "verify-ladder": {
        "files": {"a4.json": inputs.simple_nlie(3),
                  "twisted_a4.json": inputs.twisted_a4(),
                  "color_heis3.json": inputs.color_heis3()},
        "setup": [_cli("validate", f, "--json") for f in LADDER],
        "pass": [_cli("verify", f, "--all", "--k-max", "1", "--json") for f in LADDER],
    },
    "solve-arity4-5": {
        "files": {},
        "setup": [("solve", "--setup")],
        "pass": [("solve",)],
    },
}

# ---------------------------------------------------------------------------
# per-layer metrics and the workloads on which each must be nonzero
# ---------------------------------------------------------------------------

VERIFY_CHECKS = [
    "axioms", "double-derivation-closure", "inner-ideal", "delta-well-defined",
    "delta-residual-laws", "delta-derivation-criterion",
    "delta-commutator-homomorphism", "inner-centralizer-trivial",
    "triple-invariance", "triple-equals-derivations[Inn]",
    "triple-equals-derivations[Der]",
]


def verify_metric(check):
    return "verify." + check.replace("[", ".").replace("]", "").lower() + "_s"


# root-level spans of `nhlc verify`, by the verifier that made them
VERIFIER_OF_SPAN = {
    "algebra.validate": "axioms",
    "grading.validate_bicharacter": "axioms",
    "spaces.closure": "double-derivation-closure",
    "spaces.inner_ideal": "inner-ideal",
    "delta.well_defined": "delta-well-defined",
    "spaces.dder": "delta-well-defined",
    "delta.residual_laws": "delta-residual-laws",
    "delta.derivation_criterion": "delta-derivation-criterion",
    "delta.homomorphism": "delta-commutator-homomorphism",
    "delta.inner_centralizer": "inner-centralizer-trivial",
    "triple.invariance": "triple-invariance",
}
TRIPLE_EQUALS = {"inn": "triple-equals-derivations[Inn]",
                 "der": "triple-equals-derivations[Der]"}

# span name -> (calls metric or None, time metric or None); time is self time
SPAN_METRICS = {
    "io_json.load": (None, "io_json.load.self_s"),
    "algebra.validate": ("algebra.validate.calls", "algebra.validate.self_s"),
    "spaces.center": ("spaces.center.calls", None),
    "spaces.is_perfect": ("spaces.is_perfect.calls", None),
    "spaces.closure": (None, "spaces.closure_s"),
    "spaces.inner_ideal": (None, "spaces.inner_ideal_s"),
    "spaces.map_algebra": (None, "spaces.map_algebra_s"),
    "oracle.der": ("oracle.der.calls", "oracle.der_s"),
    "oracle.dder": ("oracle.dder.calls", "oracle.dder_s"),
    "delta.delta_of": ("delta.delta_of.calls", "delta.delta_of.self_s"),
    "triple.tder": ("triple.tder.calls", "triple.tder.solve_s"),
}
SOLVED_SPACES = {"spaces.der": "spaces.der.solve_s",
                 "spaces.dder": "spaces.dder.solve_s",
                 "spaces.inner": "spaces.inner.solve_s"}
CACHED = set(SOLVED_SPACES) | {"triple.tder"}

# tracer aggregate -> metric
COUNT_METRICS = {
    "algebra.bracket.calls": "algebra.bracket.calls",
    "algebra.bracket_basis.calls": "algebra.bracket_basis.calls",
    "algebra.bracket_basis.distinct": "algebra.bracket_basis.distinct",
    "grading.eps_value.calls": "grading.eps_value.calls",
    "linalg.rowreducer.add.calls": "linalg.rowreducer.rows_added",
    "linalg.rowreducer.kept": "linalg.rowreducer.rows_kept",
    "linalg.membership.calls": "linalg.membership.calls",
    "linalg.solve_particular.calls": "linalg.solve_particular.calls",
}
TIME_METRICS = {
    "linalg.rowreducer.add": "linalg.rowreducer.add_s",
    "linalg.membership": "linalg.membership_s",
    "linalg.solve_particular": "linalg.solve_particular_s",
}

COUNTERS = sorted(
    {m for m, _ in SPAN_METRICS.values() if m}
    | set(COUNT_METRICS.values())
    | {"spaces.cache.hits", "spaces.cache.misses", "linalg.nullspace.calls"})
TIMERS = sorted(
    {t for _, t in SPAN_METRICS.values() if t}
    | set(SOLVED_SPACES.values()) | set(TIME_METRICS.values())
    | {"linalg.nullspace_s", "cli.self_s"}
    | {verify_metric(c) for c in VERIFY_CHECKS})
LAYER_METRICS = COUNTERS + TIMERS + [
    "linalg.rowreducer.keep_ratio", "trace.overhead_ratio",
    "host.probe_s", "host.probe_spread"]

# metrics that must read nonzero on each workload, so that a missed
# rebinding cannot silently zero a layer: the ladder reaches every layer, the
# library pass only assembly and elimination
EXPECT_NONZERO = {
    "verify-ladder": [n for n in LAYER_METRICS if n != "host.probe_spread"],
    "solve-arity4-5": [
        "algebra.bracket.calls", "algebra.bracket_basis.calls",
        "algebra.bracket_basis.distinct", "grading.eps_value.calls",
        "linalg.rowreducer.rows_added", "linalg.rowreducer.rows_kept",
        "linalg.rowreducer.keep_ratio", "linalg.rowreducer.add_s",
        "linalg.nullspace.calls", "linalg.nullspace_s", "spaces.der.solve_s",
        "spaces.dder.solve_s", "spaces.inner.solve_s", "spaces.cache.misses",
        "spaces.center.calls", "trace.overhead_ratio", "host.probe_s"],
}
E2E_METRICS = ["wall_s", "setup_s", "peak_rss_mb"]


def definition_errors():
    """Mismatches between BENCHMARK.json and the workloads and metrics here."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("workloads differ from BENCHMARK.json")
    if [m["name"] for m in spec["end_to_end"]] != E2E_METRICS:
        errors.append("end-to-end metrics differ from BENCHMARK.json")
    if [m["name"] for m in spec["per_layer"]] != LAYER_METRICS:
        errors.append("per-layer metrics differ from BENCHMARK.json")
    return errors


def layer_metrics(trace):
    """Per-layer metrics of one traced process."""
    out = defaultdict(float)
    spans = trace["spans"]
    names = {s[0]: s[1] for s in spans}
    for _, name, _, _, parent, self_t, attrs in spans:
        calls, timer = SPAN_METRICS.get(name, (None, None))
        if calls:
            out[calls] += 1
        if timer:
            out[timer] += self_t
        if name in CACHED:
            out["spaces.cache.misses" if attrs["miss"] else "spaces.cache.hits"] += 1
        if name in SOLVED_SPACES and attrs["miss"]:
            out[SOLVED_SPACES[name]] += self_t
        if name == "linalg.nullspace":
            out["linalg.nullspace_s"] += self_t
            if names.get(parent) != "linalg.nullspace":
                out["linalg.nullspace.calls"] += 1
    for key, metric in COUNT_METRICS.items():
        out[metric] += trace["counts"].get(key, 0)
    for key, metric in TIME_METRICS.items():
        out[metric] += trace["times"].get(key, 0.0)
    root = next(s for s in spans if s[4] is None)
    if root[1] == "cli.main":
        out["cli.self_s"] += root[5]
        if trace["argv"][:1] == ["verify"]:
            source = None
            for _, name, t0, t1, parent, _, attrs in sorted(spans, key=lambda s: s[2]):
                if parent != root[0]:
                    continue
                if name == "cli.map_algebra":
                    source = attrs["source"]
                    check = TRIPLE_EQUALS[source]
                elif name == "triple.equals_derivations":
                    check = TRIPLE_EQUALS[source]
                else:
                    check = VERIFIER_OF_SPAN.get(name)
                if check:
                    out[verify_metric(check)] += t1 - t0
    return out


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

Outcome = namedtuple("Outcome", "wall rss_mb code stdout stderr timed_out")


def run_process(cmd, workdir, timeout, trace_path=None):
    """Run one command in a fresh process; wall time, max RSS and output."""
    kind, args = cmd[0], list(cmd[1:])
    if trace_path:
        argv = [PY, TRACER, trace_path, kind] + args
    elif kind == "cli":
        argv = [PY, "-m", "nhlc.cli"] + args
    else:
        argv = [PY, SOLVE_PASS] + args
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr,
                   killed.is_set())


def host_probe():
    """Fixed stdlib-only reference loop, run just before every command.  An
    integer loop that allocates nothing: of the loops tried (Fraction
    arithmetic, dict and list work, random reads of a large buffer), its time
    followed a command's wall time most closely, and in proportion, as the
    host's speed drifted."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def command_key(cmd):
    return " ".join(cmd)


class Checker:
    """Counts operations and checks each output against its pinned sha256."""

    def __init__(self):
        with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as fh:
            self.pinned = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, cmd, outcome):
        self.attempted += 1
        error = self._error(cmd, outcome)
        if error:
            self.failed += 1
            self.errors.append(f"{command_key(cmd)}: {error}")
        return error is None

    def _error(self, cmd, outcome):
        if outcome.timed_out:
            return "timeout"
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        if "Traceback" in outcome.stderr:
            return "traceback on stderr"
        got = hashlib.sha256(outcome.stdout).hexdigest()
        want = self.pinned.get(command_key(cmd))
        if got != want:
            return f"fingerprint {got} != pinned {want}"
        return None


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name, values, unit):
    q1, q2, q3 = quartiles(values)
    return (f"{name}: median {q2:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, "
            f"n={len(values)}")


class Runner:
    def __init__(self, workload, workdir, start):
        self.w = workload
        self.workdir = workdir
        self.deadline = start + HARD_LIMIT_S
        self.checker = Checker()
        self.trace_dir = os.path.join(workdir, "traces")
        os.makedirs(self.trace_dir)
        self.traces = 0
        self.probes = []

    def remaining(self):
        return self.deadline - time.perf_counter()

    def commands(self, cmds, traced=False):
        """Run commands in turn, each after a host probe: (total wall, total
        wall scaled to the reference host speed, max RSS, traces).  traces
        is None unless traced and every command passed its checks."""
        wall, scaled, rss, traces = 0.0, 0.0, 0.0, [] if traced else None
        for cmd in cmds:
            probe = host_probe()
            self.probes.append(probe)
            trace_path = None
            if traced:
                self.traces += 1
                trace_path = os.path.join(self.trace_dir, f"{self.traces}.json")
            outcome = run_process(cmd, self.workdir, self.remaining(), trace_path)
            wall += outcome.wall
            scaled += outcome.wall * PROBE_REF_S / probe
            rss = max(rss, outcome.rss_mb)
            if not self.checker.check(cmd, outcome):
                traces = None
            elif traces is not None:
                with open(trace_path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        return wall, scaled, rss, traces

    def setup(self):
        """Raw and scaled wall times of repeated set-ups."""
        walls, scaled = [], []
        t0 = time.perf_counter()
        while len(walls) < SETUP_REPEATS or time.perf_counter() - t0 < SETUP_BUDGET_S:
            wall, wall_scaled, _, _ = self.commands(self.w["setup"])
            walls.append(wall)
            scaled.append(wall_scaled)
        return walls, scaled

    def passes(self, until, minimum, traced=False):
        """Raw and scaled wall times, max RSS and traces of passes."""
        walls, scaled, rss, traces = [], [], [], []
        while True:
            wall, wall_scaled, peak, trace = self.commands(self.w["pass"], traced)
            walls.append(wall)
            scaled.append(wall_scaled)
            rss.append(peak)
            traces.append(trace)
            now = time.perf_counter()
            # start another pass only if half a typical one fits in the
            # window, which keeps a run near --seconds when passes are long
            if len(walls) >= minimum and now + statistics.median(walls) / 2 >= until:
                break
            if now + 1.5 * max(walls) > self.deadline:
                break
        return walls, scaled, rss, traces


# checks of a traced run beyond the commands: counters repeat, layers reached
PER_LAYER_CHECKS = ("counter determinism", "per-layer coverage")


def per_layer(traced_passes, untraced_walls, traced_walls, probes, errors, workload):
    per_pass = []
    for traces in traced_passes:
        if traces is None:
            continue
        total = defaultdict(float)
        for trace in traces:
            for k, v in layer_metrics(trace).items():
                total[k] += v
        per_pass.append(total)
    if not per_pass:
        errors.append("no traced pass completed")
        return {}
    counts = [{k: p.get(k, 0) for k in COUNTERS} for p in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in COUNTERS if len({c[k] for c in counts}) > 1)
        errors.append(f"counters differ between traced passes: {diff}")
    if len(per_pass) < 2:
        errors.append("fewer than two traced passes; counters not compared")
    metrics = {}
    for name in COUNTERS + TIMERS:
        metrics[name] = statistics.median(p.get(name, 0) for p in per_pass)
    added = metrics["linalg.rowreducer.rows_added"]
    metrics["linalg.rowreducer.keep_ratio"] = (
        metrics["linalg.rowreducer.rows_kept"] / added if added else 0.0)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(untraced_walls))
    q1, q2, q3 = quartiles(probes)
    metrics["host.probe_s"] = q2
    metrics["host.probe_spread"] = (q3 - q1) / q2
    zero = [n for n in EXPECT_NONZERO[workload] if not metrics.get(n)]
    if zero:
        errors.append(f"per-layer metrics read zero: {zero}")
    return metrics


LAYER_UNITS = {"linalg.rowreducer.keep_ratio": "ratio",
               "trace.overhead_ratio": "ratio", "host.probe_spread": "ratio"}


def layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    # one CPU for the run and every process it starts, so that the host probe
    # measures the CPU the program runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(ROOT, "src", "nhlc", "cli.py")):
        sys.stderr.write("perfbench: run from the root of an nhlc checkout "
                         "(src/nhlc not found)\n")
        return 2
    errors = definition_errors()
    if errors:
        sys.stderr.write("perfbench: " + "; ".join(errors) + "\n")
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        for name, doc in workload["files"].items():
            inputs.dump(doc, os.path.join(workdir, name))
        runner = Runner(workload, workdir, start)
        setups, setups_scaled = runner.setup()
        t_measure = time.perf_counter()
        problems, run_checks = [], 0
        if args.trace:
            _, walls, _, _ = runner.passes(t_measure + args.seconds / 2, 1)
            _, t_walls, _, traces = runner.passes(t_measure + args.seconds, 2,
                                                  traced=True)
            metrics = per_layer(traces, walls, t_walls, runner.probes, problems,
                                args.workload)
            run_checks = len(PER_LAYER_CHECKS)
            result = {k: {"value": metrics.get(k, 0.0), "unit": layer_unit(k)}
                      for k in LAYER_METRICS}
            print(summary("untraced wall_s (scaled)", walls, "s"))
            print(summary("traced wall_s (scaled)", t_walls, "s"))
        else:
            raw, walls, rss, _ = runner.passes(t_measure + args.seconds, 1)
            result = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setups_scaled), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            }
            print(summary("wall_s", walls, "s"))
            print(summary("setup_s", setups_scaled, "s"))
            print(summary("raw wall_s", raw, "s"))
            print(summary("raw setup_s", setups, "s"))
            print(summary("peak_rss_mb", rss, "MB"))
        q1, q2, q3 = quartiles(runner.probes)
        print(f"host probe: median {q2:.4f} s, spread {(q3 - q1) / q2:.4f}, "
              f"n={len(runner.probes)}")
        checker = runner.checker
        for error in checker.errors + problems:
            print(f"FAIL {error}")
        print(json.dumps({"correct": not (checker.errors or problems),
                          "attempted": checker.attempted + run_checks,
                          "failed": checker.failed + len(problems),
                          "metrics": result}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
