"""chanopt benchmark: one workload per run, checked outputs, drift-corrected timings.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; chanopt is imported from its src/.
The last line of standard output is the result object (correct, attempted,
failed, metrics); the line before it records the run's environment and raw
timings, which are also written under bench/out/. See bench/README.md.
"""
import time

T_START = time.perf_counter()  # first statement: the set-up probes time from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, here and in every child

# Timings are scaled by NOMINAL_REF_S / (reference time measured around
# them), so they read as on a machine where the reference kernel takes
# NOMINAL_REF_S, close to its median where the bounds were set. Each CPU of
# that machine flips between speeds every few tens of milliseconds to
# seconds; pinned to one CPU, the reference times right before and after a
# step follow the step's speed.
NOMINAL_REF_S = 10.0e-3
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
IMPORTTIME_NAMES = {"numpy": "cli.import_numpy_ms", "chanopt": "cli.import_chanopt_ms",
                    "scipy.optimize": "cli.import_scipy_optimize_ms"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# Reference kernel and drift-corrected timing


class RefKernel:
    """A small fixed kernel, owned by the benchmark, timed between steps.

    Two parts, each standing for one kind of cost in chanopt: small LAPACK
    calls and dense complex products under interpreter overhead (the numpy
    loop), and the large instruction footprint of interpreter-heavy code
    such as imports and argument parsing (compiling checks.py). Under the
    contention seen on the sandbox the bounds were set on, the numpy loop
    alone stopped tracking subprocess and import times (correlation 0.04
    over 16 samples) while the compile part tracked them (0.68).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.h = g + g.conj().T
        self.m = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        self.eigvalsh = np.linalg.eigvalsh
        self.source = (BENCH_DIR / "checks.py").read_text()
        self.samples: list[float] = []

    def measure(self) -> float:
        t = time.perf_counter()
        for _ in range(144):
            self.eigvalsh(self.h)
            self.m @ self.m
        compile(self.source, "checks.py", "exec")
        v = time.perf_counter() - t
        self.samples.append(v)
        return v


def drift_corrected(raw: float, ref_before: float, ref_after: float) -> float:
    return raw * NOMINAL_REF_S / (0.5 * (ref_before + ref_after))


class Runner:
    """Closed loop, one client: run an operation step by step with the
    reference kernel timed before and after every step, then check it.

    An operation's corrected time is the sum of its steps' raw times, each
    scaled by the reference times on either side of it.
    """

    def __init__(self, ref: RefKernel):
        self.ref = ref
        self.raw: list[float] = []
        self.corrected: list[float] = []  # of the operations that passed
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, op, call) -> bool:
        outs, raw, corrected = [], 0.0, 0.0
        before = self.ref.measure()
        try:
            for step in op.steps:
                t = time.perf_counter()
                try:
                    outs.append(call(op, step))
                finally:
                    dt = time.perf_counter() - t
                    after = self.ref.measure()
                    raw += dt
                    corrected += drift_corrected(dt, before, after)
                    before = after
            op.check(outs)
        except Exception as exc:  # a program error or failed check fails this operation only
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return False
        finally:
            del outs
        self.raw.append(raw)
        self.corrected.append(corrected)
        return True

    def rounds(self, workload, seconds: float, call) -> None:
        """Whole rounds until at least `seconds` have passed."""
        t0 = time.perf_counter()
        while True:
            for op in workload.ops:
                self.execute(op, call)
                self.attempted += 1
            if time.perf_counter() - t0 >= seconds:
                return

    @property
    def failed(self) -> int:
        return len(self.failures)

    def ops_per_s(self) -> float:
        return len(self.corrected) / sum(self.corrected) if self.corrected else 0.0


# ---------------------------------------------------------------------------
# Set-up probes


def run_probes(args, ref: RefKernel, count: int, importtime: bool) -> list[dict]:
    """Start `count` fresh interpreters that import chanopt and build the
    workload's inputs; time each from spawn to inputs built."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(Path(__file__)),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--trace", "0", "--size", args.size, "--setup-probe"]
    probes = []
    for _ in range(count):
        r0 = ref.measure()
        t_spawn = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True)
        r1 = ref.measure()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        setup = stamps["t_ready"] - t_spawn
        probe = {"setup_raw_s": setup, "setup_s": drift_corrected(setup, r0, r1),
                 "python_start_ms": (stamps["t_start"] - t_spawn) * 1e3}
        if importtime:
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2] in IMPORTTIME_NAMES:
                    probe[IMPORTTIME_NAMES[parts[2]]] = int(parts[1]) / 1e3
        probes.append(probe)
    return probes


def setup_probe(args) -> int:
    """Child side: import chanopt, build the workload's inputs, report."""
    import chanopt
    from workloads import build

    build(args.workload, chanopt, args.seed, args.size == "tiny",
          **cli_kwargs(args.workload, OUT_DIR / "probe", False))
    print(json.dumps({"t_start": T_START, "t_ready": time.perf_counter()}))
    return 0


# ---------------------------------------------------------------------------


def cli_kwargs(workload: str, out_root: Path, in_process: bool) -> dict:
    if workload != "cli-presets":
        return {}
    return {"out_root": out_root, "in_process": in_process, "env": child_env()}


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "numpy": np.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "nominal_ref_ms": NOMINAL_REF_S * 1e3,
    }


def emit(args, metrics: dict, runners: list[Runner], warm_ok: bool, record: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    record["failures"] = [f for r in runners for f in r.failures]
    record["ref_ms"] = [t * 1e3 for t in runners[0].ref.samples]
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (run_dir / "run.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(warm_ok and failed < attempted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


def plain_call(op, step):
    return step()


def warm_up(workload, ref: RefKernel, call) -> bool:
    """One checked operation before timing; not counted."""
    return Runner(ref).execute(workload.warmup, call)


def measure(args, run_dir: Path) -> int:
    """Untraced run: the end-to-end metrics."""
    import resource

    import chanopt
    from workloads import build

    ref = RefKernel()
    workload = build(args.workload, chanopt, args.seed, args.size == "tiny",
                     **cli_kwargs(args.workload, run_dir / "cli", False))
    warm_ok = warm_up(workload, ref, plain_call)
    runner = Runner(ref)
    runner.rounds(workload, args.seconds, plain_call)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-presets" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # read before the probes run
    probes = run_probes(args, ref, 1 if args.size == "tiny" else SETUP_PROBES, importtime=False)

    done = runner.corrected
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "ops_per_s": runner.ops_per_s(),
        "op_p50_ms": statistics.median(done) * 1e3 if done else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "env": environment(args), "metrics": metrics,
        "op_raw_ms": [t * 1e3 for t in runner.raw],
        "op_corrected_ms": [t * 1e3 for t in done],
        "setup_probes": probes,
    }
    emit(args, metrics, [runner], warm_ok, record)
    return 0


def trace(args, run_dir: Path) -> int:
    """Traced run: half the time untraced, half traced; per-layer metrics."""
    import chanopt
    import chanopt.cli  # noqa: F401  (its imported names get wrapped too)
    from tracing import Tracer, layer_metrics, op_medians_ms
    from workloads import COMMANDS, build, report_bytes

    ref = RefKernel()
    tracer = Tracer()
    tracer.install()
    try:
        workload = build(args.workload, chanopt, args.seed, args.size == "tiny",
                         **cli_kwargs(args.workload, run_dir / "cli", True))
    finally:
        tracer.remove()

    warm_ok = warm_up(workload, ref, plain_call)
    plain = Runner(ref)
    plain.rounds(workload, args.seconds / 2, plain_call)

    traced = Runner(ref)

    def traced_call(op, step):
        tracer.op = traced.attempted
        return tracer.call(f"op:{op.label}", step)

    tracer.install()
    try:
        traced.rounds(workload, args.seconds / 2, traced_call)
    finally:
        tracer.remove()

    metrics = layer_metrics(tracer.spans, traced.attempted)
    probes = run_probes(args, ref, 1 if args.size == "tiny" else IMPORTTIME_PROBES, importtime=True)
    metrics["cli.python_start_ms"] = statistics.median(p["python_start_ms"] for p in probes)
    for key in IMPORTTIME_NAMES.values():
        metrics[key] = statistics.median(p.get(key, 0.0) for p in probes)
    is_cli = args.workload == "cli-presets"
    medians = op_medians_ms(tracer.spans, "op:") if is_cli else {}
    for cmd in COMMANDS:
        metrics[f"cli.{cmd.replace('-', '_')}_ms"] = medians.get(cmd, 0.0)
    metrics["cli.report_bytes"] = report_bytes(run_dir / "cli") if is_cli else 0
    metrics["machine.ref_ms"] = statistics.median(ref.samples) * 1e3
    metrics["trace.overhead_ratio"] = (
        traced.ops_per_s() / plain.ops_per_s() if plain.ops_per_s() else 0.0)

    with open(run_dir / "spans.jsonl", "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    record = {
        "env": environment(args), "metrics": metrics,
        "untraced_ops_per_s": plain.ops_per_s(), "traced_ops_per_s": traced.ops_per_s(),
        "op_raw_ms": [t * 1e3 for t in traced.raw],
        "setup_probes": probes, "spans": len(tracer.spans),
    }
    emit(args, metrics, [plain, traced], warm_ok, record)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-verdicts", "certify-feasibility", "cli-presets", "repeat-scale"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "chanopt" / "__init__.py").is_file():
        print(f"chanopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so that the reference
    # kernel runs where the operations (and the CLI subprocesses) run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_probe:
        return setup_probe(args)

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return trace(args, run_dir) if args.trace else measure(args, run_dir)


if __name__ == "__main__":
    sys.exit(main())
