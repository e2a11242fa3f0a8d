"""polyscale benchmark: one workload in one process with one caller.

    python3 bench/run.py --workload fit|evaluate|rolling --seed N \
        --seconds S --trace 0|1

Set-up builds the inputs from the seed several times, and again after every
operation where it is short, and reports the median as ``setup_s``.  The
timed phase repeats the workload's operation until ``--seconds`` of
operations have passed.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` every
operation runs with per-document spans on and the line holds the per-layer
metrics instead.  Either way the outputs are checked (quality
floors, output files, run-to-run determinism, per-rule grounding totals)
and ``correct`` says whether every check passed.  Records and spans are
written under ``.bench_work/`` in the checkout.  See bench/README.md.
"""

import os

# Pin every thread pool before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "POLYSCALE_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Calls that count as operations for failed_share on fit and evaluate.
ATTEMPTS = ("hiermodel.train", "hiermodel.predict", "calibration.calibrate")
LAYERS = ("hiermodel", "diffcore", "pslengine", "calibration", "evaluation", "corpus")


@dataclass
class Op:
    index: int
    start: float
    end: float
    outcome: object  # workloads.Outcome, or None when the operation raised
    error: str | None
    ref: float = 0.0  # reference seconds, less the probes' own time

    @property
    def wall(self) -> float:
        return self.end - self.start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "evaluate", "rolling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no quality floors (self-test only)")
    return parser.parse_args(argv)


def import_polyscale():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "polyscale" / "__init__.py").is_file():
        raise SystemExit(f"bench: no polyscale sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyscale

    if Path(polyscale.__file__).resolve().parent != (SRC / "polyscale").resolve():
        raise SystemExit(f"bench: imported polyscale from {polyscale.__file__}, "
                         f"not from {SRC}")


def source_digest() -> str:
    """Hash of the program and benchmark sources: names the code under test."""
    h = hashlib.sha256()
    files = sorted((SRC / "polyscale").rglob("*")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, inputs: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "inputs_digest": inputs,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "polyscale_threads": os.environ["POLYSCALE_THREADS"],
        "git_commit": git_commit(), "source_digest": source_digest(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_phase(workload, state, tracer, seconds: float, traced: bool,
                seed: int, work_dir: Path, setup_times: list) -> list:
    """Repeat the operation while the next one is expected to end less than
    half an operation past ``seconds``, so the phase lasts ``seconds`` give
    or take half an operation.  With ``traced`` every operation records
    per-document spans.  Workloads with a short set-up repeat it, untimed by
    the phase, after every operation, so ``setup_s`` samples the whole run
    and not only its first second."""
    ops = []
    spent = 0.0  # seconds of the phase taken by operations
    while len(ops) < workload.min_ops(state) or (
        spent + statistics.median(op.wall for op in ops) / 2 < seconds
    ):
        i = len(ops)
        tracer.begin_op(i, traced)
        t0 = time.perf_counter()
        try:
            outcome, error = workload.run_op(i, state, tracer), None
        except Exception:
            outcome, error = None, traceback.format_exc()
        ops.append(Op(i, t0, time.perf_counter(), outcome, error))
        spent += ops[-1].wall
        if workload.setup_between_ops:
            tracer.begin_op(-1, False)
            setup_times.append(time_setup(workload, seed, work_dir / "resetup")[0])
    tracer.begin_op(-2, False)
    return ops


def time_setup(workload, seed: int, work_dir: Path) -> tuple[tuple, dict]:
    """Run set-up once; return its (start, end) and the state it built."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    state = workload.setup(seed, work_dir)
    return (t0, time.perf_counter()), state


def count_failures(workload, ops, tracer) -> tuple[int, int]:
    attempted = failed = 0
    for op in ops:
        spans = tracer.op_spans(op.index)
        if workload.counts_calls:
            calls = [s for s in spans if s.name in ATTEMPTS]
            bad = sum(not s.info.get("ok", False) for s in calls)
            attempted += len(calls)
            failed += bad
            if op.error and not bad:  # raised outside any counted call
                attempted += 1
                failed += 1
        else:
            attempted += 1
            failed += bool(op.error or any(not s.info.get("ok", False) for s in spans))
    return attempted, failed


def op_fingerprint(op, tracer, traced: bool) -> dict:
    spans = tracer.op_spans(op.index)
    counts = defaultdict(list)
    for s in spans:
        counts[s.name].append(s.info)
    fp = dict(op.outcome.fingerprint)
    fp["train_tokens"] = sum(i["tokens"] for i in counts["hiermodel.train"])
    fp["predict_tokens"] = sum(i["tokens"] for i in counts["hiermodel.predict"])
    fp["ground_rows"] = [i["rows"] for i in counts["pslengine.ground"]]
    fp["map_iterations"] = [i["iterations"] for i in counts["pslengine.map_inference"]]
    if traced:
        fp["tape_nodes"] = sum(i["tape_nodes"] for i in counts["hiermodel.document_loss"])
        fp["adam_steps"] = len(counts["diffcore.Adam.step"])
    return fp


def compare(expected: dict, got: dict, where: str) -> list:
    return [
        f"determinism: {where} {key} changed from {expected[key]!r} to {got[key]!r}"
        for key in sorted(set(expected) & set(got)) if expected[key] != got[key]
    ]


def check_determinism(args, ops, tracer, rule_rows) -> list:
    """Every count and output hash must repeat across operations of this run
    and across runs of the same code with the same seed."""
    problems = []
    seen: dict = {}
    for op in ops:
        if op.outcome is None:
            continue
        fp = op_fingerprint(op, tracer, bool(args.trace))
        key = op.outcome.key
        if key in seen:
            problems += compare(seen[key], fp, f"op {op.index} ({key})")
            seen[key].update(fp)
        else:
            seen[key] = fp
    if rule_rows is not None and ops[0].outcome is not None:
        seen[ops[0].outcome.key]["rule_rows"] = rule_rows
    store = WORK / "fingerprints" / (
        f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        f"-{source_digest()}.json"
    )
    recorded = json.loads(store.read_text()) if store.is_file() else {}
    for key, fp in seen.items():
        if key in recorded:
            problems += compare(recorded[key], fp, f"earlier run ({key})")
            recorded[key].update(fp)
        else:
            recorded[key] = fp
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    return problems


def per_rule_rows(tracer) -> tuple[list, list]:
    """Ground each rule of the last program calibrated in operation 0 alone
    on the same database; the rows must add up to the full program's."""
    from polyscale import pslengine

    grounded = tracer.last.get("grounded")
    if grounded is None:
        return [], []
    db, program, total = grounded
    rows = [len(pslengine.ground(program.subset([k]), db).rules)
            for k in range(len(program.rules))]
    if sum(rows) != total:
        return rows, [f"per-rule rows sum to {sum(rows)}, full program gave {total}"]
    return rows, []


def tail(walls: list) -> dict | None:
    """Highest of a fixed ladder of percentiles above the median with at
    least ten samples beyond it, or None below twenty-five samples."""
    import numpy

    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 60.0):
        if len(walls) * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "value": float(numpy.percentile(walls, p)),
                    "samples": len(walls)}
    return None


def end_to_end(ops, tracer, probe, setup_ref, attempted, failed) -> dict:
    refs = [op.ref for op in ops]
    by_name = defaultdict(list)
    for s in tracer.spans:  # set-up included: rolling trains only there
        by_name[s.name].append(s)

    def rate(name):  # all tokens over all time, so short calls weigh little
        spans = [s for s in by_name[name] if s.info["ok"]]
        seconds = sum(probe.ref_seconds(s.start, s.end, s.excluded) for s in spans)
        return sum(s.info["tokens"] for s in spans) / seconds if seconds else 0.0

    return {
        "setup_s": statistics.median(setup_ref),
        "op_p50_s": statistics.median(refs),
        "ops_per_s": len(refs) / sum(refs),
        "train_tokens_per_s": rate("hiermodel.train"),
        "predict_tokens_per_s": rate("hiermodel.predict"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_share": 1.0 - failed / attempted,
    }


def untraced_p50(args) -> float | None:
    """Median operation time of the untraced run with the same workload and
    seed, or failing that of the latest untraced run of the workload, on
    the same sources.  None when this checkout has no such run yet."""
    digest = source_digest()
    records = []
    for path in (WORK / "records").glob(f"{args.workload}-seed*-trace0.json"):
        record = json.loads(path.read_text())
        env = record["environment"]
        if (env["source_digest"] == digest and env["smoke"] == args.smoke
                and record["op_ref_s"]):
            same_seed = env["seed"] == args.seed
            records.append((same_seed, path.stat().st_mtime, record))
    if not records:
        return None
    return statistics.median(max(records, key=lambda r: r[:2])[2]["op_ref_s"])


def per_layer(args, ops, tracer, probe, rule_rows) -> dict:
    """Per-operation figures from the spans of the timed phase.  Times are
    in reference seconds, each span scaled by the host speed around it."""
    n = len(ops)
    total = sum(op.ref for op in ops)
    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    factor = {}
    for s in tracer.spans:
        if s.op >= 0:
            by_name[s.name].append(s)
            factor[id(s)] = probe.factor(s.start, s.end)
            self_by_layer[s.layer] += s.self_time * factor[id(s)]

    def dur(name):
        return sum(s.duration * factor[id(s)] for s in by_name[name])

    def self_time(name):
        return sum(s.self_time * factor[id(s)] for s in by_name[name])

    def info(name, key):
        return sum(s.info[key] for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    train_tokens = info("hiermodel.document_loss", "tokens")
    predict_tokens = info("hiermodel.predict", "tokens")
    forward = self_time("hiermodel.document_loss")
    ground_calls = len(by_name["pslengine.ground"])
    map_calls = len(by_name["pslengine.map_inference"])
    quality = defaultdict(list)
    for op in ops:
        if op.outcome is not None:
            for key, value in op.outcome.quality.items():
                quality[key].append(value)
    untraced = untraced_p50(args)
    if untraced is None:
        print("bench: no untraced run of this workload yet, so trace.overhead_s "
              "is reported as 0", file=sys.stderr)
    metrics = {
        "hiermodel.forward_s": forward / n,
        "hiermodel.forward_us_per_token": 1e6 * ratio(forward, train_tokens),
        "hiermodel.predict_s": dur("hiermodel.predict") / n,
        "hiermodel.predict_us_per_token": 1e6 * ratio(dur("hiermodel.predict"),
                                                      predict_tokens),
        "hiermodel.vocab_build_s": dur("hiermodel.Vocabulary.build") / n,
        "hiermodel.train_tokens": train_tokens / n,
        "hiermodel.predict_tokens": predict_tokens / n,
        "hiermodel.doc_pearson": statistics.median(quality["doc_pearson"] or [0.0]),
        "diffcore.backward_s": dur("diffcore.backward") / n,
        "diffcore.backward_us_per_token": 1e6 * ratio(dur("diffcore.backward"),
                                                      train_tokens),
        "diffcore.adam_s": dur("diffcore.Adam.step") / n,
        "diffcore.adam_steps": len(by_name["diffcore.Adam.step"]) / n,
        "diffcore.tape_nodes_per_token": ratio(
            info("hiermodel.document_loss", "tape_nodes"), train_tokens),
        "pslengine.ground_s": dur("pslengine.ground") / n,
        "pslengine.ground_calls": ground_calls / n,
        "pslengine.ground_rows": info("pslengine.ground", "rows") / n,
        "pslengine.ground_rows_per_s": ratio(info("pslengine.ground", "rows"),
                                             dur("pslengine.ground")),
        "pslengine.free_atoms": ratio(info("pslengine.ground", "free_atoms"),
                                      ground_calls),
        "pslengine.map_s": dur("pslengine.map_inference") / n,
        "pslengine.map_iterations": info("pslengine.map_inference", "iterations") / n,
        "pslengine.map_converged_ratio": ratio(
            info("pslengine.map_inference", "converged"), map_calls),
        "calibration.build_database_s": dur("calibration.build_database") / n,
        "calibration.db_atoms": ratio(info("calibration.build_database", "atoms"),
                                      len(by_name["calibration.build_database"])),
        "calibration.calibrate_self_s": self_time("calibration.calibrate") / n,
        "calibration.stacked_s": dur("calibration.stacked_estimates") / n,
        "calibration.spearman_gain": statistics.median(
            quality["calib_spearman_gain"] or [0.0]),
        "evaluation.self_s": self_time("evaluation.run_experiment") / n,
        "corpus.load_s": dur("corpus.load_corpus") / n,
        "trace.overhead_s": (statistics.median(op.ref for op in ops) - untraced
                             if untraced is not None else 0.0),
        "trace.spans_per_op": sum(len(v) for v in by_name.values()) / n,
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = self_by_layer[layer] / total
    for k in range(14):  # the shipped program's rules, as BENCHMARK.json names them
        metrics[f"pslengine.ground_rows.rule{k}"] = (
            rule_rows[k] if k < len(rule_rows) else 0)
    return metrics


def check_floors(workload, ops, smoke: bool) -> list:
    if smoke:
        return []
    floors = json.loads((BENCH_DIR / "baseline.json").read_text())["floors"]
    problems = []
    for op in ops:
        if op.outcome is None:
            continue
        for key, floor in floors[workload.name].items():
            value = op.outcome.quality.get(key)
            if value is not None and not value >= floor:
                problems.append(f"op {op.index}: {key} {value:.4f} below floor {floor}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_polyscale()
    from hostspeed import HostProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload](args.smoke)
    work_dir = WORK / f"run-{os.getpid()}"
    tracer = Tracer()
    probe = HostProbe(tracer)
    tracer.install()
    try:
        setup_times = []
        probe.start()
        for _ in range(workload.setup_repeats):
            interval, state = time_setup(workload, args.seed, work_dir / "setup")
            setup_times.append(interval)
        env = environment(args, state["inputs"])
        print("bench environment: " + json.dumps(env), file=sys.stderr)
        ops = timed_phase(workload, state, tracer, args.seconds, bool(args.trace),
                          args.seed, work_dir, setup_times)
        rule_rows, problems = per_rule_rows(tracer) if args.trace else ([], [])
    finally:
        probe.stop()
        tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    for op in ops:
        op.ref = probe.ref_seconds(op.start, op.end, probe.inside(op.start, op.end))
    setup_ref = [probe.ref_seconds(a, b, probe.inside(a, b)) for a, b in setup_times]

    attempted, failed = count_failures(workload, ops, tracer)
    for op in ops:
        if op.error:
            print(f"bench: op {op.index} failed:\n{op.error}", file=sys.stderr)
        elif op.outcome.problems:
            problems += [f"op {op.index}: {p}" for p in op.outcome.problems]
    problems += [f"op {s.op}: MAP ended above its starting energy"
                 for s in tracer.spans if s.info.get("energy_ok") is False]
    if all(op.outcome is None for op in ops):
        problems.append("no operation completed, so no output could be checked")
    problems += check_floors(workload, ops, args.smoke)
    problems += check_determinism(args, ops, tracer, rule_rows if args.trace else None)
    if args.trace:
        values = per_layer(args, ops, tracer, probe, rule_rows)
    else:
        values = end_to_end(ops, tracer, probe, setup_ref, attempted, failed)
    values["host.probe_ms"] = probe.median_ms()
    values["host.op_wall_p50_s"] = statistics.median(op.wall for op in ops)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    refs = [op.ref for op in ops]
    op_tail = tail(refs)
    print(f"bench: {args.workload} seed {args.seed}: {len(ops)} ops, "
          f"set-up run {len(setup_times)} times, probe median "
          f"{values['host.probe_ms']:.3f} ms, tail "
          + (f"p{op_tail['percentile']:g} {op_tail['value']:.4f} s" if op_tail
             else "not measured: fewer than 25 ops"), file=sys.stderr)
    record = {"environment": env, "setup_ref_s": setup_ref,
              "setup_wall_s": [b - a for a, b in setup_times],
              "op_ref_s": refs, "op_walls": [op.wall for op in ops],
              "probe_s": [e - s for s, e in zip(probe.starts, probe.ends)],
              "op_tail": op_tail,
              "quality": [op.outcome.quality for op in ops if op.outcome],
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": values}
    if args.trace:
        record["spans"] = [s.to_json() for s in tracer.spans]
    out = WORK / "records" / (f"{args.workload}-seed{args.seed}"
                              f"{'-smoke' if args.smoke else ''}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))

    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise SystemExit(f"bench: metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
