"""Digests of everything a benchmark workload computes, to show that two
checkouts give the same bits.

    python tests/output_digest.py --workload fit|evaluate --seed N

Builds the inputs of the named workload of ``bench/workloads.py`` from the
seed, runs one of its operations with the ``polyscale`` package of this
checkout, and prints one ``name: value`` line per result:

* ``fit``: the last epoch's loss, a digest of every ``EpochLog`` (mean
  loss, components, mean gradient norm and clip count), a digest of the
  predictions (scores, codes and document vectors) on the test and training
  splits, and a digest of every parameter's bytes;
* ``evaluate``: the output hashes of ``run_experiment``, a digest of the
  calibration database, then for the grounded network a digest of its six
  energy arrays, free atoms and ground rules plus its ``RuleStats``, and
  for each MAP solve the row count and a digest of the six arrays of the
  merged rows it solves on, then its values' digest, energy, iterations and
  levels.

Run it in two checkouts and ``diff`` the outputs.  Not collected by pytest
(the name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "POLYSCALE_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def predictions_digest(preds) -> str:
    return digest(*((p.manifesto_id, p.rile_hat, p.codes, p.doc_vector.tobytes())
                    for p in preds))


def run_fit(workloads, seed: int, work_dir: Path) -> list[tuple[str, str]]:
    from polyscale import hiermodel

    state = workloads.Fit(smoke=False).setup(seed, work_dir)
    params, logs = hiermodel.train(state["fit"], state["config"])
    return [
        ("final_loss", repr(logs[-1].mean_loss)),
        ("epoch_logs", digest(*((log.epoch, log.mean_loss, sorted(log.components.items()),
                                 log.grad_norm, log.clipped) for log in logs))),
        ("predictions.test", predictions_digest(hiermodel.predict(params, state["test"]))),
        ("predictions.train", predictions_digest(hiermodel.predict(params, state["fit"]))),
        ("parameters", digest(params.store.values.tobytes())),
    ]


def run_evaluate(workloads, seed: int, work_dir: Path) -> list[tuple[str, str]]:
    from polyscale import calibration, evaluation

    lines: list[tuple[str, str]] = []
    build_database, ground, map_inference = (
        evaluation.build_database, calibration.ground, calibration.map_inference)

    def recording_build_database(*args, **kwargs):
        db = build_database(*args, **kwargs)
        lines.append(("database", digest(sorted(db.observations.items()),
                                         list(db.targets.items()))))
        return db

    def arrays_digest(c):
        return digest(*(a.tobytes() for a in (
            c.consts, c.weights, c.rhos, c.entry_rule, c.entry_free, c.entry_coef)))

    def recording_ground(program, db):
        network = ground(program, db)
        lines.append(("ground.arrays", arrays_digest(network.compiled)))
        lines.append(("ground.atoms", digest(network.free_atoms, network.initial.tobytes())))
        lines.append(("ground.rules", digest(*(str(r) for r in network.rules))))
        for k, stats in enumerate(network.stats):
            lines.append((f"ground.stats.rule{k}", repr(stats)))
        return network

    def recording_map_inference(network, config=None):
        result = map_inference(network, config)
        k = sum(name.startswith("map") and name.endswith(".values") for name, _ in lines)
        merged = network.compiled.merged()
        lines.append((f"map{k}.merged", f"{len(merged.consts)} rows {arrays_digest(merged)}"))
        lines.append((f"map{k}.values", digest(result.values.tobytes())))
        lines.append((f"map{k}.energy", repr(result.energy)))
        lines.append((f"map{k}.iterations", f"{result.iterations} converged={result.converged}"))
        lines.append((f"map{k}.levels", repr(tuple(tuple(level) for level in result.levels))))
        return result

    state = workloads.Evaluate(smoke=False).setup(seed, work_dir)
    evaluation.build_database = recording_build_database
    calibration.ground = recording_ground
    calibration.map_inference = recording_map_inference
    try:
        result = evaluation.run_experiment(state["config"], work_dir / "out")
    finally:
        evaluation.build_database = build_database
        calibration.ground = ground
        calibration.map_inference = map_inference
    outputs = [(f"outputs.{name}", value)
               for name, value in sorted(result.manifest["outputs"].items())]
    return outputs + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    run = run_fit if args.workload == "fit" else run_evaluate
    with tempfile.TemporaryDirectory() as tmp:
        for name, value in run(workloads, args.seed, Path(tmp)):
            print(f"{name}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
