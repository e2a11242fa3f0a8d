"""Command-line interface.

Subcommands cover the pipeline stages: ``align`` fits cross-lingual
embedding projections, ``train`` / ``predict`` handle the hierarchical
scaling model, ``ground`` / ``infer`` expose the soft-logic engine on
generic rule and atom files, ``calibrate`` adjusts document positions with
the shipped relational rules, and ``evaluate`` / ``report`` run and
summarize full experiments.

Atom files for ``ground`` and ``infer`` are whitespace-separated lines:

    obs <predicate> <arg> [<arg> ...] <value>
    target <predicate> <arg> [<arg> ...] [init=<value>]

with ``#`` starting a comment.  Exit codes: 0 on success, 2 for invalid
inputs or arguments, 3 when a pipeline stage fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAGE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyscale",
        description="Multilingual manifesto scaling with soft-logic calibration.",
    )
    parser.add_argument("--version", action="version", version=f"polyscale {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="fit an orthogonal projection between embedding tables")
    p.add_argument("--other", required=True, help="source-language embedding text file")
    p.add_argument("--english", required=True, help="target (English) embedding text file")
    p.add_argument("--lexicon", required=True, help="tab-separated translation pairs")
    p.add_argument("--output", required=True, help="projection file to write (.npz)")
    p.add_argument("--normalize", action="store_true", help="length-normalize pairs before the fit")
    p.add_argument("--center", action="store_true", help="center pairs before the fit")
    p.add_argument("--apply", metavar="PATH", help="also write the projected source table here")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("train", help="fit the hierarchical scaling model")
    p.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p.add_argument("--output", required=True, help="checkpoint file to write")
    p.add_argument("--config", help="JSON file of model settings, plus an optional tune block")
    p.add_argument("--embeddings", help="pretrained embedding table (language:word keys)")
    p.add_argument("--epochs", type=int, help="override the configured epoch count")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score documents with a trained model")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p.add_argument("--output", required=True, help="JSON predictions file to write")
    p.add_argument("--vectors", action="store_true", help="include document vectors")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ground", help="instantiate rules against an atom file")
    p.add_argument("--rules", required=True, help="rule program file")
    p.add_argument("--atoms", required=True, help="atom file (obs/target lines)")
    p.add_argument("--output", help="write the grounding here instead of stdout")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("infer", help="ground rules and run MAP inference")
    p.add_argument("--rules", required=True, help="rule program file")
    p.add_argument("--atoms", required=True, help="atom file (obs/target lines)")
    p.add_argument("--output", help="write atom values here instead of stdout")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("calibrate", help="adjust document scores with relational rules")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p.add_argument("--party-graph", required=True, help="coalition counts file")
    p.add_argument("--output", required=True, help="TSV of calibrated scores to write")
    p.add_argument("--context", help="TSV of manifesto_id<TAB>position for fixed context documents")
    p.add_argument("--rules", help="rule program overriding the built-in one")
    p.add_argument("--groups", help="comma-separated rule groups to keep (coal,esim,ploc,temp)")
    p.add_argument("--prior-weight", type=float, default=0.0,
                   help="squared pull toward each document's own estimate")
    p.add_argument("--recency-years", type=float, default=4.0,
                   help="window for treating two documents as contemporaneous")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="run a full experiment from a config file")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--out-dir", required=True, help="directory for CSVs and the manifest")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="summarize an experiment output directory")
    p.add_argument("--run-dir", required=True, help="directory written by evaluate")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write an ablation.gp plot script into the run dir")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"stage failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STAGE


def _cmd_align(args) -> int:
    import numpy as np

    from .embedalign import align, apply_projection, load_embeddings, load_lexicon, save_embeddings

    other = load_embeddings(args.other)
    english = load_embeddings(args.english)
    lexicon = load_lexicon(args.lexicon)
    projection = align(other, english, lexicon,
                       normalize=args.normalize, center=args.center)
    np.savez(
        args.output,
        matrix=projection.matrix,
        n_pairs_used=projection.n_pairs_used,
        n_pairs_dropped=projection.n_pairs_dropped,
    )
    if args.apply:
        save_embeddings(apply_projection(other, projection), args.apply)
    print(
        f"projection {projection.matrix.shape[0]}x{projection.matrix.shape[1]} "
        f"fit on {projection.n_pairs_used} pairs "
        f"({projection.n_pairs_dropped} dropped) -> {args.output}"
    )
    return EXIT_OK


def _load_model_config(path, epochs=None, seed=None):
    from .hiermodel import ModelConfig

    settings = {}
    tune = None
    if path:
        with open(path, encoding="utf-8") as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError("model config must be a JSON object")
        tune = settings.pop("tune", None)
    if epochs is not None:
        settings["epochs"] = epochs
    if seed is not None:
        settings["seed"] = seed
    return ModelConfig(**settings), tune


def _cmd_train(args) -> int:
    from .corpus import load_corpus
    from .hiermodel import save_checkpoint, train

    corpus = load_corpus(args.corpus)
    config, tune = _load_model_config(args.config, args.epochs, args.seed)
    embeddings = None
    if args.embeddings:
        from .embedalign import load_embeddings

        embeddings = load_embeddings(args.embeddings)
    if tune:
        import numpy as np

        from .evaluation import grid_tune

        docs = corpus.manifestos
        n_dev = max(2, round(len(docs) * float(tune.get("dev_fraction", 0.1))))
        if n_dev >= len(docs):
            raise ValueError("corpus too small to hold out a dev set for tuning")
        order = np.random.default_rng(config.seed).permutation(len(docs))
        dev = [docs[i] for i in order[:n_dev]]
        rest = [docs[i] for i in order[n_dev:]]
        config, trials = grid_tune(
            rest, dev, corpus.scheme, config,
            alphas=tune.get("alphas", ()),
            gammas=tune.get("gammas", ()),
            betas=tune.get("betas", ()),
            embeddings=embeddings,
        )
        print(f"tuned over {len(trials)} trials: alpha={config.alpha} "
              f"beta={config.beta} gamma={config.gamma}")
    params, logs = train(corpus, config, embeddings=embeddings)
    save_checkpoint(params, args.output)
    final = logs[-1].mean_loss if logs else float("nan")
    print(f"trained {config.epochs} epochs, final mean loss {final:.6f} -> {args.output}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    from .corpus import load_corpus
    from .hiermodel import load_checkpoint, predict

    params = load_checkpoint(args.model)
    corpus = load_corpus(args.corpus)
    records = []
    for pred in predict(params, corpus):
        record = {
            "manifesto_id": pred.manifesto_id,
            "rile": pred.rile_hat,
            "rile_scaled": round(pred.rile_hat * 100.0, 9),
            "codes": list(pred.codes),
            "polarities": [p.value for p in pred.polarities],
        }
        if args.vectors:
            record["doc_vector"] = [float(v) for v in pred.doc_vector]
        records.append(record)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"scored {len(records)} documents -> {args.output}")
    return EXIT_OK


def _load_atoms(path):
    from .pslengine import RelationalDatabase

    db = RelationalDatabase()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            where = f"{path}:{lineno}"
            if fields[0] == "obs":
                if len(fields) < 4:
                    raise ValueError(f"{where}: obs needs predicate, arguments, value")
                try:
                    value = float(fields[-1])
                except ValueError:
                    raise ValueError(f"{where}: bad value {fields[-1]!r}") from None
                db.observe(fields[1], fields[2:-1], value)
            elif fields[0] == "target":
                if len(fields) < 3:
                    raise ValueError(f"{where}: target needs predicate and arguments")
                atom_fields = fields[1:]
                initial = None
                if atom_fields[-1].startswith("init="):
                    try:
                        initial = float(atom_fields[-1][5:])
                    except ValueError:
                        raise ValueError(f"{where}: bad init {atom_fields[-1]!r}") from None
                    atom_fields = atom_fields[:-1]
                if len(atom_fields) < 2:
                    raise ValueError(f"{where}: target needs predicate and arguments")
                db.add_target(atom_fields[0], atom_fields[1:], initial)
            else:
                raise ValueError(f"{where}: lines must start with obs or target")
    return db


def _cmd_ground(args) -> int:
    from .pslengine import ground, load_program

    program = load_program(args.rules)
    db = _load_atoms(args.atoms)
    network = ground(program, db)
    lines = [
        f"# ground rules: {len(network.rules)}",
        f"# free atoms: {len(network.free_atoms)}",
    ]
    for rule in network.rules:
        body = " & ".join(str(lit) for lit in rule.body)
        lines.append(f"{rule.weight!r} ^{rule.exponent} : {body} -> {rule.head}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{len(network.rules)} ground rules over "
              f"{len(network.free_atoms)} free atoms -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_infer(args) -> int:
    from .pslengine import ground, load_program, map_inference

    program = load_program(args.rules)
    db = _load_atoms(args.atoms)
    network = ground(program, db)
    result = map_inference(network)
    values = network.values_by_atom(result.values)
    lines = [
        f"# energy: {result.energy!r}",
        f"# iterations: {result.iterations}",
        f"# converged: {result.converged}",
    ]
    for (predicate, atom_args), value in sorted(values.items()):
        lines.append(f"{predicate}({', '.join(atom_args)})\t{value!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{len(values)} atom values (energy {result.energy:.6g}) -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_context(path) -> dict:
    context = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected manifesto_id<TAB>position"
                )
            try:
                context[fields[0]] = float(fields[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad position {fields[1]!r}") from None
    return context


def _cmd_calibrate(args) -> int:
    from .calibration import (
        CalibrationConfig,
        PartyGraph,
        build_database,
        calibrate,
        default_program,
        program_for_groups,
    )
    from .corpus import load_corpus
    from .hiermodel import load_checkpoint, predict
    from .pslengine import load_program

    program = load_program(args.rules) if args.rules else default_program()
    if args.groups:
        groups = tuple(g.strip() for g in args.groups.split(",") if g.strip())
        program = program_for_groups(program, groups)
    corpus = load_corpus(args.corpus)
    graph = PartyGraph.from_file(args.party_graph)
    context = _load_context(args.context) if args.context else {}
    config = CalibrationConfig(
        recency_window_years=args.recency_years, prior_weight=args.prior_weight
    )
    params = load_checkpoint(args.model)
    test_docs = [m for m in corpus if m.id not in context]
    if not test_docs:
        raise ValueError("every corpus document is context; nothing to calibrate")
    preds = predict(params, test_docs)
    db = build_database(corpus, preds, graph, config, context)
    result = calibrate(db, program, config=config)
    lines = ["manifesto_id\tmodel_rile\tcalibrated_rile\tposition"]
    by_id = {p.manifesto_id: p for p in preds}
    for doc in test_docs:
        model_rile = round(by_id[doc.id].rile_hat * 100.0, 9)
        calibrated = round(result.rile[doc.id] * 100.0, 9)
        lines.append(
            f"{doc.id}\t{model_rile!r}\t{calibrated!r}\t{result.positions[doc.id]!r}"
        )
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"calibrated {len(test_docs)} documents "
        f"({len(result.network.rules)} ground rules, "
        f"energy {result.map_result.energy:.6g}) -> {args.output}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .evaluation import run_experiment

    result = run_experiment(args.config, args.out_dir, seed=args.seed)
    if result.sentence_f:
        avg = sum(f for f, _ in result.sentence_f.values()) / len(result.sentence_f)
        print(f"sentence micro-F (avg over languages): {avg:.4f}")
    for approach in ("model", "calibrated"):
        p, s = result.correlations[approach]
        print(f"{approach}: pearson {p:.4f}, spearman {s:.4f}")
    for label, s_rile, s_ches in result.ablation:
        rile = "n/a" if s_rile is None else f"{s_rile:.4f}"
        ches = "n/a" if s_ches is None else f"{s_ches:.4f}"
        print(f"ablation {label}: spearman_rile {rile}, spearman_ches {ches}")
    print(f"outputs written to {result.out_dir}")
    return EXIT_OK


GNUPLOT_TEMPLATE = """\
set datafile separator ","
set style data histogram
set style fill solid 0.8
set yrange [-1:1]
set ylabel "Spearman rho"
set title "Calibration rule-group ablation"
plot "calibration_ablation.csv" using 2:xtic(1) title "vs gold score", \\
     "" using 3 title "vs expert score"
"""


def _cmd_report(args) -> int:
    import csv as _csv

    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "run_manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no run manifest in {run_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    print(f"run over corpus {manifest['config']['corpus']}, seed {manifest['seed']}")
    for name in ("sentence_f.csv", "document_corr.csv", "calibration_ablation.csv"):
        path = run_dir / name
        if not path.exists():
            continue
        print(f"\n{name}")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(_csv.reader(fh))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for row in rows:
            print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if args.gnuplot:
        script = run_dir / "ablation.gp"
        script.write_text(GNUPLOT_TEMPLATE, encoding="utf-8")
        print(f"\nwrote {script}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
