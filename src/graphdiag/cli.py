"""Command-line harness: generate data, build graphs, train, evaluate, curve.

All randomness flows from one master seed through named streams
(seed_stream), so runs are reproducible byte-for-byte and adding a model
does not perturb another model's draws.  Exit codes: 0 success, 2 config
error, 3 runtime/divergence error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import diagnose as dg
from . import faultgen as fg
from . import graph as gr
from . import graphbuild as gb
from . import models as md

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


def _master_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GRAPHDIAG_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"GRAPHDIAG_SEED must be an integer, got {env!r}") from None


def _int_list(text, option):
    """The distinct integers of a comma-separated option value."""
    try:
        values = [int(s) for s in str(text).split(",")]
    except ValueError:
        raise ConfigError(f"{option} must be comma-separated integers, got {text!r}") from None
    if len(set(values)) < len(values):
        raise ConfigError(f"{option} repeats a value: {text!r}")
    return values


def _seeds(args):
    if args.seeds:
        return _int_list(args.seeds, "--seeds")
    master = _master_seed(args)
    return [fg.seed_stream(master, f"run/{i}") % (2 ** 31) for i in range(5)]


def _load_dataset(args):
    if args.dataset:
        path = Path(args.dataset)
        if not path.exists():
            raise ConfigError(f"dataset path does not exist: {path}")
        return fg.load_dataset(path)
    if args.preset:
        return fg.generate_preset(args.preset, _master_seed(args))
    raise ConfigError("either --dataset or --preset is required")


def _node_features(dataset):
    if dataset.is_timeseries:
        return gb.extract_feature_matrix(dataset.samples)
    return dataset.samples


def _check_graph_options(args):
    """--k, --tau and the --partition file, checked before any data loads."""
    if not (isinstance(args.k, int) and args.k >= 1):
        raise ConfigError(f"--k must be a whole number of at least 1, got {args.k!r}")
    if not (isinstance(args.tau, (int, float)) and 0 < args.tau < 1):
        raise ConfigError(f"--tau must be a number strictly between 0 and 1, got {args.tau!r}")
    if args.partition and not Path(args.partition).is_file():
        raise ConfigError(f"--partition file not found: {args.partition}")


def _check_split_sizes(args):
    """--train-size and --val-size, checked before any data loads."""
    for option, value, least in (("--train-size", args.train_size, 1),
                                 ("--val-size", args.val_size, 0)):
        if not (isinstance(value, int) and value >= least):
            raise ConfigError(f"{option} must be a whole number of at least {least}, "
                              f"got {value!r}")


def _build_graph(args, dataset, features):
    method = args.graph
    if method == "knn":
        return gb.knn_graph(features, args.k, labels=dataset.labels)
    if method == "prior":
        if args.partition:
            assignment = np.loadtxt(args.partition, dtype=np.intp, ndmin=1)
            if len(assignment) != len(dataset.labels):
                raise ConfigError("partition length does not match dataset size")
        else:
            assignment = dataset.labels  # true classes as the supplied partition
        return gb.prior_partition_graph(assignment, features=features,
                                        labels=dataset.labels)
    if method == "knn-gae":
        base = gb.knn_graph(features, args.k, labels=dataset.labels)
        spec = md.default_spec("gae", seed=fg.seed_stream(_master_seed(args), "gae"))
        return gb.gae_refine_graph(features, base, tau=args.tau, spec=spec)
    raise ConfigError(f"unknown graph method {args.graph!r}")


def _resolved_config(args):
    cfg = {k: str(v) if isinstance(v, Path) else v
           for k, v in vars(args).items() if k != "func" and v is not None}
    cfg["master_seed"] = _master_seed(args)
    return cfg


def _write_config(out_dir, cfg):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))


def _model_specs(args):
    """{name: spec with --epochs and --lr} for the --model list, checked before
    any data loads; each name is a classifier (any method but a graph builder), once."""
    names = [m.strip().lower() for m in args.model.split(",")]
    known = [name for name, method in md.METHODS.items() if method.trains_on != md.BUILDER]
    bad = [m for i, m in enumerate(names) if m not in known or m in names[:i]]
    if bad:
        raise ConfigError(f"unknown model or model given twice: {', '.join(bad)}; "
                          f"known: {', '.join(known)}")
    epochs, lr = args.epochs, args.lr
    if epochs is not None and not (isinstance(epochs, int) and epochs >= 1):
        raise ConfigError(f"--epochs must be a whole number of at least 1, got {epochs!r}")
    if lr is not None and not (isinstance(lr, (int, float)) and math.isfinite(lr) and lr > 0):
        raise ConfigError(f"--lr must be a finite number above 0, got {lr!r}")
    overrides = {k: v for k, v in (("epochs", epochs), ("lr", lr)) if v is not None}
    return {name: md.default_spec(name, **overrides) for name in names}


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args):
    ds = fg.generate_preset(args.preset, _master_seed(args))
    out = Path(args.out)
    fg.save_dataset(ds, out)
    print(f"wrote {len(ds.labels)} samples, {ds.n_classes} classes to {out}")
    print(json.dumps({"shape": ds.manifest["shape"],
                      "classes": ds.class_names}, sort_keys=True))
    return EXIT_OK


def cmd_build_graph(args):
    _check_graph_options(args)
    dataset = _load_dataset(args)
    features = _node_features(dataset)
    g = _build_graph(args, dataset, features)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gr.write_edge_list(out / "graph.edges", g)
    quality = gb.graph_quality(g).to_dict()
    (out / "quality.json").write_text(json.dumps(quality, indent=2, sort_keys=True))
    _write_config(out, _resolved_config(args))
    print(json.dumps(quality, sort_keys=True))
    return EXIT_OK


def cmd_train(args):
    specs = _model_specs(args)
    _check_graph_options(args)
    _check_split_sizes(args)
    seeds = _seeds(args)
    dataset = _load_dataset(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g = (_build_graph(args, dataset, _node_features(dataset))
         if any(md.METHODS[m].trains_on == md.GRAPH for m in specs) else None)
    quality = gb.graph_quality(g).to_dict() if g is not None else None
    fingerprint = json.dumps(_resolved_config(args), sort_keys=True)
    source = "test" if args.sensor_graph_from_test else "train"
    aggregates = {}
    for name, spec in specs.items():
        reports = []
        for seed in seeds:
            masks, scores = dg.run_seed(name, dataset, g, args.train_size, args.val_size, seed,
                                        spec, n_classes=dataset.n_classes,
                                        sensor_graph_source=source)
            rep = dg.evaluate_predictions(dataset.labels[masks["test"]], scores.argmax(axis=1),
                                          dataset.n_classes, graph_quality=quality,
                                          fingerprint=fingerprint, seeds=[seed])
            rep.write(out / f"report_{name}_seed{seed}.json")
            reports.append(rep)
        agg = dg.aggregate_reports(reports, fingerprint=fingerprint)
        agg.write(out / f"report_{name}_aggregate.json")
        aggregates[name] = {"accuracy": agg.accuracy, "std": agg.std}
        print(f"{name}: accuracy {agg.accuracy:.4f} +- {agg.std:.4f}")
    _write_config(out, _resolved_config(args))
    (out / "summary.json").write_text(json.dumps(aggregates, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_curve(args):
    specs = _model_specs(args)
    if args.sensor_graph_from_test:
        raise ConfigError("curve builds each STGCN sensor graph from its train split; "
                          "--sensor-graph-from-test applies to train only")
    _check_graph_options(args)
    _check_split_sizes(args)
    sizes = _int_list(args.sizes, "--sizes") if args.sizes else list(range(10, 101, 10))
    if sizes[0] < 1 or sizes != sorted(sizes):
        raise ConfigError(f"--sizes must be ascending whole numbers of at least 1, "
                          f"got {args.sizes!r}")
    seeds = _seeds(args)
    dataset = _load_dataset(args)
    curve = dg.learning_curve(lambda: _build_graph(args, dataset, _node_features(dataset)),
                              dataset, specs, sizes, seeds, n_val=args.val_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv = dg.learning_curve_csv(curve)
    (out / "learning_curve.csv").write_text(csv)
    _write_config(out, _resolved_config(args))
    print(csv, end="")
    return EXIT_OK


def cmd_report(args):
    out = Path(args.out)
    summaries = sorted(out.glob("report_*_aggregate.json"))
    if not summaries:
        raise ConfigError(f"no aggregate reports under {out}")
    for path in summaries:
        doc = json.loads(path.read_text())
        print(f"{path.name}: accuracy {doc['accuracy']:.4f} +- {doc['std']:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphdiag",
        description="Graph-neural-network fault diagnosis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=True, graphopts=True, trainopts=True):
        p.add_argument("--config", type=Path, help="JSON config file; flags override")
        p.add_argument("--seed", type=int, help="master seed (or GRAPHDIAG_SEED)")
        p.add_argument("--out", default="out", help="output directory")
        if dataset:
            p.add_argument("--dataset", help="dataset directory path")
            p.add_argument("--preset", choices=sorted(fg.PRESETS),
                           help="synthetic dataset preset")
        if graphopts:
            p.add_argument("--graph", default="knn",
                           choices=["knn", "prior", "knn-gae"])
            p.add_argument("--k", type=int, default=45,
                           help="KNN neighbor count (the reference protocol uses 45, "
                                "50 and 30 on rectifier-, motor- and tep-like)")
            p.add_argument("--tau", type=float, default=0.9,
                           help="GAE edge-acceptance threshold")
            p.add_argument("--partition", help="cluster-id file for --graph prior")
        if trainopts:
            p.add_argument("--model", default="gcn",
                           help="comma-separated model list")
            p.add_argument("--train-size", dest="train_size", type=int, default=50)
            p.add_argument("--val-size", dest="val_size", type=int, default=30)
            p.add_argument("--seeds", help="comma-separated seed list")
            p.add_argument("--epochs", type=int, help="override default epochs")
            p.add_argument("--lr", type=float, help="override default learning rate")
            p.add_argument("--sensor-graph-from-test", action="store_true",
                           help="build the STGCN sensor graph from the test split")

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    common(p, graphopts=False, trainopts=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build-graph", help="build and score an association graph")
    common(p, trainopts=False)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train and evaluate models")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="alias of train (train + test report)")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("curve", help="learning-curve experiment")
    common(p)
    p.add_argument("--sizes", help="comma-separated training sizes (default 10..100)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("report", help="print aggregate reports from an output dir")
    common(p, dataset=False, graphopts=False, trainopts=False)
    p.set_defaults(func=cmd_report)
    return parser


def _config_argv(path, args):
    """The --config file as command-line text, so argparse checks each value
    as it checks a flag; every key must be an option of args, and null leaves
    the option unset."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    cfg = {key.replace("-", "_"): value for key, value in doc.items()}
    unknown = sorted(k for k in cfg if k not in vars(args) or k in ("command", "func", "config"))
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {unknown}")
    argv = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):        # a store_true flag
            if not isinstance(value, bool):
                raise ConfigError(f"config file {path}: {key} must be true or false, "
                                  f"got {json.dumps(value)}")
            if value:
                argv.append(flag)
        elif value is not None:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ConfigError(f"config file {path}: {key} must be a string or a number, "
                                  f"got {json.dumps(value)}")
            argv.append(f"{flag}={value}")
    return argv


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # the file's options come first, so flags on the command line win
            args = build_parser().parse_args(argv[:1] + _config_argv(args.config, args)
                                             + argv[1:])
        if args.command == "generate" and not getattr(args, "preset", None):
            raise ConfigError("generate requires --preset")
        return args.func(args)
    # ShapeError is a ValueError, but one raised inside an op is a fault of
    # the run, not of the configuration, so it is caught first
    except (ad.ShapeError, dg.DivergenceError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
