"""Command-line harness: generate data, build graphs, train, evaluate, curve.

All randomness flows from one master seed through named streams
(seed_stream), so runs are reproducible byte-for-byte and adding a model
does not perturb another model's draws.  Exit codes: 0 success, 2 config
error, 3 runtime/divergence error.
"""

from __future__ import annotations

import argparse
import json
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
    if env is not None:
        return int(env)
    return 0


def _seeds(args):
    if args.seeds:
        return [int(s) for s in args.seeds.split(",")]
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


def _resolved_config(args, extra=None):
    cfg = {k: str(v) if isinstance(v, Path) else v
           for k, v in vars(args).items() if k != "func" and v is not None}
    cfg["master_seed"] = _master_seed(args)
    if extra:
        cfg.update(extra)
    return cfg


def _write_config(out_dir, cfg):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))


def _spec_for(name, seed, args):
    spec = md.default_spec(name, seed=seed)
    if getattr(args, "epochs", None):
        spec.epochs = args.epochs
    if getattr(args, "lr", None):
        spec.lr = args.lr
    return spec


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
    dataset = _load_dataset(args)
    model_names = [m.strip().lower() for m in args.model.split(",")]
    seeds = _seeds(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    features = _node_features(dataset)
    g = None
    if any(m in md.NODE_LEVEL for m in model_names):
        g = _build_graph(args, dataset, features)
    quality = gb.graph_quality(g).to_dict() if g is not None else None
    fingerprint = json.dumps(_resolved_config(args), sort_keys=True)
    aggregates = {}
    for name in model_names:
        reports = []
        for seed in seeds:
            spec = _spec_for(name, fg.seed_stream(seed, f"{name}-init"), args)
            masks = dg.split(dataset.labels,
                             dg.SplitSpec(args.train_size, args.val_size,
                                          seed=fg.seed_stream(seed, "split")))
            if name in md.NODE_LEVEL:
                model, _ = dg.train_node_level(name, g, masks, spec,
                                               n_classes=dataset.n_classes)
                pred = dg.predict_node_level(model, g)[masks["test"]]
            elif name == "stgcn":
                source = "test" if args.sensor_graph_from_test else "train"
                model, _, norm = dg.train_graph_level(dataset, masks, spec,
                                                      sensor_graph_source=source)
                xs = (dataset.samples - norm[0]) / norm[1]
                with ad.no_grad():
                    pred = model.forward(xs[masks["test"]]).data.argmax(axis=1)
            else:
                spec.architecture = name
                if name == "knn-classifier":
                    clf, _, xs = dg.train_baseline(dataset, masks, spec)
                    pred = clf.predict(xs[masks["test"]])
                else:
                    model, _, inputs = dg.train_baseline(dataset, masks, spec)
                    with ad.no_grad():
                        pred = model.forward(inputs[masks["test"]]).data.argmax(axis=1)
            rep = dg.evaluate_predictions(dataset.labels[masks["test"]], pred,
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


def cmd_evaluate(args):
    return cmd_train(args)


def cmd_curve(args):
    dataset = _load_dataset(args)
    features = _node_features(dataset)
    model_names = [m.strip().lower() for m in args.model.split(",")]
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes \
        else list(range(10, 101, 10))
    seeds = _seeds(args)
    specs = {}
    for name in model_names:
        specs[name] = _spec_for(name, 0, args)
    curve = dg.learning_curve(lambda: _build_graph(args, dataset, features),
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

def build_parser(config=None):
    """The argument parser; `config` (a --config file's contents) replaces
    the subcommand defaults, so flags given on the command line still win."""
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
                           help="KNN neighbor count (45/50/30 for the presets)")
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
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("curve", help="learning-curve experiment")
    common(p)
    p.add_argument("--sizes", help="comma-separated training sizes (default 10..100)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("report", help="print aggregate reports from an output dir")
    common(p, dataset=False, graphopts=False, trainopts=False)
    p.set_defaults(func=cmd_report)
    for p in sub.choices.values():
        p.set_defaults(**(config or {}))
    return parser


def _read_config(path, args):
    """The --config file as {dest: value}; every key must be an option of args."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    cfg = {key.replace("-", "_"): value for key, value in doc.items()}
    unknown = sorted(k for k in cfg if k not in vars(args) or k in ("command", "func", "config"))
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {unknown}")
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_read_config(args.config, args)).parse_args(argv)
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
