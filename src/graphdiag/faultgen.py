"""Synthetic multivariate process simulator with fault injection.

A first-order vector autoregression driven by per-channel sinusoids and
white noise stands in for the unavailable benchmark rigs.  Faults are
injected additively: a step offset, a ramp proportional to time, or extra
random variation, each scaled in units of the channel's nominal standard
deviation.  The samples of one class are simulated as one batch, each from
its own seeded stream, with the bytes of one-at-a-time simulation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .graphbuild import extract_feature_matrix

FAULT_KINDS = ("step", "slow_drift", "random_variation")


def seed_stream(master, name):
    """Derive an independent integer seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class ProcessSpec:
    channels: int = 6
    horizon: int = 256
    coupling: list = None          # C x C, spectral radius < 1
    drive_amplitudes: list = None  # per channel
    drive_frequencies: list = None  # cycles per horizon, per channel
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        c = self.channels
        if self.coupling is None:
            base = 0.3 * np.eye(c) + 0.1 * np.diag(np.ones(c - 1), 1)
            self.coupling = base.tolist()
        if self.drive_amplitudes is None:
            self.drive_amplitudes = [1.0 + 0.1 * i for i in range(c)]
        if self.drive_frequencies is None:
            self.drive_frequencies = [2.0 + i for i in range(c)]
        a = np.asarray(self.coupling)
        radius = np.abs(np.linalg.eigvals(a)).max()
        if radius >= 1.0:
            raise ValueError(f"unstable coupling matrix: spectral radius {radius:.3f} >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


@dataclass
class FaultSpec:
    kind: str
    magnitude: float
    onset: float = 0.25
    channels: tuple = (0,)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if not 0.0 <= self.onset < 1.0:
            raise ValueError(f"onset {self.onset} outside [0, 1)")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be > 0")
        if len(self.channels) == 0:
            raise ValueError("affected channel set is empty")


BURN_IN_FRACTION = 4 / 16  # of the horizon, discarded before the kept window


def simulate_nominal_batch(spec, seeds):
    """(B, T, C) fault-free samples, one per seed; sample i depends on (spec, seeds[i]) only.

    Each sample draws its drive phases and then its noise from its own
    default_rng(seed) stream.  The recurrence x_t = A x_{t-1} + drive_t +
    noise_t steps the whole batch at once: matmul over a trailing unit axis
    runs one matrix-vector product per sample, so every value has the bytes
    of the one-sample `A @ x`.  (A (B, C) @ A.T GEMM rounds otherwise.)
    """
    t_total = spec.horizon + int(BURN_IN_FRACTION * spec.horizon)
    c = spec.channels
    a = np.asarray(spec.coupling)
    amp = np.asarray(spec.drive_amplitudes)
    freq = np.asarray(spec.drive_frequencies)
    tt = np.arange(t_total)[:, None]
    drive = np.empty((len(seeds), t_total, c))
    noise = np.zeros((len(seeds), t_total, c))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0, 2 * np.pi, size=c)
        drive[i] = amp * np.sin(2 * np.pi * freq * tt / spec.horizon + phase)
        if spec.noise_std > 0:
            noise[i] = rng.normal(0.0, spec.noise_std, size=(t_total, c))
    x = np.empty((len(seeds), t_total, c))
    prev = np.zeros((len(seeds), c))
    for t in range(t_total):
        prev = np.matmul(a, prev[:, :, None])[:, :, 0] + drive[:, t] + noise[:, t]
        x[:, t] = prev
    return x[:, t_total - spec.horizon:]


def simulate_nominal(spec, seed):
    """One (T, C) fault-free sample; deterministic per (spec, seed)."""
    return simulate_nominal_batch(spec, [seed])[0]


def nominal_channel_std(spec):
    """Per-channel std of a long nominal run, used to scale fault magnitudes."""
    long_spec = ProcessSpec(channels=spec.channels, horizon=4096,
                            coupling=spec.coupling,
                            drive_amplitudes=spec.drive_amplitudes,
                            drive_frequencies=[f * 4096 / spec.horizon
                                               for f in spec.drive_frequencies],
                            noise_std=spec.noise_std, seed=spec.seed)
    ref = simulate_nominal(long_spec, seed_stream(spec.seed, "channel-std"))
    return ref.std(axis=0)


def inject_step(sample, fspec, channel_std):
    """Add magnitude*std to the affected channels from the onset on."""
    x = np.array(sample, dtype=np.float64, copy=True)
    start = int(fspec.onset * len(x))
    for ch in fspec.channels:
        x[start:, ch] += fspec.magnitude * channel_std[ch]
    return x


def inject_drift(sample, fspec, channel_std):
    """Add a ramp: 0 at onset, magnitude*std at the final step."""
    x = np.array(sample, dtype=np.float64, copy=True)
    t = len(x)
    start = int(fspec.onset * t)
    span = max(t - 1 - start, 1)
    ramp = np.clip((np.arange(t) - start) / span, 0.0, None)
    for ch in fspec.channels:
        x[:, ch] += fspec.magnitude * channel_std[ch] * ramp
    return x


def inject_random_variation(sample, fspec, channel_std, seed):
    """Add zero-mean noise of std magnitude*std after the onset; seeded."""
    rng = np.random.default_rng(seed)
    x = np.array(sample, dtype=np.float64, copy=True)
    start = int(fspec.onset * len(x))
    for ch in fspec.channels:
        x[start:, ch] += rng.normal(0.0, fspec.magnitude * channel_std[ch],
                                    size=len(x) - start)
    return x


def inject(sample, fspec, channel_std, seed):
    if fspec.kind == "step":
        return inject_step(sample, fspec, channel_std)
    if fspec.kind == "slow_drift":
        return inject_drift(sample, fspec, channel_std)
    return inject_random_variation(sample, fspec, channel_std, seed)


@dataclass
class Dataset:
    samples: np.ndarray       # (B, T, C) time series or (B, d) static features
    labels: np.ndarray
    class_names: list
    manifest: dict = field(default_factory=dict)

    @property
    def n_classes(self):
        return len(self.class_names)

    @property
    def is_timeseries(self):
        return self.samples.ndim == 3


def generate_dataset(spec, class_plan, seed):
    """Samples for a plan of (class name, FaultSpec-or-None, count) entries.

    Deterministic in (spec, plan, seed); sample order is shuffled by the
    same seed and the manifest records every fault specification.
    """
    channel_std = nominal_channel_std(spec)
    samples, labels = [], []
    for label, (name, fspec, count) in enumerate(class_plan):
        if count <= 0:
            raise ValueError(f"class {name!r} has non-positive count {count}")
        nominal = simulate_nominal_batch(
            spec, [seed_stream(seed, f"{name}/{i}/nominal") for i in range(count)])
        for i, s in enumerate(nominal):
            if fspec is not None:
                s = inject(s, fspec, channel_std, seed_stream(seed, f"{name}/{i}/fault"))
            samples.append(s)
            labels.append(label)
    samples = np.stack(samples)
    labels = np.asarray(labels, dtype=np.intp)
    order = np.random.default_rng(seed_stream(seed, "shuffle")).permutation(len(labels))
    manifest = {
        "format_version": 1,
        "seed": seed,
        "process": asdict(spec),
        "classes": [
            {"name": name, "fault": asdict(f) if f is not None else None, "count": count}
            for name, f, count in class_plan
        ],
        "shape": list(samples.shape),
    }
    return Dataset(samples=samples[order], labels=labels[order],
                   class_names=[name for name, _, _ in class_plan],
                   manifest=manifest)


# ---------------------------------------------------------------------------
# presets modeled on the benchmark dataset shapes

def rectifier_like_plan():
    """1067 samples, 256 x 6, one normal condition and five fault types.

    Magnitudes are tuned so the classes overlap: nearest-neighbor features
    alone give well under 100%, leaving room for the graph to help.
    """
    plan = [
        ("normal", None, 178),
        ("current_sensor", FaultSpec("random_variation", 0.6, 0.5, (0,)), 178),
        ("igbt1", FaultSpec("step", 0.6, 0.5, (1,)), 178),
        ("igbt2", FaultSpec("step", 0.6, 0.5, (2,)), 178),
        ("igbt3", FaultSpec("step", 0.6, 0.5, (3,)), 178),
        ("igbt4", FaultSpec("step", 0.6, 0.5, (4, 5)), 177),
    ]
    return ProcessSpec(channels=6, horizon=256, noise_std=0.5), plan


def motor_like_plan():
    """1104 measurements of 48 static features, one normal and three faults."""
    plan = [
        ("normal", None, 276),
        ("demagnetization", FaultSpec("slow_drift", 2.5, 0.0, (0, 1)), 276),
        ("inter_turn_short", FaultSpec("step", 2.5, 0.25, (2,)), 276),
        ("bearing", FaultSpec("random_variation", 2.5, 0.2, (3,)), 276),
    ]
    return ProcessSpec(channels=4, horizon=128), plan


def tep_like_plan():
    """1100 samples, 8 classes of mostly step faults on distinct channels."""
    plan = [("normal", None, 132)]
    for i in range(6):
        plan.append((f"step_fault_{i + 1}",
                     FaultSpec("step", 2.0, 0.25, (i % 8,)), 138))
    plan.append(("random_variation_fault",
                 FaultSpec("random_variation", 2.0, 0.2, (1, 3)), 140))
    return ProcessSpec(channels=8, horizon=128), plan


PRESETS = {
    "rectifier-like": rectifier_like_plan,
    "motor-like": motor_like_plan,
    "tep-like": tep_like_plan,
}


def generate_preset(name, seed):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    spec, plan = PRESETS[name]()
    ds = generate_dataset(spec, plan, seed)
    ds.manifest["preset"] = name
    if name == "motor-like":
        # static-feature dataset: time axis replaced by extracted statistics
        feats = extract_feature_matrix(ds.samples)
        ds = Dataset(samples=feats, labels=ds.labels, class_names=ds.class_names,
                     manifest={**ds.manifest, "shape": list(feats.shape),
                               "static_features": True})
    return ds


# ---------------------------------------------------------------------------
# dataset directory I/O: manifest.json + features.csv + labels.csv

def _fmt(x):
    return np.format_float_scientific(x, precision=17, trim="-")


def save_dataset(ds, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").write_text(
        json.dumps(ds.manifest, indent=2, sort_keys=True))
    flat = ds.samples.reshape(len(ds.samples), -1)
    with open(directory / "features.csv", "w", encoding="utf-8") as fh:
        for row in flat:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(directory / "labels.csv", "w", encoding="utf-8") as fh:
        for y in ds.labels:
            fh.write(f"{int(y)}\n")


def load_dataset(directory):
    """Read a save_dataset directory; ValueError names the file of any mismatch.

    Checked: the three files are present, one label per feature row, the
    manifest shape against the values, finite values, and labels in
    [0, number of classes).
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    features_path, labels_path = directory / "features.csv", directory / "labels.csv"
    for path in (manifest_path, features_path, labels_path):
        if not path.is_file():
            raise ValueError(f"dataset file missing: {path}")
    manifest = json.loads(manifest_path.read_text())
    flat = np.loadtxt(features_path, delimiter=",", ndmin=2)
    labels = np.loadtxt(labels_path, dtype=np.intp, ndmin=1)
    if len(flat) != len(labels):
        raise ValueError(f"{features_path} has {len(flat)} rows but {labels_path} "
                         f"has {len(labels)} labels")
    shape = manifest.get("shape")
    if shape and (int(np.prod(shape)) != flat.size or shape[0] != len(flat)):
        raise ValueError(f"{manifest_path} shape {shape} does not fit the "
                         f"{len(flat)} x {flat.shape[1]} values of {features_path}")
    finite = np.isfinite(flat)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"{features_path}: non-finite value {flat[row, col]} "
                         f"in row {row + 1}, column {col + 1}")
    samples = flat.reshape(shape) if shape and len(shape) == 3 else flat
    names = [c["name"] for c in manifest.get("classes", [])]
    if not names:
        names = [f"class_{i}" for i in range(int(labels.max()) + 1)]
    outside = np.flatnonzero((labels < 0) | (labels >= len(names)))
    if len(outside):
        raise ValueError(f"{labels_path}: label {labels[outside[0]]} on line "
                         f"{outside[0] + 1} is outside [0, {len(names)})")
    return Dataset(samples=samples, labels=labels, class_names=names,
                   manifest=manifest)
