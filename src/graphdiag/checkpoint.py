"""Parameter checkpoints: JSON manifest + one concatenated float64 blob.

Layout: `<stem>.json` lists parameter names, shapes, and optimizer
hyperparameters in order; `<stem>.bin` holds each parameter's values as
little-endian float64, concatenated in manifest order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


def save_checkpoint(stem, params, optimizer_hyperparameters=None):
    stem = Path(stem)
    manifest = {
        "format_version": FORMAT_VERSION,
        "parameters": [
            {"name": p.name, "shape": list(p.data.shape)} for p in params
        ],
        "optimizer": optimizer_hyperparameters or {},
    }
    stem.with_suffix(".json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    with open(stem.with_suffix(".bin"), "wb") as fh:
        for p in params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(stem, params):
    """Load values into `params` in place; shapes must match the manifest."""
    stem = Path(stem)
    manifest = json.loads(stem.with_suffix(".json").read_text())
    blob = stem.with_suffix(".bin").read_bytes()
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {stem}: format_version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})")
    if len(manifest["parameters"]) != len(params):
        raise ValueError(
            f"checkpoint has {len(manifest['parameters'])} parameters, model has {len(params)}")
    expected = 8 * sum(int(np.prod(entry["shape"])) for entry in manifest["parameters"])
    if len(blob) != expected:
        raise ValueError(
            f"checkpoint {stem}: blob holds {len(blob)} bytes, manifest needs {expected}")
    offset = 0
    for entry, p in zip(manifest["parameters"], params):
        shape = tuple(entry["shape"])
        if shape != p.data.shape:
            raise ValueError(
                f"shape mismatch for {entry['name']!r}: checkpoint {shape}, model {p.data.shape}")
        n = int(np.prod(shape)) if shape else 1
        values = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        p.data = values.reshape(shape).astype(np.float64)
        offset += n * 8
    return manifest
