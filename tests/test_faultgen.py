import json

import numpy as np
import pytest

from graphdiag import faultgen as fg
from graphdiag import models as md


class TestSeedStream:
    def test_deterministic(self):
        assert fg.seed_stream(3, "a") == fg.seed_stream(3, "a")

    def test_distinct_names_and_masters(self):
        seeds = {fg.seed_stream(m, n) for m in range(4) for n in ("a", "b", "c")}
        assert len(seeds) == 12


class TestProcessSpec:
    def test_defaults_are_stable(self):
        spec = fg.ProcessSpec(channels=3)
        radius = np.abs(np.linalg.eigvals(np.asarray(spec.coupling))).max()
        assert radius < 1.0

    def test_unstable_coupling_rejected(self):
        with pytest.raises(ValueError):
            fg.ProcessSpec(channels=2, coupling=[[1.2, 0.0], [0.0, 0.5]])

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            fg.ProcessSpec(noise_std=-0.1)


class TestFaultSpec:
    def test_valid_kinds(self):
        for kind in fg.FAULT_KINDS:
            fg.FaultSpec(kind, 1.0)

    def test_rejections(self):
        with pytest.raises(ValueError):
            fg.FaultSpec("spike", 1.0)
        with pytest.raises(ValueError):
            fg.FaultSpec("step", 1.0, onset=1.0)
        with pytest.raises(ValueError):
            fg.FaultSpec("step", -2.0)
        with pytest.raises(ValueError):
            fg.FaultSpec("step", 1.0, channels=())


class TestSimulation:
    def test_shape_and_determinism(self):
        spec = fg.ProcessSpec(channels=4, horizon=100)
        a = fg.simulate_nominal(spec, 5)
        b = fg.simulate_nominal(spec, 5)
        c = fg.simulate_nominal(spec, 6)
        assert a.shape == (100, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_free_process_is_bounded(self):
        spec = fg.ProcessSpec(channels=2, horizon=200, noise_std=0.0)
        x = fg.simulate_nominal(spec, 0)
        assert np.isfinite(x).all()
        assert np.abs(x).max() < 50.0

    def test_channel_std_positive(self):
        std = fg.nominal_channel_std(fg.ProcessSpec(channels=3, horizon=64))
        assert std.shape == (3,)
        assert std.min() > 0.0


def loop_simulate(spec, seed):
    """The per-sample recurrence, one `a @ prev` per time step."""
    rng = np.random.default_rng(seed)
    t_total = spec.horizon + int(fg.BURN_IN_FRACTION * spec.horizon)
    c = spec.channels
    a = np.asarray(spec.coupling)
    phase = rng.uniform(0, 2 * np.pi, size=c)
    tt = np.arange(t_total)[:, None]
    drive = np.asarray(spec.drive_amplitudes) * np.sin(
        2 * np.pi * np.asarray(spec.drive_frequencies) * tt / spec.horizon + phase)
    noise = rng.normal(0.0, spec.noise_std, size=(t_total, c)) if spec.noise_std > 0 \
        else np.zeros((t_total, c))
    x = np.zeros((t_total, c))
    prev = np.zeros(c)
    for t in range(t_total):
        prev = a @ prev + drive[t] + noise[t]
        x[t] = prev
    return x[t_total - spec.horizon:]


def loop_batch(spec, seeds):
    return np.stack([loop_simulate(spec, s) for s in seeds])


PRESET_SPECS = {name: plan()[0] for name, plan in fg.PRESETS.items()}


class TestBatchSimulation:
    @pytest.mark.parametrize("preset", sorted(PRESET_SPECS))
    @pytest.mark.parametrize("count", [1, 178])
    def test_batch_bytes_match_per_sample_loop(self, preset, count):
        spec = PRESET_SPECS[preset]
        seeds = [fg.seed_stream(3, f"normal/{i}/nominal") for i in range(count)]
        got = fg.simulate_nominal_batch(spec, seeds)
        assert got.shape == (count, spec.horizon, spec.channels)
        assert got.tobytes() == loop_batch(spec, seeds).tobytes()

    def test_noise_free_batch_matches_loop(self):
        spec = fg.ProcessSpec(channels=3, horizon=200, noise_std=0.0)
        seeds = [0, 1, 7, 104]
        assert fg.simulate_nominal_batch(spec, seeds).tobytes() == \
            loop_batch(spec, seeds).tobytes()

    def test_one_sample_case(self):
        spec = PRESET_SPECS["tep-like"]
        assert fg.simulate_nominal(spec, 151).tobytes() == \
            fg.simulate_nominal_batch(spec, [5, 151])[1].tobytes()

    @pytest.mark.parametrize("preset", sorted(PRESET_SPECS))
    def test_channel_std_run_matches_loop(self, preset, monkeypatch):
        # the 4096-step reference run that scales fault magnitudes
        spec = PRESET_SPECS[preset]
        want = fg.nominal_channel_std(spec)
        monkeypatch.setattr(fg, "simulate_nominal_batch", loop_batch)
        assert want.tobytes() == fg.nominal_channel_std(spec).tobytes()

    @pytest.mark.parametrize("preset", sorted(PRESET_SPECS))
    def test_generate_preset_matches_per_sample_loop(self, preset, monkeypatch):
        got = fg.generate_preset(preset, 7)
        monkeypatch.setattr(fg, "simulate_nominal_batch", loop_batch)
        want = fg.generate_preset(preset, 7)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.manifest == want.manifest


class TestInjection:
    def setup_method(self):
        self.spec = fg.ProcessSpec(channels=3, horizon=200, noise_std=0.0)
        self.x = fg.simulate_nominal(self.spec, 1)
        self.std = fg.nominal_channel_std(self.spec)

    def test_step_shifts_mean_after_onset_only(self):
        f = fg.FaultSpec("step", 2.0, onset=0.5, channels=(1,))
        y = fg.inject_step(self.x, f, self.std)
        assert np.array_equal(y[:100], self.x[:100])
        delta = y[100:, 1] - self.x[100:, 1]
        assert np.allclose(delta, 2.0 * self.std[1])
        assert np.array_equal(y[:, [0, 2]], self.x[:, [0, 2]])

    def test_drift_ramps_to_full_magnitude(self):
        f = fg.FaultSpec("slow_drift", 1.5, onset=0.25, channels=(0,))
        y = fg.inject_drift(self.x, f, self.std)
        delta = y[:, 0] - self.x[:, 0]
        assert np.allclose(delta[:50], 0.0)
        assert delta[-1] == pytest.approx(1.5 * self.std[0])
        assert np.all(np.diff(delta[50:]) >= 0)

    def test_random_variation_adds_scaled_noise(self):
        f = fg.FaultSpec("random_variation", 2.0, onset=0.0, channels=(2,))
        y = fg.inject_random_variation(self.x, f, self.std, seed=7)
        delta = y[:, 2] - self.x[:, 2]
        assert abs(delta.std() - 2.0 * self.std[2]) / (2.0 * self.std[2]) < 0.25
        assert np.array_equal(y[:, :2], self.x[:, :2])

    def test_injection_deterministic(self):
        f = fg.FaultSpec("random_variation", 1.0, channels=(0,))
        a = fg.inject(self.x, f, self.std, seed=3)
        b = fg.inject(self.x, f, self.std, seed=3)
        assert np.array_equal(a, b)

    def test_original_untouched(self):
        before = self.x.copy()
        f = fg.FaultSpec("step", 1.0, channels=(0,))
        fg.inject(self.x, f, self.std, seed=0)
        assert np.array_equal(self.x, before)


class TestGenerateDataset:
    def make(self, seed=0):
        spec = fg.ProcessSpec(channels=2, horizon=64)
        plan = [("normal", None, 5),
                ("broken", fg.FaultSpec("step", 2.0, channels=(0,)), 7)]
        return fg.generate_dataset(spec, plan, seed)

    def test_counts_and_labels(self):
        ds = self.make()
        assert ds.samples.shape == (12, 64, 2)
        assert np.bincount(ds.labels).tolist() == [5, 7]
        assert ds.class_names == ["normal", "broken"]
        assert ds.is_timeseries
        assert ds.n_classes == 2

    def test_deterministic_per_seed(self):
        a, b, c = self.make(1), self.make(1), self.make(2)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.samples, c.samples)

    def test_manifest_records_plan(self):
        ds = self.make()
        assert ds.manifest["classes"][1]["fault"]["kind"] == "step"
        assert ds.manifest["shape"] == [12, 64, 2]

    def test_shuffled_order(self):
        ds = self.make()
        assert not np.array_equal(ds.labels, np.sort(ds.labels))

    def test_bad_count(self):
        spec = fg.ProcessSpec(channels=2, horizon=64)
        with pytest.raises(ValueError):
            fg.generate_dataset(spec, [("normal", None, 0)], 0)


class TestPresets:
    def test_unknown(self):
        with pytest.raises(ValueError):
            fg.generate_preset("lathe-like", 0)

    def test_rectifier_like_shape(self):
        ds = fg.generate_preset("rectifier-like", 0)
        assert ds.samples.shape == (1067, 256, 6)
        assert ds.n_classes == 6

    def test_motor_like_is_static_features(self):
        ds = fg.generate_preset("motor-like", 0)
        assert ds.samples.shape == (1104, 48)
        assert not ds.is_timeseries
        assert ds.n_classes == 4

    def test_tep_like_shape(self):
        ds = fg.generate_preset("tep-like", 0)
        assert ds.samples.shape == (1100, 128, 8)
        assert ds.n_classes == 8

    def test_rectifier_classes_are_separable_but_not_trivial(self):
        from graphdiag.graphbuild import extract_feature_matrix, standardize
        ds = fg.generate_preset("rectifier-like", 0)
        feats = standardize(extract_feature_matrix(ds.samples[:400]))
        y = ds.labels[:400]
        clf = md.KnnClassifier(k=1).fit(feats[:300], y[:300])
        acc = (clf.forward(feats[300:]).data.argmax(axis=1) == y[300:]).mean()
        assert 0.6 < acc < 0.99


class TestDatasetIO:
    def test_round_trip_timeseries(self, tmp_path):
        spec = fg.ProcessSpec(channels=2, horizon=32)
        plan = [("normal", None, 3),
                ("f", fg.FaultSpec("step", 1.0, channels=(1,)), 3)]
        ds = fg.generate_dataset(spec, plan, 4)
        fg.save_dataset(ds, tmp_path / "d")
        back = fg.load_dataset(tmp_path / "d")
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names

    def test_round_trip_static(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = fg.Dataset(samples=rng.normal(size=(6, 9)),
                        labels=np.array([0, 1, 0, 1, 0, 1]),
                        class_names=["a", "b"],
                        manifest={"shape": [6, 9],
                                  "classes": [{"name": "a"}, {"name": "b"}]})
        fg.save_dataset(ds, tmp_path / "d")
        back = fg.load_dataset(tmp_path / "d")
        assert np.array_equal(back.samples, ds.samples)
        assert not back.is_timeseries


class TestLoadDatasetValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        ds = fg.generate_dataset(fg.ProcessSpec(channels=2, horizon=16),
                                 [("normal", None, 3), ("step", fg.FaultSpec("step", 1.0), 3)], 6)
        fg.save_dataset(ds, tmp_path / "d")
        return tmp_path / "d"

    @staticmethod
    def edit(path, fn):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(fn(lines)) + "\n")

    def test_row_count_differs_from_labels(self, saved):
        self.edit(saved / "labels.csv", lambda lines: lines[:-1])
        with pytest.raises(ValueError, match=r"features\.csv has 6 rows but .*labels\.csv has 5"):
            fg.load_dataset(saved)

    def test_manifest_shape_does_not_fit(self, saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["shape"] = [6, 16, 3]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json shape \[6, 16, 3\]"):
            fg.load_dataset(saved)

    def test_non_finite_value(self, saved):
        self.edit(saved / "features.csv",
                  lambda lines: lines[:2] + ["nan" + lines[2][lines[2].index(","):]] + lines[3:])
        with pytest.raises(ValueError, match=r"features\.csv: non-finite value nan in row 3, "
                                             r"column 1"):
            fg.load_dataset(saved)

    def test_label_out_of_range(self, saved):
        self.edit(saved / "labels.csv", lambda lines: lines[:3] + ["2"] + lines[4:])
        with pytest.raises(ValueError, match=r"labels\.csv: label 2 on line 4 is outside \[0, 2\)"):
            fg.load_dataset(saved)
