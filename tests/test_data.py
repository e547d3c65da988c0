"""Synthetic data generation, CSV writing, label hiding, balanced sampling."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from shiftlab import (
    BalancedSampler,
    DatasetFormatError,
    DomainDataset,
    HiddenLabelError,
    LabelAccess,
    ParameterError,
    ShiftSpec,
    class_sizes,
    features_digest,
    generate,
    save_dataset,
)
from shiftlab.data import MAX_FEATURE_NORM, MAX_SIZE
from shiftlab.metrics import EVALUATOR_ACCESS


class TestClassSizes:
    def test_if20_oracle(self):
        # round(100 * 20^(-r/4)) for r=0..4, half up, computed by hand
        spec = ShiftSpec(num_classes=5, feature_dim=2, max_class_size=100,
                         imbalance_factor=20.0)
        np.testing.assert_array_equal(class_sizes(spec), [100, 47, 22, 11, 5])

    def test_if1_uniform(self):
        spec = ShiftSpec(num_classes=4, feature_dim=2, max_class_size=30,
                         imbalance_factor=1.0)
        np.testing.assert_array_equal(class_sizes(spec), [30, 30, 30, 30])

    def test_max_min_ratio_tracks_if(self):
        spec = ShiftSpec(num_classes=5, feature_dim=2, max_class_size=300,
                         imbalance_factor=10.0)
        sizes = class_sizes(spec)
        assert sizes[0] == 300
        assert sizes[0] / sizes[-1] == pytest.approx(10.0, rel=0.05)

    def test_never_empty(self):
        spec = ShiftSpec(num_classes=6, feature_dim=2, max_class_size=10,
                         imbalance_factor=100.0)
        assert class_sizes(spec).min() >= 1


class TestShiftSpecValidation:
    def test_rejects_single_class(self):
        with pytest.raises(ParameterError):
            ShiftSpec(num_classes=1, feature_dim=4)

    def test_rejects_if_below_one(self):
        with pytest.raises(ParameterError):
            ShiftSpec(num_classes=3, feature_dim=4, imbalance_factor=0.5)

    @pytest.mark.parametrize("field,value", [
        ("imbalance_factor", float("nan")),
        ("imbalance_factor", float("inf")),
        ("noise_sigma", float("nan")),
        ("noise_sigma", float("inf")),
        ("rotation_angle", float("nan")),
        ("rotation_angle", float("inf")),
        ("translation", float("nan")),
        ("translation", [0.0, float("inf"), 0.0, 0.0]),
    ])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ParameterError):
            ShiftSpec(num_classes=3, feature_dim=4, **{field: value})

    @pytest.mark.parametrize("field", ["num_classes", "feature_dim", "max_class_size"])
    def test_rejects_oversized(self, field):
        with pytest.raises(ParameterError, match=f"{field} must be at most {MAX_SIZE}"):
            ShiftSpec(**{field: MAX_SIZE + 1})

    def test_accepts_the_largest_class_size(self):
        assert ShiftSpec(max_class_size=MAX_SIZE).max_class_size == MAX_SIZE

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            ShiftSpec(num_classes=3, feature_dim=4, target_order=[0, 1, 1])

    @pytest.mark.parametrize("field, order", [
        ("target_order", [2.9, 1, 0.2]),  # used to draw as [2, 1, 0]
        ("source_order", [0, True, 2]),  # used to draw as [0, 1, 2]
    ])
    def test_rejects_non_integer_order(self, field, order):
        with pytest.raises(ParameterError, match=rf"{field} must be list\[int\] \| None"):
            ShiftSpec(num_classes=3, feature_dim=4, max_class_size=40, **{field: order})

    def test_accepts_numpy_integer_order(self):
        spec = ShiftSpec(num_classes=3, feature_dim=4, target_order=list(np.array([2, 1, 0])))
        assert spec.target_order == [2, 1, 0]
        assert all(type(c) is int for c in spec.target_order)

    def test_numpy_scalars_become_python_numbers(self):
        spec = ShiftSpec(num_classes=3, feature_dim=4, max_class_size=np.int64(40),
                         imbalance_factor=np.float64(5.0), seed=np.int64(7))
        assert (spec.max_class_size, spec.imbalance_factor, spec.seed) == (40, 5.0, 7)
        assert [type(v) for v in (spec.max_class_size, spec.imbalance_factor, spec.seed)] == [
            int, float, int]
        assert json.loads(json.dumps(asdict(spec)))["max_class_size"] == 40

    @pytest.mark.parametrize("field,value", [
        ("max_class_size", np.int64(2)), ("seed", np.int64(-1)),
        ("imbalance_factor", np.float64(0.5)), ("imbalance_factor", np.float64("nan")),
    ])
    def test_numpy_scalars_are_still_validated(self, field, value):
        kwargs = dict(num_classes=3, feature_dim=4, max_class_size=40)
        kwargs[field] = value
        with pytest.raises(ParameterError):
            ShiftSpec(**kwargs)

    def test_rejects_feature_dim_below_two(self):
        # class means live in the first two coordinates
        with pytest.raises(ParameterError):
            ShiftSpec(num_classes=3, feature_dim=1)

    def test_scalar_translation_broadcasts(self):
        spec = ShiftSpec(num_classes=3, feature_dim=4, translation=1.5)
        assert list(spec.translation) == [1.5, 1.5, 1.5, 1.5]

    def test_translation_length_mismatch(self):
        with pytest.raises(ParameterError):
            ShiftSpec(num_classes=3, feature_dim=4, translation=[1.0, 2.0])

    @pytest.mark.parametrize("field,value", [
        ("noise_sigma", 1e308),  # exited 2: "batch weights must be finite"
        ("noise_sigma", 1e200),  # exited 2: NumericError on a NaN loss
        ("noise_sigma", 1e99),  # 2 * 18e99 = 3.6e100
        ("translation", 1e308),  # exited 2: NumericError on a NaN loss
        ("translation", [0.0, 0.0, 0.0, 1e100]),  # 2 * (1e100 + 18) over the bound
    ])
    def test_rejects_features_beyond_the_norm_bound(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} puts drawn features up to"):
            ShiftSpec(num_classes=3, feature_dim=4, **{field: value})

    def test_accepts_a_reach_equal_to_the_norm_bound(self):
        # sqrt(4) * (5e99 + 18) is exactly 1e100 in floats
        spec = ShiftSpec(num_classes=3, feature_dim=4, translation=[0.0, 0.0, 0.0, 5e99])
        assert spec.translation[3] == MAX_FEATURE_NORM / 2

    def test_names_the_larger_term_beyond_the_norm_bound(self):
        with pytest.raises(ParameterError, match="^noise_sigma puts drawn features up to"):
            ShiftSpec(num_classes=3, feature_dim=4, noise_sigma=1e99, translation=1.0)

    def test_features_at_the_norm_bound_keep_finite_squares(self):
        # sqrt(4) * (1e99 + 18 sigma) just under 1e100; the drawn rows must lie
        # within the bound, so their squared distances stay finite
        sigma = (MAX_FEATURE_NORM / 2 - 1e99) / 18 * (1 - 1e-12)
        spec = ShiftSpec(num_classes=3, feature_dim=4, max_class_size=40, noise_sigma=sigma,
                         translation=1e99, seed=1)
        for ds in generate(spec):
            x = ds.features
            assert np.sqrt(np.max(np.einsum("ij,ij->i", x, x))) <= MAX_FEATURE_NORM
            assert np.all(np.isfinite(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)))


def test_features_digest_tells_apart_one_set_of_rows_split_differently():
    rows = np.arange(24.0).reshape(6, 4)
    digests = {features_digest(DomainDataset("source", rows[:n], np.zeros(n, dtype=int), 2),
                               DomainDataset("target", rows[n:], np.zeros(6 - n, dtype=int), 2))
               for n in (2, 3)}
    assert len(digests) == 2


class TestGenerate:
    def test_deterministic(self):
        spec = ShiftSpec(num_classes=3, feature_dim=4, max_class_size=20, seed=5)
        s1, t1 = generate(spec)
        s2, t2 = generate(spec)
        np.testing.assert_array_equal(s1.features, s2.features)
        np.testing.assert_array_equal(t1.features, t2.features)

    def test_target_labels_hidden(self):
        _, tgt = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=10))
        with pytest.raises(HiddenLabelError):
            _ = tgt.labels
        labels = tgt.labels_for_eval(EVALUATOR_ACCESS)
        assert labels.min() >= 0 and labels.max() < 3

    def test_labels_for_eval_rejects_non_token(self):
        _, tgt = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=10))
        with pytest.raises(HiddenLabelError):
            tgt.labels_for_eval(object())

    def test_fresh_access_token_works(self):
        # capability is the type, not the instance
        _, tgt = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=10))
        assert tgt.labels_for_eval(LabelAccess()).shape[0] == len(tgt)

    def test_order_controls_head_class(self):
        spec = ShiftSpec(num_classes=3, feature_dim=4, max_class_size=30,
                         imbalance_factor=3.0, source_order=[2, 1, 0],
                         target_order=[0, 1, 2], seed=1)
        src, tgt = generate(spec)
        src_counts = np.bincount(src.labels, minlength=3)
        tgt_counts = np.bincount(tgt.labels_for_eval(EVALUATOR_ACCESS), minlength=3)
        assert src_counts.argmax() == 2
        assert tgt_counts.argmax() == 0
        np.testing.assert_array_equal(np.sort(src_counts), np.sort(tgt_counts))

    def test_rotation_moves_class_means(self):
        # quarter turn maps the class-0 mean from (4s, 0) to (0, 4s)
        spec = ShiftSpec(num_classes=4, feature_dim=3, max_class_size=400,
                         imbalance_factor=1.0, rotation_angle=np.pi / 2,
                         noise_sigma=0.5, seed=3)
        src, tgt = generate(spec)
        tgt_labels = tgt.labels_for_eval(EVALUATOR_ACCESS)
        m_src = src.features[src.labels == 0].mean(axis=0)
        m_tgt = tgt.features[tgt_labels == 0].mean(axis=0)
        assert m_src[0] == pytest.approx(2.0, abs=0.15)
        assert m_src[1] == pytest.approx(0.0, abs=0.15)
        assert m_tgt[0] == pytest.approx(0.0, abs=0.15)
        assert m_tgt[1] == pytest.approx(2.0, abs=0.15)

    def test_translation_offsets_target_only(self):
        off = [0.0, 0.0, 7.0]
        spec = ShiftSpec(num_classes=3, feature_dim=3, max_class_size=300,
                         imbalance_factor=1.0, translation=off, seed=4)
        src, tgt = generate(spec)
        assert src.features[:, 2].mean() == pytest.approx(0.0, abs=0.2)
        assert tgt.features[:, 2].mean() == pytest.approx(7.0, abs=0.2)


class TestCsvRoundTrip:
    @staticmethod
    def _parse(path):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        tags = {row[0] for row in rows}
        labels = np.array([int(row[1]) for row in rows])
        features = np.array([[float(v) for v in row[2:]] for row in rows])
        return tags, labels, features

    def test_source_round_trip_exact(self, tmp_path):
        src, _ = generate(ShiftSpec(num_classes=3, feature_dim=5, max_class_size=15,
                                    seed=11))
        path = tmp_path / "source.csv"
        save_dataset(src, path)
        tags, labels, features = self._parse(path)
        assert tags == {"source"}
        np.testing.assert_array_equal(labels, src.labels)
        assert features.tobytes() == src.features.tobytes()

    def test_target_reloads_hidden(self, tmp_path):
        # the file keeps the evaluator's labels; the domain column marks them hidden
        _, tgt = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=15,
                                    seed=11))
        path = tmp_path / "target.csv"
        save_dataset(tgt, path)
        tags, labels, features = self._parse(path)
        assert tags == {"target"}
        with pytest.raises(HiddenLabelError):
            _ = tgt.labels
        np.testing.assert_array_equal(labels, tgt.labels_for_eval(EVALUATOR_ACCESS))
        assert features.tobytes() == tgt.features.tobytes()

    def test_header_schema(self, tmp_path):
        src, _ = generate(ShiftSpec(num_classes=2, feature_dim=3, max_class_size=4))
        path = tmp_path / "s.csv"
        save_dataset(src, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "domain,label,f0,f1,f2"


class TestBalancedSampler:
    def test_deterministic(self):
        src, _ = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=30,
                                    imbalance_factor=5.0, seed=2))
        a = BalancedSampler(src, seed=9).draw(12)
        b = BalancedSampler(src, seed=9).draw(12)
        np.testing.assert_array_equal(a, b)

    def test_rejects_an_empty_batch(self):
        src, _ = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=30, seed=2))
        with pytest.raises(ParameterError, match="batch_size must be >= 1, got 0"):
            BalancedSampler(src, seed=9).draw(0)

    def test_matches_per_slot_loop(self):
        # reference: pick a class per slot, then one of its samples, slot by slot
        labels = np.random.default_rng(1).permutation(np.repeat(np.arange(4), [90, 40, 20, 7]))
        src = DomainDataset("source", np.zeros((labels.size, 2)), labels, 4)
        pools = [np.flatnonzero(labels == k) for k in range(4)]
        rng = np.random.default_rng(5)
        sampler = BalancedSampler(src, seed=5)
        for size in (1, 7, 50, 1, 123):
            classes = rng.integers(0, 4, size=size)
            expected = [pools[k][rng.integers(0, pools[k].size)] for k in classes]
            np.testing.assert_array_equal(sampler.draw(size), expected)

    def test_class_frequencies_uniform(self):
        # tail class must appear ~1/C of the time despite 5x imbalance
        src, _ = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=60,
                                    imbalance_factor=5.0, seed=2))
        sampler = BalancedSampler(src, seed=0)
        counts = np.zeros(3)
        for _ in range(200):
            idx = sampler.draw(30)
            counts += np.bincount(src.labels[idx], minlength=3)
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, [1 / 3] * 3, atol=0.02)

    def test_indices_in_range(self):
        src, _ = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=20,
                                    seed=2))
        idx = BalancedSampler(src, seed=1).draw(50)
        assert idx.min() >= 0 and idx.max() < len(src)

    def test_hidden_labels_unusable(self):
        # sampler needs labels; target datasets must refuse
        _, tgt = generate(ShiftSpec(num_classes=3, feature_dim=4, max_class_size=20,
                                    seed=2))
        with pytest.raises(HiddenLabelError):
            BalancedSampler(tgt, seed=0)


class TestDomainDataset:
    def test_rejects_wrong_tag(self):
        with pytest.raises(ParameterError):
            DomainDataset("other", np.ones((2, 2)), np.zeros(2, dtype=np.int64), 2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(DatasetFormatError):
            DomainDataset("source", np.ones((2, 2)),
                          np.array([0, 5], dtype=np.int64), 2)

    @pytest.mark.parametrize("labels", [[0, 1], [[0], [1], [0]]], ids=["short", "2-d"])
    def test_rejects_labels_that_do_not_match_the_rows(self, labels):
        with pytest.raises(ParameterError, match="does not match 3 samples"):
            DomainDataset("source", np.ones((3, 2)), np.array(labels), 2)

    def test_rejects_empty(self):
        with pytest.raises(DatasetFormatError):
            DomainDataset("source", np.zeros((0, 2)),
                          np.zeros(0, dtype=np.int64), 2)
