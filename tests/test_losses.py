"""Loss values against hand-computed oracles, plus invariances and gradients."""

from __future__ import annotations

import logging
import tracemalloc
import weakref

import numpy as np
import pytest

from shiftlab import (
    CentroidBank,
    losses,
    ShapeError,
    Tape,
    Tensor,
    WeightedBatch,
    centroid_alignment_loss,
    cross_entropy,
    discriminative_alignment_loss,
    domain_adversarial_loss,
    update_centroids,
)
from shiftlab.autodiff import binary_cross_entropy, matmul, sigmoid, softmax, weighted_sum

from conftest import (
    central_difference,
    relative_error,
    unfused_binary_cross_entropy,
    unfused_ema_matmul,
    unfused_ratio,
)

LN10 = 2.302585092994046
LN2 = 0.6931471805599453


def batch(features, labels, weights=None) -> WeightedBatch:
    feats = Tensor(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    if weights is None:
        weights = np.ones(len(labels))
    return WeightedBatch(feats, labels, np.asarray(weights, dtype=np.float64))


class TestCrossEntropy:
    def test_single_row(self):
        loss = cross_entropy(None, Tensor([[0.1, 0.9]]), np.array([0]))
        assert loss.values[0, 0] == pytest.approx(LN10, rel=1e-12)

    def test_certain_prediction_is_zero(self):
        loss = cross_entropy(None, Tensor([[1.0, 0.0]]), np.array([0]))
        assert loss.values[0, 0] == 0.0

    def test_mean_over_rows(self):
        probs = Tensor([[0.5, 0.5], [0.25, 0.75]])
        loss = cross_entropy(None, probs, np.array([0, 1]))
        assert loss.values[0, 0] == pytest.approx(0.4904146265058631, rel=1e-12)

    def test_zero_probability_floored(self):
        loss = cross_entropy(None, Tensor([[0.0, 1.0]]), np.array([0]))
        assert loss.values[0, 0] == pytest.approx(-np.log(1e-12), rel=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])

        def f():
            t = Tape()
            return cross_entropy(t, softmax(t, Tensor(x)), labels).values[0, 0]

        tape = Tape()
        leaf = Tensor(x)
        tape.backward(cross_entropy(tape, softmax(tape, leaf), labels))
        fd = central_difference(f, x)
        assert relative_error(leaf.grad, fd) < 1e-3


class TestDomainAdversarial:
    def test_oracle_value(self):
        loss = domain_adversarial_loss(None, Tensor([[0.3], [0.8]]), 1)
        assert loss.values[0, 0] == pytest.approx(0.5798184952529422, rel=1e-12)

    def test_coin_flip_outputs(self):
        # -(ln 0.5 + ln 0.5): each domain term contributes ln 2
        loss = domain_adversarial_loss(None, Tensor([[0.5], [0.5], [0.5]]), 2)
        assert loss.values[0, 0] == pytest.approx(2 * LN2, rel=1e-12)

    def test_means_within_each_domain(self):
        loss = domain_adversarial_loss(None, Tensor([[0.3], [0.5], [0.8]]), 2)
        expected = -((np.log(0.7) + np.log(0.5)) / 2 + np.log(0.8))
        assert loss.values[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_saturated_outputs(self):
        with pytest.raises(ValueError):
            domain_adversarial_loss(None, Tensor([[0.0], [0.5]]), 1)
        with pytest.raises(ValueError):
            domain_adversarial_loss(None, Tensor([[0.5], [1.0]]), 1)

    def test_rejects_wide_output(self):
        with pytest.raises(ShapeError):
            domain_adversarial_loss(None, Tensor([[0.5, 0.5], [0.5, 0.5]]), 1)

    @pytest.mark.parametrize("n", [-1, 0, 3, 4])
    @pytest.mark.parametrize("loss", [
        domain_adversarial_loss,
        lambda tape, d, n: binary_cross_entropy(tape, d, n, losses.PROB_FLOOR),
    ], ids=["domain_adversarial_loss", "binary_cross_entropy"])
    def test_split_point_out_of_range(self, loss, n):
        # each domain needs a row: 0 < n < rows
        with pytest.raises(ShapeError):
            loss(None, Tensor([[0.3], [0.5], [0.8]]), n)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((9, 1))

        def f():
            t = Tape()
            return domain_adversarial_loss(t, sigmoid(t, Tensor(x)), 5).values[0, 0]

        tape = Tape()
        leaf = Tensor(x)
        tape.backward(domain_adversarial_loss(tape, sigmoid(tape, leaf), 5))
        assert relative_error(leaf.grad, central_difference(f, x)) < 1e-3


class TestWeightedBatch:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            WeightedBatch(Tensor(np.zeros((3, 2))), np.array([0, 1]), np.ones(3))

    def test_weight_range(self):
        with pytest.raises(ValueError):
            batch(np.zeros((2, 2)), [0, 1], [0.5, 1.5])
        with pytest.raises(ValueError):
            batch(np.zeros((2, 2)), [0, 1], [-0.1, 0.5])

    def test_nan_weight(self):
        with pytest.raises(ValueError):
            batch(np.zeros((2, 2)), [0, 1], [np.nan, 0.5])

    def test_negative_label(self):
        with pytest.raises(ValueError):
            batch(np.zeros((2, 2)), [-1, 1])

    def test_list_weights_become_a_float_array(self):
        wb = WeightedBatch(Tensor(np.zeros((2, 2))), [0, 1], [1, 0])
        assert wb.weights.dtype == np.float64 and wb.weights.tolist() == [1.0, 0.0]


class TestCentroidBank:
    def test_first_batch_adopted_outright(self):
        bank = CentroidBank(num_classes=2, ema_coeff=0.7)
        update_centroids(None, bank, batch([[2.0, 0.0], [4.0, 2.0]], [0, 0]), "source")
        np.testing.assert_allclose(bank.centroids["source"].values[0], [3.0, 1.0])

    def test_weighted_batch_centroid(self):
        bank = CentroidBank(num_classes=2)
        update_centroids(
            None, bank, batch([[0.0, 0.0], [4.0, 4.0]], [0, 0], [0.25, 0.75]), "source"
        )
        np.testing.assert_allclose(bank.centroids["source"].values[0], [3.0, 3.0])

    def test_ema_mixes_old_and_new(self):
        bank = CentroidBank(num_classes=2, ema_coeff=0.7)
        update_centroids(None, bank, batch([[0.0, 0.0]], [0]), "source")
        update_centroids(None, bank, batch([[10.0, 10.0]], [0]), "source")
        # 0.7 * old + 0.3 * batch
        np.testing.assert_allclose(bank.centroids["source"].values[0], [3.0, 3.0])

    def test_zero_weight_class_skipped(self):
        bank = CentroidBank(num_classes=2)
        update_centroids(None, bank, batch([[1.0, 1.0]], [0], [0.0]), "source")
        assert not bank.seen["source"][0]

    def test_absent_class_untouched(self):
        bank = CentroidBank(num_classes=3)
        update_centroids(None, bank, batch([[1.0, 0.0]], [0]), "source")
        update_centroids(None, bank, batch([[9.0, 9.0]], [1]), "source")
        np.testing.assert_allclose(bank.centroids["source"].values[0], [1.0, 0.0])

    def test_one_batch_mixes_new_seen_zero_weight_and_absent_classes(self):
        bank = CentroidBank(num_classes=4, ema_coeff=0.7)
        update_centroids(None, bank, batch([[10.0, 10.0], [4.0, -2.0]], [1, 3]), "source")
        update_centroids(
            None,
            bank,
            batch(
                [[0.0, 0.0], [4.0, 8.0], [0.0, 0.0], [5.0, 5.0]],
                [0, 0, 1, 2],
                [0.25, 0.75, 1.0, 0.0],
            ),
            "source",
        )
        # class 0 is new: adopted outright as 0.25 * [0, 0] + 0.75 * [4, 8]
        np.testing.assert_allclose(bank.centroids["source"].values[0], [3.0, 6.0], rtol=1e-15)
        # class 1 was seen: 0.7 * [10, 10] + 0.3 * [0, 0]
        np.testing.assert_allclose(bank.centroids["source"].values[1], [7.0, 7.0], rtol=1e-15)
        # class 2 came with zero weight only: still unseen
        assert not bank.seen["source"][2]
        np.testing.assert_array_equal(bank.centroids["source"].values[2], [0.0, 0.0])
        # class 3 was seen but is absent from the batch: kept bit for bit
        np.testing.assert_array_equal(bank.centroids["source"].values[3], [4.0, -2.0])
        assert bank.seen["source"].tolist() == [True, True, False, True]
        assert not bank.seen["target"].any()

    def test_eligible_needs_both_domains(self):
        bank = CentroidBank(num_classes=2)
        update_centroids(None, bank, batch([[1.0, 0.0]], [0]), "source")
        assert bank.eligible_classes() == []
        update_centroids(None, bank, batch([[2.0, 0.0]], [0]), "target")
        assert bank.eligible_classes() == [0]

    def test_label_out_of_range(self):
        bank = CentroidBank(num_classes=2)
        with pytest.raises(ValueError):
            update_centroids(None, bank, batch([[1.0, 0.0]], [5]), "source")

    def test_label_equal_to_the_class_count_is_out_of_range(self):
        bank = CentroidBank(num_classes=2)
        with pytest.raises(ValueError, match="out of range"):
            update_centroids(None, bank, batch([[1.0, 0.0]], [2]), "source")

    def test_bad_domain(self):
        bank = CentroidBank(num_classes=2)
        with pytest.raises(ValueError):
            update_centroids(None, bank, batch([[1.0, 0.0]], [0]), "src")

    def test_ema_coeff_range(self):
        with pytest.raises(ValueError):
            CentroidBank(num_classes=2, ema_coeff=0.0)
        with pytest.raises(ValueError):
            CentroidBank(num_classes=2, ema_coeff=1.5)

    def test_ema_coeff_one_keeps_a_seen_centroid(self):
        # the top of the range (0, 1]: the old centroid gets all the weight
        bank = CentroidBank(num_classes=2, ema_coeff=1.0)
        update_centroids(None, bank, batch([[1.0, 2.0]], [0]), "source")
        update_centroids(None, bank, batch([[9.0, 9.0]], [0]), "source")
        assert bank.centroids["source"].values[0].tolist() == [1.0, 2.0]

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            CentroidBank(num_classes=1)


def seeded_bank(points: dict[tuple[str, int], list[float]]) -> CentroidBank:
    """Bank whose centroids are exactly the given points (weight-1 singletons)."""
    num_classes = max(k for _, k in points) + 1
    bank = CentroidBank(num_classes=max(num_classes, 2))
    for (domain, k), p in points.items():
        update_centroids(None, bank, batch([p], [k]), domain)
    return bank


class TestCentroidAlignment:
    def test_two_class_ratio(self):
        # same-class distances 1 and 1; cross distances both 3
        y = np.sqrt(8.0)
        bank = seeded_bank(
            {
                ("source", 0): [0.0, 0.0],
                ("target", 0): [1.0, 0.0],
                ("source", 1): [0.0, y],
                ("target", 1): [1.0, y],
            }
        )
        loss = centroid_alignment_loss(None, bank)
        assert loss.values[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-7)

    def test_cross_pairs_are_ordered(self):
        # asymmetric geometry: source-i to target-k differs from source-k to target-i
        bank = seeded_bank(
            {
                ("source", 0): [0.0, 0.0],
                ("target", 0): [1.0, 0.0],
                ("source", 1): [5.0, 0.0],
                ("target", 1): [6.0, 0.0],
            }
        )
        loss = centroid_alignment_loss(None, bank)
        num = 1.0
        den = (6.0 + 4.0) / 2  # s0->t1 and s1->t0
        assert loss.values[0, 0] == pytest.approx(num / (den + 1e-8), rel=1e-12)

    def test_single_class_returns_numerator(self):
        bank = seeded_bank({("source", 0): [0.0, 0.0], ("target", 0): [3.0, 4.0]})
        loss = centroid_alignment_loss(None, bank)
        assert loss.values[0, 0] == pytest.approx(5.0, rel=1e-12)

    def test_empty_bank_is_zero_with_warning(self, caplog):
        bank = CentroidBank(num_classes=3)
        with caplog.at_level(logging.WARNING):
            loss = centroid_alignment_loss(None, bank)
        assert loss.values[0, 0] == 0.0
        assert "centroid alignment skipped" in caplog.text

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        pts = {(d, k): rng.standard_normal(2) for d in ("source", "target") for k in range(3)}
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        plain = centroid_alignment_loss(None, seeded_bank({k: list(v) for k, v in pts.items()}))
        spun = centroid_alignment_loss(
            None, seeded_bank({k: list(rot @ v) for k, v in pts.items()})
        )
        assert abs(plain.values[0, 0] - spun.values[0, 0]) < 1e-9

    def test_gradient_through_current_batch(self):
        src = np.array([[0.0, 0.0], [0.0, 2.0]])
        tgt = np.array([[1.0, 0.5], [1.5, 2.5]])

        stack = np.vstack([src, tgt])

        def f():
            t = Tape()
            bank = CentroidBank(num_classes=2)
            update_centroids(t, bank, WeightedBatch(Tensor(stack[:2]), [0, 1], np.ones(2)), "source")
            update_centroids(t, bank, WeightedBatch(Tensor(stack[2:]), [0, 1], np.ones(2)), "target")
            return centroid_alignment_loss(t, bank).values[0, 0]

        tape = Tape()
        leaf = Tensor(stack)
        bank = CentroidBank(num_classes=2)
        # build the same graph by slicing the leaf with selector matmuls
        sel_src = np.hstack([np.eye(2), np.zeros((2, 2))])
        sel_tgt = np.hstack([np.zeros((2, 2)), np.eye(2)])
        src_t = matmul(tape, Tensor(sel_src), leaf)
        tgt_t = matmul(tape, Tensor(sel_tgt), leaf)
        update_centroids(tape, bank, WeightedBatch(src_t, [0, 1], np.ones(2)), "source")
        update_centroids(tape, bank, WeightedBatch(tgt_t, [0, 1], np.ones(2)), "target")
        tape.backward(centroid_alignment_loss(tape, bank))
        assert relative_error(leaf.grad, central_difference(f, stack)) < 1e-3

    def test_history_is_constant_for_gradients(self):
        # centroids written on an earlier tape must not leak gradient
        warm = Tape()
        bank = CentroidBank(num_classes=2)
        feats = Tensor([[1.0, 0.0], [0.0, 1.0]])
        update_centroids(warm, bank, WeightedBatch(feats, [0, 1], np.ones(2)), "source")
        update_centroids(warm, bank, WeightedBatch(feats, [1, 0], np.ones(2)), "target")
        fresh = Tape()
        fresh.backward(centroid_alignment_loss(fresh, bank))
        assert np.all(feats.grad == 0.0)

    def test_expression_belongs_to_its_tape(self):
        # the stored tensor is the update's node: its own tape sends gradient
        # to the batch, a later tape does not
        bank = CentroidBank(num_classes=2)
        tape = Tape()
        src = batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        update_centroids(tape, bank, src, "source")
        assert len(tape._rules) == 1
        update_centroids(tape, bank, batch([[0.5, 0.0], [0.0, 2.0]], [0, 1]), "target")
        stored = dict(bank.centroids)
        on_tape = centroid_alignment_loss(tape, bank)
        tape.backward(on_tape)
        assert np.any(src.features.grad != 0.0)
        src.features.zero_grad()
        later = Tape()
        again = centroid_alignment_loss(later, bank)
        later.backward(again)
        assert again.values == on_tape.values
        assert bank.centroids == stored
        assert src.features._grad is None

    def test_expression_of_a_finished_tape_is_stale(self):
        # the bank must neither keep the tape alive nor pass a later tape's gradient to its batch
        bank = CentroidBank(num_classes=2)
        tape = Tape()
        src = batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        update_centroids(tape, bank, src, "source")
        update_centroids(tape, bank, batch([[0.5, 0.0], [0.0, 2.0]], [0, 1]), "target")
        values = {d: t.values.copy() for d, t in bank.centroids.items()}
        on_tape = centroid_alignment_loss(tape, bank).values
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
        for later in (Tape(), None):
            loss = centroid_alignment_loss(later, bank)
            assert loss.values == on_tape
            if later is not None:
                later.backward(loss)
            for domain, tensor in bank.centroids.items():
                assert (tensor.values == values[domain]).all()
        assert src.features._grad is None

    def test_centroids_built_off_the_tape_are_constants_on_a_tape(self):
        bank = CentroidBank(num_classes=2)
        batches = []
        for domain, shift in (("source", 0.0), ("target", 0.5)):
            x = [[1.0 + shift, 0.0], [0.0, 1.0 - shift]]
            batches.append(batch(x, [0, 1]))
            update_centroids(None, bank, batches[-1], domain)
        values = {d: t.values.copy() for d, t in bank.centroids.items()}
        off_tape = centroid_alignment_loss(None, bank)
        tape = Tape()
        on_tape = centroid_alignment_loss(tape, bank)
        assert on_tape.values == off_tape.values
        tape.backward(on_tape)
        for domain, tensor in bank.centroids.items():
            assert (tensor.values == values[domain]).all()
        assert all(b.features._grad is None for b in batches)

    def test_matches_per_class_loop(self):
        # reference: one weighted mean and EMA per (domain, class), one
        # distance per class pair; the bank sums in another order
        rng = np.random.default_rng(11)
        num_classes, theta = 5, 0.7
        bank = CentroidBank(num_classes, theta)
        ref: dict[tuple[str, int], np.ndarray] = {}
        for _ in range(6):
            for domain in ("source", "target"):
                n = int(rng.integers(1, 9))
                x = rng.standard_normal((n, 3))
                y = rng.integers(0, num_classes, n)
                w = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.3)
                update_centroids(None, bank, batch(x, y, w), domain)
                for k in np.unique(y):
                    total = w[y == k].sum()
                    if total == 0.0:
                        continue
                    mean = (w[y == k] @ x[y == k]) / total
                    old = ref.get((domain, k))
                    ref[(domain, k)] = mean if old is None else (1 - theta) * mean + theta * old
            for (domain, k), value in ref.items():
                np.testing.assert_allclose(bank.centroids[domain].values[k], value,
                                           rtol=1e-12, atol=1e-15)
            eligible = [k for k in range(num_classes)
                        if ("source", k) in ref and ("target", k) in ref]
            assert bank.eligible_classes() == eligible

            def dist(i, k):
                return np.linalg.norm(ref[("source", i)] - ref[("target", k)])

            loss = centroid_alignment_loss(None, bank).item()
            if not eligible:
                assert loss == 0.0
                continue
            expected = np.mean([dist(k, k) for k in eligible])
            if len(eligible) > 1:
                cross = np.mean([dist(i, k) for i in eligible for k in eligible if i != k])
                expected /= cross + 1e-8
            assert loss == pytest.approx(expected, rel=1e-12)


class TestDiscriminativeAlignment:
    def test_oracle_ratio(self):
        src = batch([[0.0, 0.0]], [0])
        tgt = batch([[1.0, 0.0], [1.5, 0.0]], [0, 1])
        loss = discriminative_alignment_loss(None, src, tgt)
        assert loss.values[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-7)

    def test_pair_weights_scale_terms(self):
        # sqrt(w_s * w_t) = 0.5 on the same pair only: numerator halves
        src = batch([[0.0, 0.0]], [0], [0.25])
        tgt_a = batch([[1.0, 0.0], [1.5, 0.0]], [0, 1], [1.0, 1.0])
        loss = discriminative_alignment_loss(None, src, tgt_a)
        num = 0.5 * 1.0
        den = 0.5 * 1.5
        assert loss.values[0, 0] == pytest.approx(num / (den + 1e-8), rel=1e-12)

    def test_means_not_sums(self):
        # duplicating a diff-label target row leaves the denominator mean alone
        src = batch([[0.0, 0.0]], [0])
        tgt1 = batch([[1.0, 0.0], [1.5, 0.0]], [0, 1])
        tgt2 = batch([[1.0, 0.0], [1.5, 0.0], [1.5, 0.0]], [0, 1, 1])
        a = discriminative_alignment_loss(None, src, tgt1).values[0, 0]
        b = discriminative_alignment_loss(None, src, tgt2).values[0, 0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_all_same_labels_zero_with_diagnostics(self):
        diags = {}
        src = batch([[0.0, 0.0]], [1])
        tgt = batch([[1.0, 0.0]], [1])
        loss = discriminative_alignment_loss(None, src, tgt, diagnostics=diags)
        assert loss.values[0, 0] == 0.0
        assert diags == {"no_diff_label_pairs": 1}

    def test_no_matching_labels_zero(self):
        diags = {}
        src = batch([[0.0, 0.0]], [0])
        tgt = batch([[1.0, 0.0]], [1])
        loss = discriminative_alignment_loss(None, src, tgt, diagnostics=diags)
        assert loss.values[0, 0] == 0.0
        assert diags == {"no_same_label_pairs": 1}

    def test_empty_batch_rejected(self):
        src = batch(np.zeros((0, 2)), [])
        tgt = batch([[1.0, 0.0]], [0])
        with pytest.raises(ValueError):
            discriminative_alignment_loss(None, src, tgt)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((4, 2))
        t = rng.standard_normal((5, 2))
        sl, tl = [0, 1, 0, 2], [1, 0, 2, 0, 1]
        theta = -1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        a = discriminative_alignment_loss(None, batch(s, sl), batch(t, tl)).values[0, 0]
        b = discriminative_alignment_loss(
            None, batch(s @ rot.T, sl), batch(t @ rot.T, tl)
        ).values[0, 0]
        assert abs(a - b) < 1e-9

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        s = rng.standard_normal((3, 2))
        t = rng.standard_normal((4, 2))
        sl, tl = [0, 1, 1], [1, 0, 1, 0]
        sw = rng.uniform(0.2, 1.0, 3)
        tw = rng.uniform(0.2, 1.0, 4)

        def f_s():
            tape = Tape()
            return discriminative_alignment_loss(
                tape, WeightedBatch(Tensor(s), sl, sw), WeightedBatch(Tensor(t), tl, tw)
            ).values[0, 0]

        tape = Tape()
        leaf = Tensor(s)
        tape.backward(
            discriminative_alignment_loss(
                tape, WeightedBatch(leaf, sl, sw), WeightedBatch(Tensor(t), tl, tw)
            )
        )
        assert relative_error(leaf.grad, central_difference(f_s, s)) < 1e-3

    def test_forward_holds_one_distance_grid(self):
        # the tape keeps the n x m distance table for backward, and no weight grid
        n = 400
        rng = np.random.default_rng(22)
        src = batch(rng.standard_normal((n, 8)), rng.integers(0, 5, n), rng.uniform(size=n))
        tgt = batch(rng.standard_normal((n, 8)), rng.integers(0, 5, n), rng.uniform(size=n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape = Tape()
            loss = discriminative_alignment_loss(tape, src, tgt)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape._rules) == 1 and loss.shape == (1, 1)
        assert held <= 1.5 * 8 * n * n


def _alignment_step(n: int) -> tuple:
    """One step's three alignment losses at the benchmark's shapes, C=5, d=8:
    the loss values and the gradients into the feature leaves."""
    rng = np.random.default_rng(2000 + n)
    bank = CentroidBank(num_classes=5)
    warm = [rng.standard_normal((n, 8)) for _ in range(2)]
    labels = [np.arange(n) % 5, rng.integers(0, 5, n)]
    weights = [rng.uniform(size=n) for _ in range(2)]
    for domain, f, y, w in zip(("source", "target"), warm, labels, weights):
        update_centroids(None, bank, batch(f, y, w), domain)  # a seen history
    src, tgt = Tensor(rng.standard_normal((n, 8))), Tensor(rng.standard_normal((n, 8)))
    logits = Tensor(rng.standard_normal((2 * n, 1)))  # source rows, then target rows
    tape = Tape()
    src_wb = WeightedBatch(src, labels[0], weights[0])
    tgt_wb = WeightedBatch(tgt, labels[1], weights[1])
    update_centroids(tape, bank, src_wb, "source")
    update_centroids(tape, bank, tgt_wb, "target")
    parts = [
        centroid_alignment_loss(tape, bank),
        discriminative_alignment_loss(tape, src_wb, tgt_wb),
        domain_adversarial_loss(tape, sigmoid(tape, logits), n),
    ]
    tape.backward(weighted_sum(tape, parts, [3.0, 0.6, 1.0]))
    return tuple(p.values for p in parts) + (src.grad, tgt.grad, logits.grad)


@pytest.mark.parametrize("n", [50, 400])
def test_losses_bit_identical_to_the_unfused_chains(n, monkeypatch):
    fused = _alignment_step(n)
    monkeypatch.setattr(losses, "ratio", unfused_ratio)
    monkeypatch.setattr(losses, "binary_cross_entropy", unfused_binary_cross_entropy)
    monkeypatch.setattr(losses, "ema_matmul", unfused_ema_matmul)
    unfused = _alignment_step(n)
    for got, want in zip(fused, unfused):
        assert got.shape == want.shape
        assert (got == want).all()
