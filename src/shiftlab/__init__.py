"""Synthetic two-domain benchmark lab for imbalanced domain adaptation.

The package trains a small adversarial adaptation model whose target
pseudo-labels are corrected for label shift, and ships the data
generators, training loop, and experiment drivers needed to reproduce the
benchmark trends end to end.
"""
from __future__ import annotations

from .autodiff import Tape, TapeError, Tensor, ShapeError
from .calibration import (
    LabelShiftState,
    PseudoLabels,
    calibrate,
    estimate_target_distribution,
    shift_metric,
    source_distribution,
    weighting_matrix,
)
from .data import (
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
from .experiments import (
    AblationMask,
    ExperimentConfig,
    OutputExistsError,
    RunReport,
    ablate,
    parse_config,
    run_experiment,
    run_single,
    sweep_if,
)
from .losses import (
    CentroidBank,
    WeightedBatch,
    centroid_alignment_loss,
    cross_entropy,
    discriminative_alignment_loss,
    domain_adversarial_loss,
    update_centroids,
)
from .metrics import (
    EVALUATOR_ACCESS,
    make_audit_fn,
    per_class_accuracies,
    per_class_mean_accuracy,
    pseudo_label_audit,
    score_target,
    true_distribution,
)
from .networks import (
    CheckpointError,
    ModelConfig,
    ModelState,
    classify,
    discriminate,
    features,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .training import (
    ConfigError,
    EpochRecord,
    NumericError,
    TrainConfig,
    lr_schedule,
    run,
    train_step,
)

__version__ = "0.1.0"
