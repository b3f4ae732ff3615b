"""Training loop over synthetic transformation groupings (paper §5.1/§5.3).

The recipe: generate groupings, serialize size-3 subsets into
(prompt, label) instances, split 80/20 into train/validation, and run
Adam with gradient clipping until the epoch budget or early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.training import TrainingDataGenerator, TrainingInstance
from repro.model.seq2seq import ByteSeq2SeqModel
from repro.nn.optim import Adam, clip_gradients
from repro.utils.rng import derive_rng


@dataclass
class TrainingReport:
    """Loss trajectory of one training run.

    Attributes:
        train_losses: Mean training loss per epoch.
        validation_losses: Validation loss per epoch.
        epochs_run: Number of completed epochs.
    """

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    epochs_run: int = 0


class Trainer:
    """Fits a :class:`ByteSeq2SeqModel` on serialized instances.

    Args:
        model: The model to train.
        learning_rate: Adam step size.
        batch_size: Instances per step.
        clip_norm: Global-norm gradient clip.
        validation_fraction: Held-out fraction (paper uses 20%).
        patience: Early-stopping patience in epochs (0 disables).
        seed: Shuffling seed.
    """

    def __init__(
        self,
        model: ByteSeq2SeqModel,
        learning_rate: float = 3e-3,
        batch_size: int = 16,
        clip_norm: float = 1.0,
        validation_fraction: float = 0.2,
        patience: int = 0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in [0, 1), got {validation_fraction}"
            )
        self.model = model
        self.optimizer = Adam(model.network.parameters(), learning_rate)
        self.batch_size = batch_size
        self.clip_norm = clip_norm
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.seed = seed

    def fit(
        self, instances: list[TrainingInstance], epochs: int = 5
    ) -> TrainingReport:
        """Train for up to ``epochs`` epochs; returns the loss report."""
        if not instances:
            raise ValueError("no training instances")
        rng = derive_rng(self.seed, "trainer-shuffle")
        order = rng.permutation(len(instances))
        shuffled = [instances[int(i)] for i in order]
        cut = int(len(shuffled) * (1.0 - self.validation_fraction))
        cut = max(1, cut)
        train_set, validation_set = shuffled[:cut], shuffled[cut:]

        report = TrainingReport()
        bad_epochs = 0
        best = float("inf")
        for epoch in range(epochs):
            epoch_rng = derive_rng(self.seed, "epoch", epoch)
            epoch_order = epoch_rng.permutation(len(train_set))
            losses: list[float] = []
            for start in range(0, len(train_set), self.batch_size):
                batch = [
                    train_set[int(i)]
                    for i in epoch_order[start : start + self.batch_size]
                ]
                prompts = [b.prompt for b in batch]
                labels = [b.label for b in batch]
                self.optimizer.zero_grad()
                loss = self.model.loss_and_backward(prompts, labels)
                clip_gradients(self.optimizer.parameters, self.clip_norm)
                self.optimizer.step()
                losses.append(loss)
            report.train_losses.append(float(np.mean(losses)))
            if validation_set:
                validation_loss = self.model.evaluate_loss(
                    [v.prompt for v in validation_set],
                    [v.label for v in validation_set],
                )
            else:
                validation_loss = report.train_losses[-1]
            report.validation_losses.append(validation_loss)
            report.epochs_run = epoch + 1
            if self.patience:
                if validation_loss < best - 1e-4:
                    best = validation_loss
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    if bad_epochs >= self.patience:
                        break
        return report


def build_training_set(
    n_groupings: int,
    seed: int = 0,
    subsets_per_grouping: int = 4,
    min_length: int = 8,
    max_length: int = 35,
) -> list[TrainingInstance]:
    """Convenience: the paper's §5.1 corpus as serialized instances."""
    generator = TrainingDataGenerator(
        seed=seed, min_length=min_length, max_length=max_length
    )
    return generator.generate_instances(n_groupings, subsets_per_grouping)
