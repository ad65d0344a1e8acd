"""Quickstart: train the multimodal split-learning predictor end to end.

This script walks through the full pipeline on a small synthetic dataset:

1. generate a synthetic replica of the paper's depth-image / received-power
   dataset (a corridor with pedestrians crossing a 60 GHz link);
2. build sliding-window sequences (L = 4 frames, 120 ms prediction horizon);
3. train the proposed Img+RF split model with one-pixel pooling and the two
   baselines (Img-only, RF-only);
4. report validation RMSE and the simulated training wall-clock time, which
   includes the cut-layer transmissions over the wireless SL link.

Run with:  python examples/quickstart.py
"""
from __future__ import annotations

from repro.dataset import build_sequences, generate_small_dataset, temporal_split
from repro.split import ModelConfig, TrainingConfig
from repro.split.predictors import (
    ImageOnlyPredictor,
    MultimodalSplitPredictor,
    RFOnlyPredictor,
)


def main() -> None:
    image_size = 20
    print("Generating a small synthetic mmWave + depth-camera dataset ...")
    dataset = generate_small_dataset(num_samples=700, image_size=image_size, seed=7)
    print(
        f"  {len(dataset)} samples, {dataset.blockage_fraction:.0%} of frames "
        f"with a blocked line of sight"
    )

    sequences = build_sequences(dataset)
    split = temporal_split(sequences)
    print(f"  {len(split.train)} training windows, {len(split.validation)} validation windows")

    model_config = ModelConfig(
        image_height=image_size,
        image_width=image_size,
        pooling_height=image_size,  # one-pixel configuration
        pooling_width=image_size,
        cnn_channels=(4,),
        rnn_hidden_size=16,
    )
    training_config = TrainingConfig(batch_size=32, max_epochs=15, steps_per_epoch=4, seed=7)

    predictors = {
        "Img+RF (1-pixel)": MultimodalSplitPredictor(model_config, training_config),
        "Img-only (1-pixel)": ImageOnlyPredictor(model_config, training_config),
        "RF-only": RFOnlyPredictor(model_config, training_config),
    }

    print("\nTraining the three schemes compared in the paper ...")
    for name, predictor in predictors.items():
        history = predictor.fit(split.train, split.validation)
        print(
            f"  {name:<20s} best RMSE {history.best_rmse_db:5.2f} dB  "
            f"simulated training time {history.total_elapsed_s:6.2f} s  "
            f"({len(history.records)} epochs)"
        )

    best = min(predictors, key=lambda n: predictors[n].history.best_rmse_db)
    print(f"\nBest scheme on this run: {best}")


if __name__ == "__main__":
    main()
