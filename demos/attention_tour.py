"""Inspect the three attention families on a synthetic window.

The model here is freshly initialized, so the learned weights are close to
flat; the point is shapes, normalization, and how to read the outputs.
Run with `python3 demos/attention_tour.py`.
"""

import dataclasses
import sys

import numpy as np

from loadcast.attention import AttentionParams
from loadcast.data import (HOLIDAY_INDEX, HOUR_OFFSET, MONTH_OFFSET,
                           TEMPERATURE_INDEX, WEEKDAY_OFFSET, build_features,
                           build_windows, compute_stats, generate_synthetic,
                           standardize, synthetic_calendar)
from loadcast.model import ModelConfig, init_params, predict

GROUPS = (("temperature", TEMPERATURE_INDEX, HOLIDAY_INDEX),
          ("holiday flag", HOLIDAY_INDEX, HOUR_OFFSET),
          ("hour one-hot", HOUR_OFFSET, WEEKDAY_OFFSET),
          ("weekday one-hot", WEEKDAY_OFFSET, MONTH_OFFSET),
          ("month one-hot", MONTH_OFFSET, None))


def main():
    records = generate_synthetic(9, seed=11)
    frames = build_features(records, synthetic_calendar(records))
    config = ModelConfig(days=7, day_len=24, n_features=45, hidden_size=8,
                         feature_attn_size=4, temporal_attn_size=4,
                         head_size=8, seed=5)
    frames = standardize(frames, compute_stats(frames))
    sample = build_windows(frames, config)[0]
    params = init_params(config)
    fc = predict(params, config, sample, collect_attention=True)

    print(f"window starts {sample.start.isoformat()}; history is "
          f"{config.days} days of {config.day_len} hours\n")

    print("similar-day weights (one per history day, sum 1):")
    for day, weight in enumerate(fc.day_weights):
        bar = "#" * int(round(40 * weight))
        print(f"  day -{config.days - day}: {weight:.4f} {bar}")
    print(f"  sum = {fc.day_weights.sum():.15f}")

    # Hour weights: one row per forecast hour, one column per history hour.
    noon = fc.hour_weights[12]
    top = np.argsort(noon)[::-1][:5]
    print("\ntemporal weights for forecast hour 12, top history hours:")
    for flat in top:
        day, hour = divmod(int(flat), config.day_len)
        print(f"  day -{config.days - day} hour {hour:2d}: {noon[flat]:.4f}")

    # Feature weights: one row per history hour.  Group them to see where
    # the mass sits (an untrained scorer spreads it almost evenly).
    mean_weights = fc.feature_weights.mean(axis=0)
    print("\nmean feature weight by group (45 features total):")
    for name, start, stop in GROUPS:
        block = mean_weights[start:stop]
        print(f"  {name:16s} {block.sum():.4f} over {block.size} features")

    # With all-zero scorer parameters the softmax input is zero, so the
    # weights the model itself computes are exactly uniform, not just
    # approximately: every history hour weights all 45 features by 1/45.
    zeroed = dataclasses.replace(params, feature_attn=AttentionParams.zeros(
        config.hidden_size + config.encoder_input_width, config.n_features,
        config.feature_attn_size))
    weights = predict(zeroed, config, sample, collect_attention=True).feature_weights
    uniform = bool(np.all(weights == 1.0 / config.n_features))
    rows, cols = weights.shape
    print(f"\nzeroed scorer gives exactly uniform weights ({rows} x {cols}): {uniform}")
    return 0 if uniform else 1


if __name__ == "__main__":
    sys.exit(main())
