"""Do the individual ensemble members carry information beyond mean/std?

The synthetic generator hides a location signal in the *skewness* of the
``aux_skew`` channel: its member mean and spread are pure noise, so any
model that only sees summary statistics cannot use it.  Permutation-
invariant set architectures (encoder-decoder "deep sets" and a set
transformer with attention pooling) read the full member set and can.

This script trains a summary DRN, an encoder-decoder DRN and a set
transformer DRN on the same data and compares test CRPS.  Expect the set
models to win by a clear margin.  The set-transformer pool is the slow
part; the whole script takes on the order of fifteen minutes.
"""

import numpy as np

from enspost.data import (SynthConfig, generate_synthetic, split_temporal,
                          summary_statistic)
from enspost.evaluation import resample_and_score
from enspost.importance import spearman
from enspost.models import ModelConfig
from enspost.train import train_pool

dataset = generate_synthetic(SynthConfig(stations=8, days=1000, seed=3))
train, val, test = split_temporal(dataset, (0.7, 0.15, 0.15))

# the hidden signal: skewness of the aux_skew channel predicts the
# observation residual, while its mean is uninformative
skew_col = list(test.predictor_names).index("aux_skew")
residual = test.obs - summary_statistic(test.ens[:, :, test.primary], "mean")
for stat in ("mean", "skewness"):
    rho = spearman(summary_statistic(test.ens[:, :, skew_col], stat),
                   residual)
    print(f"spearman(aux_skew {stat}, residual) = {rho:+.3f}")
print()

base = dict(hidden_sizes=(32, 16), latent_width=16, attention_heads=4,
            n_attention_blocks=2, embedding_dim=4,
            max_epochs=20, patience=5)
results = {}
for arch in ("drn", "ed-drn", "st-drn"):
    pool = train_pool(ModelConfig(architecture=arch, **base),
                      train, val, n=3, workers=3)
    _, summary = resample_and_score(pool, test, k=2, reps=10,
                                    rng=np.random.default_rng(2))
    results[arch] = summary
    print(f"{arch:7s} mean CRPS {summary['mean_crps']:.4f} "
          f"(resample spread {summary['spread']:.4f})")

gap_ed = results["drn"]["mean_crps"] - results["ed-drn"]["mean_crps"]
gap_st = results["drn"]["mean_crps"] - results["st-drn"]["mean_crps"]
print(f"\nset-model advantage over the summary DRN: "
      f"encoder-decoder {gap_ed:+.4f}, set transformer {gap_st:+.4f}")
print("positive gaps mean the member-level view recovered the hidden "
      "skewness signal")
