"""Which predictors matter, and which ensemble statistics carry the value?

Three diagnostics on a trained model, all built from permutation tests on
the test set:

* delta0 -- skill lost when one predictor channel is destroyed by a full
  random shuffle across samples (classical permutation importance).
* chi -- the fraction of that lost skill restored when the shuffle is
  constrained to preserve one summary statistic per sample.  chi close to
  one means that statistic is (nearly) sufficient for the model's use of
  the channel; close to zero means the model exploits something else.
* the preservation matrix -- a model-free sanity check: how well does
  conditioning the shuffle on statistic A preserve statistic B?  The
  diagonal should be near one for the binning to be trustworthy.

Runs in about a second on one core.
"""

import numpy as np

from enspost.data import SynthConfig, generate_synthetic, split_temporal
from enspost.importance import (SUMMARY_KINDS, PerturbationSpec, chi, delta0,
                                preservation_csv, preservation_matrix)
from enspost.models import ModelConfig
from enspost.train import train_model

dataset = generate_synthetic(SynthConfig(stations=8, days=1000, seed=5))
train, val, test = split_temporal(dataset, (0.7, 0.15, 0.15))

config = ModelConfig(architecture="drn", hidden_sizes=(32, 16),
                     latent_width=16, attention_heads=4,
                     n_attention_blocks=2, embedding_dim=4,
                     max_epochs=20, patience=5)
model, report = train_model(config, train, val)
print(f"trained {config.architecture} "
      f"(best val CRPS {min(report.val_crps):.4f})\n")

# ---- delta0: which channels does the model rely on? -----------------------
print("delta0 (CRPS increase under a full shuffle of one channel):")
for j, name in enumerate(test.predictor_names):
    d = delta0(model, test, PerturbationSpec(j, "fully_random", seed=0))
    print(f"  {name:12s} {d:+.4f}")
print("  (the identity perturbation is exactly zero: "
      f"{delta0(model, test)!r})\n")

# ---- chi: which statistic of the primary channel is sufficient? -----------
print("chi for the primary channel (1 = statistic fully explains the use):")
for stat in ("mean", "std", "skewness", "kurtosis"):
    c = chi(model, test, test.primary, stat, bins=50, seed=0)
    flag = "" if c.reliable else "  [unreliable: reference moved too little]"
    print(f"  {stat:9s} {c.value:+.3f}{flag}")
print("a summary model is driven by the ensemble mean, so conditioning on "
      "the mean restores\nnearly all skill while shape statistics do not\n")

# ---- preservation matrix: is the conditional shuffle well behaved? --------
mat = preservation_matrix(test, test.primary, bins=50, seed=0)
print("preservation matrix (rows: conditioning statistic, "
      "cols: preserved statistic):")
print(preservation_csv(mat, SUMMARY_KINDS))
print(f"diagonal minimum: {np.diag(mat).min():.4f}")
