"""End-to-end walkthrough: raw ensemble -> EMOS -> neural postprocessing.

Generates a synthetic station/forecast dataset, fits a classical EMOS
baseline and a small distributional regression network (DRN), and compares
all three on the held-out test period: mean CRPS, prediction-interval
coverage and length, and PIT histograms.

Runs in a few seconds on one CPU core.  Increase ``DAYS`` (and the
epoch budget) for cleaner separations.
"""

import numpy as np

from enspost.data import SynthConfig, generate_synthetic, split_temporal
from enspost.evaluation import (model_mean_crps, nominal_pi_level, pit_csv,
                                raw_eps_report, report_table,
                                resample_and_score)
from enspost.models import ModelConfig
from enspost.train import train_pool

DAYS = 800
POOL = 3

# ---- data ---------------------------------------------------------------
# eight stations, a biased and underdispersed 20-member primary ensemble,
# plus auxiliary channels whose higher moments carry hidden signals
dataset = generate_synthetic(SynthConfig(stations=8, days=DAYS))
train, val, test = split_temporal(dataset, (0.7, 0.15, 0.15))
print(f"samples: train={len(train)} val={len(val)} test={len(test)}, "
      f"members={dataset.n_members}")

level = float(nominal_pi_level(dataset.n_members))
print(f"nominal PI level for M={dataset.n_members}: {100 * level:.2f}%")

# ---- raw ensemble baseline ----------------------------------------------
eps = raw_eps_report(test, rng=np.random.default_rng(0))

# ---- models ---------------------------------------------------------------
base = dict(hidden_sizes=(32, 16), latent_width=16, attention_heads=4,
            n_attention_blocks=2, embedding_dim=4,
            max_epochs=20, patience=5)
rows = {"eps": eps}
for arch in ("emos", "drn"):
    pool = train_pool(ModelConfig(architecture=arch, **base),
                      train, val, n=POOL)
    reports, summary = resample_and_score(
        pool, test, k=2, reps=10, rng=np.random.default_rng(1), level=level)
    rows[arch] = reports[int(np.argmin([r.mean_crps for r in reports]))]
    print(f"{arch}: pool of {POOL}, resampled mean CRPS "
          f"{summary['mean_crps']:.4f} (spread {summary['spread']:.4f})")

# ---- comparison -----------------------------------------------------------
print()
print(report_table(rows))
print("PIT histogram of the DRN aggregate (flat is calibrated):")
print(pit_csv(rows["drn"]))

single = model_mean_crps(pool.models[0], test)
print(f"single-model DRN CRPS {single:.4f} vs aggregated "
      f"{rows['drn'].mean_crps:.4f} -- pooling several seeds helps")
