"""Source-noise robustness: how performance degrades as junk is injected.

Contaminates the source training edges with growing fractions of uniformly
random interactions (the holdout stays fixed), retrains the full model and
the no-kl ablation at each ratio, and prints the test ranking quality plus
the degradation relative to the clean run.

Run:  python demos/04_noise_robustness.py          (a few minutes)
"""

import numpy as np

from crossrec.data import SynthSpec, generate_synthetic
from crossrec.evaluation import split_leave_one_out
from crossrec.training import TrainConfig
from crossrec.experiments import contaminate_split, run_ablation

SEED = 1
RATIOS = (0.0, 0.05, 0.10, 0.15, 0.20)
METRIC, K = "ndcg", 10

bundle, _ = generate_synthetic(SynthSpec(seed=SEED))
split = split_leave_one_out(bundle, SEED)
config = TrainConfig(
    seed=SEED,
    max_epochs=200,
    patience=0,
    learning_rate=0.1,
    batch_size=100,
    alphas=(0.133, 0.025, 0.076),
    gumbel_temperature=0.5,
    contrastive_temperature=0.5,
)

# each ratio contaminates the clean split with its own noise stream, the same
# for every variant, so the variants see identical noisy edges
curves = {}
for variant in ("full", "no-kl"):
    curves[variant] = {}
    for ratio in RATIOS:
        rng = np.random.default_rng(np.random.SeedSequence([SEED, int(round(ratio * 1000))]))
        noisy_split = contaminate_split(bundle, split, ratio, rng)
        result = run_ablation(variant, config, bundle, noisy_split, ks=(K,))
        curves[variant][ratio] = result.metric(METRIC, K)
    print(f"trained {variant} at ratios {RATIOS}")

header = "ratio    " + "".join(f"{r:>8.2f}" for r in RATIOS)
print("\nNDCG@10 across injected-noise ratios")
print(header)
for variant, curve in curves.items():
    print(f"{variant:<9}" + "".join(f"{curve[r]:>8.3f}" for r in RATIOS))

print("\nrelative degradation vs the clean run")
print(header)
for variant, curve in curves.items():
    # the clean NDCG@10 is nonzero at this seed
    degradations = [(curve[0.0] - curve[r]) / curve[0.0] for r in RATIOS]
    print(f"{variant:<9}" + "".join(f"{d:>8.1%}" for d in degradations))

print(
    "\nThe gating mechanism damps the contaminated source signal, so the"
    "\nfull model's degradation at the highest ratio should not exceed the"
    "\nno-kl ablation's (the acceptance suite checks the median over seeds)."
)
