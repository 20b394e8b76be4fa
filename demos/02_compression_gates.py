"""The compression mechanics: relaxed gates, noise mixing, and both losses.

Each user's merged representation is blended with Gaussian noise according
to a per-user gate in (0, 1).  This demo shows how the relaxed Bernoulli
draw behaves across temperatures, what the noise mixing does to a batch,
and how the two compression losses move as gates open and close.

Run:  python demos/02_compression_gates.py
"""

import numpy as np
from scipy.special import expit

from crossrec.compression import (
    batch_statistics,
    gumbel_sigmoid,
    info_nce,
    kl_upper_bound,
    mix_noise,
)

rng = np.random.default_rng(0)

# --- The relaxed Bernoulli gate -------------------------------------------
# At high temperature the gate stays soft; as t -> 0 draws concentrate on
# {0, 1} and the fraction of "open" draws approaches sigmoid(logit).
logit = 0.8
draws = rng.uniform(1e-12, 1 - 1e-12, size=50_000)
print(f"gate logit {logit} -> sigmoid = {expit(logit):.4f}")
for temperature in (2.0, 0.5, 0.1, 0.02):
    gates = gumbel_sigmoid(logit, draws, temperature)
    print(
        f"  t={temperature:4}: mean gate {gates.mean():.4f}, "
        f"fraction above 1/2 {np.mean(gates > 0.5):.4f}, "
        f"fraction in (0.05, 0.95) {np.mean((gates > 0.05) & (gates < 0.95)):.4f}"
    )

# --- Noise mixing ----------------------------------------------------------
batch = rng.normal(size=(6, 4)) + np.array([2.0, -1.0, 0.0, 0.5])
mu, sigma = batch_statistics(batch)
gates = np.array([0.95, 0.8, 0.6, 0.4, 0.2, 0.05])
mixed, eps = mix_noise(batch, gates, mu, sigma, rng.normal(size=batch.shape))
print("\nper-user distance of the mixed representation from the original")
print("(open gates stay close, closed gates collapse toward the noise prior):")
for gate, distance in zip(gates, np.linalg.norm(mixed - batch, axis=1)):
    print(f"  gate {gate:.2f}: |mixed - original| = {distance:.3f}")

# --- The information bound -------------------------------------------------
# Closing every gate minimizes the bound; opening them all runs into the
# floored logarithm and a large penalty.
print("\ninformation bound as all gates move together:")
for level in (0.05, 0.25, 0.5, 0.75, 0.95):
    value = kl_upper_bound(np.full(6, level), batch, mu, sigma)
    print(f"  gate {level:.2f}: bound = {value:+.4f}")

# --- The contrastive alignment ---------------------------------------------
# Aligned pairs produce a small loss; shuffling the pairing destroys it.
targets = rng.normal(size=(6, 4))
aligned = targets + 0.05 * rng.normal(size=(6, 4))
shuffled = aligned[rng.permutation(6)]
print("\ncontrastive alignment (tau = 0.2):")
print(f"  aligned pairs:  {info_nce(targets, aligned, tau=0.2).loss:.4f}")
print(f"  shuffled pairs: {info_nce(targets, shuffled, tau=0.2).loss:.4f}")
