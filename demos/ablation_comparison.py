"""
Swapping the server aggregator
==============================

Runs the same clustered federation once per aggregation rule, holding
every seed fixed, so differences come only from how the server mixes
client updates.  Also tracks how the learned attention sharpens onto
cluster peers over the rounds, next to the parameter-free cosine
attention of ``single_attention``.
"""

import numpy as np

from fedgame import ExperimentConfig, attention_diagnostics, run_experiment

config = ExperimentConfig(
    n_clients=8, n_clusters=2, series_length=480, noise_sd=0.15,
    history_len=12, horizon=2, hidden_sizes=(32,),
    local_lr=0.005, prox_mu=0.2,
    embed_dim=16, num_experts=4, top_k=2, server_lr=0.02,
    rounds=30, gamma=0.1, master_seed=0,
)

print(f"{'method':18s} {'QS':>8s} {'MIL':>8s} {'ICP':>8s}")
results = {}
for kind in ("game", "mean", "single_attention", "fedavg", "local_only"):
    results[kind] = run_experiment(config, kind)
    report = results[kind].eval_report
    print(f"{kind:18s} {report.macro_qs:8.4f} {report.macro_mil:8.4f} "
          f"{report.macro_icp:8.4f}")

# The learned aggregator should concentrate attention within clusters.
# single_attention is the parameter-free reference: cosine attention
# over the head deltas, which reads the clusters off the deltas alone.
game, cosine = (attention_diagnostics(results[kind].reports, results[kind].cluster_labels)
                for kind in ("game", "single_attention"))
print("\nattention structure during training (game, and single_attention's intra-cluster mass):")
print(f"{'round':>5s} {'entropy':>8s} {'variance':>10s} {'intra-cluster':>14s} {'cosine':>8s}")
for entry, reference in list(zip(game, cosine))[::5] + [(game[-1], cosine[-1])]:
    print(f"{entry['round'] + 1:5d} {entry['entropy']:8.4f} "
          f"{entry['variance']:10.6f} {entry['intra_cluster_mass']:14.4f} "
          f"{reference['intra_cluster_mass']:8.4f}")
