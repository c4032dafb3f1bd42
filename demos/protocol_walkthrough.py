"""
One federated round, step by step
=================================

Builds a four-client federation on synthetic demand series and walks
through what a single round does: local proximal training, delta
upload, consensus averaging, and the personalized head update.
"""

import numpy as np

from fedgame import (
    AggregatorConfig,
    ForecasterConfig,
    HyperParams,
    init_aggregator,
    init_round_state,
    make_windows,
    register_client,
    run_round,
    seed_stream,
    synth_generate,
)
from fedgame.params import head_length

MASTER_SEED = 7

# Synthetic fleet: two clusters of stations with different daily shapes.
shards = synth_generate(n_clients=4, n_clusters=2, length=300, noise_sd=0.1,
                        seed=seed_stream(MASTER_SEED, "data"))
for shard in shards:
    print(f"{shard.client_id}: cluster {shard.cluster_label}, "
          f"mean demand {shard.values.mean():.3f} kWh")

cfg = ForecasterConfig(history_len=12, horizon=2, quantiles=(0.1, 0.5, 0.9),
                       hidden_sizes=(16,), local_lr=0.01)
windows = {s.client_id: make_windows(s, cfg.history_len, cfg.horizon, (0.7, 0.1, 0.2))
           for s in shards}
train = {cid: w["train"] for cid, w in windows.items()}
print(f"\ntraining windows per client: {[len(d) for d in train.values()]}")

# Server side: one consensus model that every client starts from (models
# are read-only, so they share it), and the master seed.  No state holds
# a generator: each round draws from round_stream(seed, role, round).
state = init_round_state(cfg, list(train), MASTER_SEED)
setup_rng = seed_stream(MASTER_SEED, "aggregator")
aggregator = init_aggregator(AggregatorConfig(embed_dim=8, num_experts=4, top_k=2),
                             head_length(state.global_model.spec), setup_rng)
register_client(aggregator, list(train), setup_rng)

hyper = HyperParams(rounds=5, aggregator_kind="game", gamma=0.1)
# no copy needed: a round builds a new consensus instead of writing this one
consensus_before = state.global_model.values

for _ in range(hyper.rounds):
    state, report = run_round(state, hyper, aggregator, train)
    drift = np.linalg.norm(state.global_model.values - consensus_before)
    losses = ", ".join(f"{cid}={loss:.4f}" for cid, loss in report.train_losses.items())
    print(f"\nround {report.round_index}: train losses {losses}")
    print(f"  meta loss {report.meta_loss:.6f}, consensus moved {drift:.4f}")
    print(f"  bytes up {report.upstream_bytes}, down {report.downstream_bytes}")

# Each row of the attention matrix shows who a client listens to.
print("\nfinal attention (rows sum to 1, zero diagonal):")
for i, cid in enumerate(report.client_ids):
    row = " ".join(f"{w:.3f}" for w in report.attention[i])
    print(f"  {cid}: {row}")
