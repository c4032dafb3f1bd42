"""The benchmark's workloads, each a fedgame experiment config.

A run with workload seed ``S`` runs ``SEEDS_PER_RUN`` experiments with
master seeds ``S * SEEDS_PER_RUN + k``.  The final forecast score of one
experiment moves by 10-15% from one master seed to the next; the mean
over four moves about half as much, which keeps ``macro_qs`` inside its
bound across workload seeds.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

SEEDS_PER_RUN = 4
DEV_SEED = 0
HELD_OUT_SEED = 9001

# The acceptance end-to-end config (E2E in tests/test_acceptance.py).
ACCEPTANCE_E2E = dict(
    n_clients=8, n_clusters=2, series_length=480, noise_sd=0.15,
    history_len=12, horizon=2, hidden_sizes=(32,),
    local_lr=0.005, batch_size=32, prox_mu=0.2, local_epochs=1,
    embed_dim=16, num_experts=4, top_k=2, temperature=1.0,
    server_lr=0.02, noise_enabled=False,
    rounds=30, gamma=0.1, aggregator_kind="game",
)

# ``from_csv`` makes the benchmark write each master seed's synthetic
# series to a CSV file, which the experiment then reads with load_csv.
WORKLOADS = {
    "clustered_mlp": dict(ACCEPTANCE_E2E),
    "wide_server": dict(
        ACCEPTANCE_E2E, n_clients=32, n_clusters=4, series_length=160, rounds=4,
    ),
    "lstm_fedavg": dict(
        ACCEPTANCE_E2E, arch="lstm", hidden_sizes=(16,), series_length=240,
        rounds=10, aggregator_kind="fedavg", from_csv=True,
    ),
    # Tiny config for the harness's own smoke test; not in BENCHMARK.json.
    "smoke": dict(
        ACCEPTANCE_E2E, n_clients=3, n_clusters=1, series_length=160,
        hidden_sizes=(4,), embed_dim=4, rounds=2,
    ),
}


def master_seeds(seed: int) -> list[int]:
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]


def build_configs(fedgame, name: str, seed: int, data_dir: Path) -> list:
    """One ExperimentConfig per master seed of workload ``name``."""
    spec = dict(WORKLOADS[name])
    from_csv = spec.pop("from_csv", False)
    configs = []
    for master_seed in master_seeds(seed):
        config = fedgame.protocol.ExperimentConfig(**spec, master_seed=master_seed)
        if from_csv:
            # The same shards `fedgame synth` writes for this config.
            shards = fedgame.data.synth_generate(
                config.n_clients, config.n_clusters, config.series_length,
                config.noise_sd, fedgame.protocol.seed_stream(master_seed, "data"),
            )
            path = data_dir / f"{name}-{master_seed}.csv"
            fedgame.data.shards_to_csv(shards, path)
            config = replace(config, csv_path=str(path))
        configs.append(config)
    return configs
