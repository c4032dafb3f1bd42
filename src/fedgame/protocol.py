"""Federated round orchestration, accounting, and experiment running.

One round has three phases.  (a) Every participating client fine-tunes
its private model on local data under the proximal objective and
uploads the parameter difference against the current consensus model.
(b) The server averages the differences into the consensus model,
takes one meta-loss training step on the aggregator, and computes each
client's personalized head update from noise-free attention.  (c) Each
client adds its personalized head update; the fine-tune that completes
the update happens at the start of the next round.

The server side of a round works on one matrix with a row per
participant, in sorted-id order: the differences, their mean, the head
columns sent to the aggregator and the personalized updates are each
one call on it.

The round state holds the consensus as a model, the same record a
client's model is: read-only flat values plus the forecaster config
that plans their layout.  Models are never written in place, so states
share them: every client starts from the consensus object itself, and
a ``fedavg`` participant ends its round holding the new consensus.

Rounds are atomic: the caller's state is never mutated, and a round
that raises leaves it and the caller's aggregator untouched.  The meta
step runs on a shallow copy of the aggregator and rebinds arrays
instead of writing them; a round that succeeds commits it by rebinding
the caller's aggregator to the copy's arrays.  No state holds a
generator: batch orders (``client:<id>``), participation (``server``)
and gate noise (``gate_noise``) come from :func:`round_stream`, a pure
function of (master seed, role, round), so neither scheduling order
nor participation history changes what a client draws.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .aggregator import (
    AggregatorConfig,
    AggregatorState,
    aggregate_game,
    aggregate_mean,
    aggregate_single_attention,
    init_aggregator,
    register_client,
    train_step,
    uniform_attention,
)
from .data import make_windows, load_csv, synth_generate
from .errors import ConfigError, FedGameError, UsageError, as_type, too_small, typed_fields
from .forecaster import ForecasterConfig, ForecasterModel, build_spec, init_forecaster, local_train
from .metrics import EvalReport, evaluate
from .params import (
    add_scaled,
    compute_delta,
    head_length,
    mean_deltas,
    scatter_head,
    select_head_values,
    total_params,
)

AGGREGATOR_KINDS = ("game", "mean", "single_attention", "fedavg", "fedprox_only", "local_only")
PERSONALIZED_KINDS = ("game", "mean", "single_attention")
BYTES_PER_PARAM = 8


def seed_stream(master_seed: int, name: str) -> np.random.Generator:
    """Independent generator for a named role under one master seed.

    The stream depends only on (master_seed, name), so adding clients
    or reordering work never perturbs existing streams.
    """
    return np.random.default_rng(np.random.SeedSequence([master_seed] + list(name.encode())))


class _Unseeded(np.random.bit_generator.ISeedSequence):
    """Zeros, to seed a bit generator whose state is overwritten at once."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_UNSEEDED = _Unseeded()


@functools.lru_cache(maxsize=1024)  # bounded for long sweeps over many seeds
def _role_state(master_seed: int, role: str) -> dict:
    return seed_stream(master_seed, role).bit_generator.state


def round_stream(master_seed: int, role: str, round_index: int) -> np.random.Generator:
    """``seed_stream(master_seed, role)`` advanced by round_index * 2**64
    draws, more than a round takes, so rounds never overlap.  Round 0 is
    that stream itself: a set-up role must not also be a round role."""
    bit_generator = np.random.PCG64(_UNSEEDED)
    bit_generator.state = _role_state(master_seed, role)
    bit_generator.advance(round_index << 64)
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class HyperParams:
    """Protocol-level knobs for one experiment."""

    rounds: int
    eta: float = 1.0
    gamma: float = 1.0
    aggregator_kind: str = "game"
    participation: float = 1.0

    def __post_init__(self) -> None:
        problems, bad = typed_fields(self)
        problems += too_small(self, ("rounds", "eta", "gamma"), 0, bad)
        if "aggregator_kind" not in bad and self.aggregator_kind not in AGGREGATOR_KINDS:
            problems.append(
                f"aggregator_kind must be one of {list(AGGREGATOR_KINDS)}, "
                f"got {self.aggregator_kind!r}"
            )
        if "participation" not in bad and not 0.0 < self.participation <= 1.0:
            problems.append(f"participation must lie in (0, 1], got {self.participation}")
        if problems:
            raise ConfigError(*problems)


@dataclass
class RoundState:
    """Everything that persists between rounds on clients and server."""

    round_index: int
    global_model: ForecasterModel
    client_models: dict[str, ForecasterModel]
    master_seed: int


@dataclass
class RoundReport:
    """Diagnostics for one completed round.

    ``attention[i, j]`` is client ``client_ids[i]``'s weight on client
    ``client_ids[j]`` (zero diagonal, zero rows for kinds without
    attention).  The serialized form leaves out the attention matrix,
    whose one on-disk copy is ``attention.csv`` (off-diagonal entries
    only), and ``wall_time``, which is informational only and would
    keep reruns from being byte-identical.
    """

    round_index: int
    client_ids: tuple[str, ...]
    train_losses: dict[str, float]
    meta_loss: float
    attention: np.ndarray
    gate_mixes: dict[str, tuple[float, ...]]
    upstream_bytes: int
    downstream_bytes: int
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "client_ids": list(self.client_ids),
            "train_losses": {k: self.train_losses[k] for k in sorted(self.train_losses)},
            "meta_loss": self.meta_loss,
            "gate_mixes": {k: list(self.gate_mixes[k]) for k in sorted(self.gate_mixes)},
            "upstream_bytes": self.upstream_bytes,
            "downstream_bytes": self.downstream_bytes,
        }


def init_round_state(cfg: ForecasterConfig, client_ids, master_seed: int) -> RoundState:
    """Consensus model, shared by every client, and the master seed."""
    master_seed = as_type("master_seed", int, master_seed)
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")
    ids = sorted(str(c) for c in client_ids)
    if not ids:
        raise ConfigError("need at least one client")
    if len(set(ids)) != len(ids):
        raise ConfigError("client ids must be unique")
    global_model = init_forecaster(cfg, seed_stream(master_seed, "init"))
    return RoundState(
        round_index=0,
        global_model=global_model,
        client_models={c: global_model for c in ids},
        master_seed=master_seed,
    )


def round_traffic(n_clients: int, total: int, head: int, aggregator_kind: str) -> dict:
    """Per-round exchanged parameter counts and the cost ratio.

    Upstream is one full model of ``total`` parameters per client;
    downstream adds the personalized ``head`` on top of the consensus
    broadcast.  The ratio is total traffic relative to the two
    full-model exchanges of plain consensus training, 1 + head/total/2
    for the personalized kinds.  ``local_only`` exchanges nothing.
    """
    if aggregator_kind not in AGGREGATOR_KINDS:
        raise ConfigError(f"unknown aggregator_kind {aggregator_kind!r}")
    if aggregator_kind == "local_only":
        return {"upstream": 0, "downstream": 0, "ratio": 0.0}
    if aggregator_kind in PERSONALIZED_KINDS:
        return {
            "upstream": n_clients * total,
            "downstream": n_clients * (total + head),
            "ratio": 1.0 + head / total / 2.0,
        }
    return {"upstream": n_clients * total, "downstream": n_clients * total, "ratio": 1.0}


def _select_participants(state: RoundState, hyper: HyperParams) -> list[str]:
    ids = sorted(state.client_models)
    if hyper.participation >= 1.0 or len(ids) == 1:
        return ids
    count = max(1, int(round(hyper.participation * len(ids))))
    rng = round_stream(state.master_seed, "server", state.round_index)
    return sorted(ids[i] for i in rng.choice(len(ids), size=count, replace=False))


def run_round(
    state: RoundState,
    hyper: HyperParams,
    aggregator: AggregatorState | None,
    train_data: dict,
) -> tuple[RoundState, RoundReport]:
    """One federated round; returns fresh state, never mutating the input.

    ``train_data`` maps client id to its training windows.  For the
    personalized kinds ``aggregator`` must be provided; its parameters
    advance by one meta-loss step inside the round, and only when the
    round succeeds.
    """
    started = time.perf_counter()
    kind = hyper.aggregator_kind
    if kind in PERSONALIZED_KINDS and aggregator is None:
        raise UsageError(f"aggregator_kind {kind!r} needs an aggregator state")
    for cid in state.client_models:
        if cid not in train_data or len(train_data[cid]) == 0:
            raise UsageError(f"client {cid!r} has no training data")

    seed, r = state.master_seed, state.round_index
    # models are read-only and shared, so the caller's state stays unwritten
    new_state = RoundState(r, state.global_model, dict(state.client_models), seed)
    # the meta step rebinds arrays and never writes them, so it runs on a
    # shallow copy until the round can no longer fail
    server = replace(aggregator) if kind in ("game", "single_attention") else aggregator
    spec = new_state.global_model.spec
    participants = _select_participants(new_state, hyper)

    trained = local_train(
        {cid: new_state.client_models[cid] for cid in participants},
        train_data,
        new_state.global_model,
        {cid: round_stream(seed, f"client:{cid}", r) for cid in participants},
    )
    train_losses = {cid: trained[cid][1] for cid in participants}
    # one row per participant, in sorted-id order
    private = np.stack([trained[cid][0] for cid in participants])
    deltas = compute_delta(private, new_state.global_model.values, spec)

    if kind != "local_only":
        new_state.global_model = new_state.global_model.with_params(
            add_scaled(new_state.global_model.values, mean_deltas(deltas), hyper.eta)
        )

    heads = select_head_values(deltas, spec)
    meta = 0.0
    gate_mixes: dict[str, tuple[float, ...]] = {}
    attention = np.zeros((len(participants), len(participants)))
    if kind in ("game", "single_attention"):
        if len(participants) >= 2:
            meta = train_step(server, participants, heads, round_stream(seed, "gate_noise", r))
        aggregate = aggregate_game if kind == "game" else aggregate_single_attention
        personalized, attention, mix, _ = aggregate(server, participants, heads)
        gate_mixes = {cid: tuple(row) for cid, row in zip(participants, mix.tolist())}
    elif kind == "mean":
        personalized = aggregate_mean(heads, aggregator.config.w_self)
        attention = uniform_attention(len(participants))

    if kind in PERSONALIZED_KINDS:
        private = add_scaled(private, scatter_head(spec, personalized), hyper.gamma)
    # each participant's new model is built once, from its final row;
    # a fedavg participant holds the new consensus itself
    for k, cid in enumerate(participants):
        new_state.client_models[cid] = (
            new_state.global_model if kind == "fedavg"
            else new_state.client_models[cid].with_params(private[k])
        )

    traffic = round_traffic(len(participants), total_params(spec), head_length(spec), kind)
    report = RoundReport(
        round_index=new_state.round_index,
        client_ids=tuple(participants),
        train_losses=train_losses,
        meta_loss=meta,
        attention=attention,
        gate_mixes=gate_mixes,
        upstream_bytes=traffic["upstream"] * BYTES_PER_PARAM,
        downstream_bytes=traffic["downstream"] * BYTES_PER_PARAM,
        wall_time=time.perf_counter() - started,
    )
    new_state.round_index += 1
    if server is not aggregator:
        # the round can no longer fail: commit the meta step by rebinding
        # the caller's aggregator to the copy's arrays
        vars(aggregator).update(vars(server))
    return new_state, report


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bundle of every knob an experiment needs.

    ``csv_path = None`` selects the synthetic generator.  The split
    fractions apply per client series, chronologically.

    Construction checks and normalizes every value by its annotation,
    then this class checks its own and cross-field rules and builds the
    forecaster, aggregator and protocol configs, which check theirs, so
    one :class:`ConfigError` lists every problem.
    """

    csv_path: str | None = None
    n_clients: int = 4
    n_clusters: int = 2
    series_length: int = 400
    noise_sd: float = 0.1
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    history_len: int = 12
    horizon: int = 2
    quantiles: tuple[float, ...] = (0.1, 0.5, 0.9)
    hidden_sizes: tuple[int, ...] = (32,)
    arch: str = "mlp"
    local_lr: float = 0.0005
    local_epochs: int = 1
    prox_mu: float = 0.2
    batch_size: int = 32
    embed_dim: int = 64
    num_experts: int = 4
    top_k: int = 2
    temperature: float = 1.0
    w_self: float = 0.6
    alpha: float = 0.5
    beta: float = 0.5
    server_lr: float = 1e-3
    noise_enabled: bool = True
    rounds: int = 10
    eta: float = 1.0
    gamma: float = 1.0
    aggregator_kind: str = "game"
    participation: float = 1.0
    master_seed: int = 0
    output_dir: str = "out"
    baselines: tuple[str, ...] = ("game", "mean", "single_attention", "fedavg", "local_only")
    published_total_params: int | None = None
    published_head_params: int | None = None

    def __post_init__(self) -> None:
        problems, bad = typed_fields(self)
        problems += too_small(self, ("n_clients", "n_clusters", "series_length"), 1, bad)
        problems += too_small(self, ("noise_sd", "master_seed"), 0, bad)
        if bad.isdisjoint(("train_frac", "val_frac", "test_frac")):
            fracs = self.splits()
            if any(f < 0 for f in fracs):
                problems.append("train_frac, val_frac, test_frac must be >= 0")
            elif not abs(sum(fracs) - 1.0) <= 1e-9:
                problems.append(f"train_frac, val_frac, test_frac must sum to 1, got {sum(fracs)}")
        if bad.isdisjoint(("n_clusters", "n_clients")) and self.n_clusters > self.n_clients:
            problems.append(
                f"n_clusters must not exceed n_clients "
                f"(n_clusters={self.n_clusters}, n_clients={self.n_clients})"
            )
        if self.arch == "mlp" and "hidden_sizes" not in bad and not self.hidden_sizes:
            # a layerless MLP is all output head and leaves no shared body;
            # ForecasterConfig rejects a layerless LSTM itself
            problems.append("hidden_sizes must not be empty")
        if "baselines" not in bad:
            if not self.baselines:
                problems.append("baselines must not be empty")
            unknown = [b for b in self.baselines if b not in AGGREGATOR_KINDS]
            if unknown:
                problems.append(f"baselines contains unknown kinds {unknown}")
        published = tuple(k for k in ("published_total_params", "published_head_params")
                          if getattr(self, k) is not None)
        small = too_small(self, published, 1, bad)
        problems += small
        counts = None
        try:
            counts = self.param_counts()
        except ConfigError as exc:
            problems.extend(exc.problems)
        for build in (self.aggregator_config, self.hyper_params):
            try:
                build()
            except ConfigError as exc:
                problems.extend(exc.problems)
        # a published count must leave a shared body: 0 < head < total
        if (published and not small and bad.isdisjoint(published)
                and counts and counts[1] >= counts[0]):
            problems.append(
                f"{' and '.join(published)}: the head count {counts[1]} must be smaller "
                f"than the total count {counts[0]}"
            )
        if problems:
            # a type problem of a field the sub-configs share is found twice
            raise ConfigError(*dict.fromkeys(problems))

    def param_counts(self) -> tuple[int, int]:
        """(total, head) parameter counts of the configured model.

        Published counts, when set, replace the counts derived from the
        layer layout.
        """
        spec = build_spec(self.forecaster_config())
        return (self.published_total_params or total_params(spec),
                self.published_head_params or head_length(spec))

    def _sub_config(self, cls, **changes):
        """A ``cls`` of this config's values for the fields it shares by
        name, with ``changes`` on top."""
        values = {key: getattr(self, key) for key in cls.__dataclass_fields__
                  if key in self.__dataclass_fields__}
        return cls(**{**values, **changes})

    def forecaster_config(self, kind: str | None = None) -> ForecasterConfig:
        """Client settings; consensus-only kinds drop the proximal pull."""
        cfg = self._sub_config(ForecasterConfig)
        if (kind or self.aggregator_kind) in ("fedavg", "local_only"):
            cfg = replace(cfg, prox_mu=0.0)
        return cfg

    def aggregator_config(self, kind: str | None = None) -> AggregatorConfig:
        """Server settings; the single-attention baseline degenerates."""
        cfg = self._sub_config(AggregatorConfig)
        if (kind or self.aggregator_kind) == "single_attention":
            cfg = replace(cfg, num_experts=1, top_k=1, noise_enabled=False)
        return cfg

    def hyper_params(self, kind: str | None = None) -> HyperParams:
        return self._sub_config(HyperParams, aggregator_kind=kind or self.aggregator_kind)

    def splits(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)


@dataclass
class RunResult:
    """Everything an experiment produces, reports plus final state."""

    aggregator_kind: str
    reports: list[RoundReport]
    eval_report: EvalReport
    cluster_labels: dict[str, int] | None
    state: RoundState
    aggregator: AggregatorState | None


def _load_shards(config: ExperimentConfig):
    if config.csv_path:
        try:
            return load_csv(config.csv_path)
        except OSError as exc:
            raise ConfigError(f"csv_path: cannot read CSV file: {exc}") from exc
    return synth_generate(
        config.n_clients,
        config.n_clusters,
        config.series_length,
        config.noise_sd,
        seed_stream(config.master_seed, "data"),
    )


def run_experiment(config: ExperimentConfig, aggregator_kind: str | None = None) -> RunResult:
    """Run the full protocol once and evaluate the personalized models.

    ``aggregator_kind`` overrides the configured kind but reuses every
    seed stream, which is what makes ablation rows comparable.
    """
    kind = aggregator_kind or config.aggregator_kind
    hyper = config.hyper_params(kind)
    fcfg = config.forecaster_config(kind)

    shards = _load_shards(config)
    labels = None
    if all(s.cluster_label is not None for s in shards):
        labels = {s.client_id: int(s.cluster_label) for s in shards}
    windows = {s.client_id: make_windows(s, fcfg.history_len, fcfg.horizon, config.splits())
               for s in shards}
    short = sorted(cid for cid, w in windows.items() if not (len(w["train"]) and len(w["test"])))
    if short:
        raise ConfigError(
            f"series too short for history_len={fcfg.history_len} and "
            f"horizon={fcfg.horizon}: clients {short} need at least one train "
            f"and one test window"
        )
    train_data = {cid: w["train"] for cid, w in windows.items()}
    test_data = {cid: w["test"] for cid, w in windows.items()}

    state = init_round_state(fcfg, list(train_data), config.master_seed)
    aggregator = None
    if kind in PERSONALIZED_KINDS:
        rng = seed_stream(config.master_seed, "aggregator")
        head = head_length(state.global_model.spec)
        aggregator = init_aggregator(config.aggregator_config(kind), head, rng)
        register_client(aggregator, list(train_data), rng)

    reports = []
    for _ in range(hyper.rounds):
        try:
            state, report = run_round(state, hyper, aggregator, train_data)
        except FedGameError as exc:
            raise type(exc)(f"round {state.round_index}: {exc}") from exc
        reports.append(report)

    eval_report = evaluate(state.client_models, test_data)
    return RunResult(
        aggregator_kind=kind,
        reports=reports,
        eval_report=eval_report,
        cluster_labels=labels,
        state=state,
        aggregator=aggregator,
    )


def _row_entropy(row: np.ndarray) -> float:
    positive = row[row > 0]
    return float(-np.sum(positive * np.log(positive)))


def attention_diagnostics(
    reports: list[RoundReport], labels: dict[str, int] | None = None
) -> list[dict]:
    """Per-round attention statistics: entropy, variance, cluster mass.

    Entropy and variance are over off-diagonal weights; with cluster
    labels available, ``intra_cluster_mass`` is the mean total weight
    each client puts on same-cluster peers.
    """
    out = []
    for report in reports:
        ids = report.client_ids
        matrix = np.asarray(report.attention)
        n = len(ids)
        off_diag = matrix[~np.eye(n, dtype=bool)] if n > 1 else np.zeros(0)
        entry = {
            "round": report.round_index,
            "entropy": float(np.mean([_row_entropy(matrix[i]) for i in range(n)])) if n else 0.0,
            "variance": float(np.var(off_diag)) if off_diag.size else 0.0,
            "intra_cluster_mass": None,
        }
        if labels is not None and n > 1:
            masses = []
            for i, cid in enumerate(ids):
                peers = [j for j, other in enumerate(ids) if other != cid
                         and labels[other] == labels[cid]]
                masses.append(math.fsum(matrix[i, j] for j in peers))
            entry["intra_cluster_mass"] = float(np.mean(masses))
        out.append(entry)
    return out
