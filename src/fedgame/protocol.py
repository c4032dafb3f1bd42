"""Federated round orchestration, accounting, and experiment running.

One round has three phases.  (a) Every participating client fine-tunes
its private model on local data under the proximal objective and
uploads the parameter difference against the current consensus model.
(b) The server averages the differences into the consensus model and
computes each client's personalized head update from attention,
under ``game`` after one meta-loss step on the aggregator.
(c) Each client adds its personalized head update; the fine-tune that
completes the update happens at the start of the next round.

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
generator: batch orders (``client:<id>``) and participation
(``server``) come from :func:`round_stream`, a pure function of
(master seed, role, round), so neither scheduling order nor
participation history changes what a client draws.
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

    def participant_count(self, n_clients: int) -> int:
        """How many of ``n_clients`` clients take part in each round."""
        return max(1, round(self.participation * n_clients))


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
    count = hyper.participant_count(len(ids))
    if count == len(ids):
        return ids
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
    personalized kinds ``aggregator`` must be provided; under ``game``
    its parameters advance by one meta-loss step inside the round, and
    only when the round succeeds.
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
    server = replace(aggregator) if kind == "game" else aggregator
    spec = new_state.global_model.spec
    participants = _select_participants(new_state, hyper)

    # one row per participant, in sorted-id order
    private, losses = local_train(
        new_state.global_model.config, participants,
        np.stack([new_state.client_models[cid].values for cid in participants]),
        [train_data[cid] for cid in participants], new_state.global_model.values,
        [round_stream(seed, f"client:{cid}", r) for cid in participants],
    )
    deltas = compute_delta(private, new_state.global_model.values, spec)

    if kind != "local_only":
        new_state.global_model = new_state.global_model.with_params(
            add_scaled(new_state.global_model.values, mean_deltas(deltas), hyper.eta)
        )

    heads = select_head_values(deltas, spec)
    meta = 0.0
    gate_mixes: dict[str, tuple[float, ...]] = {}
    attention = np.zeros((len(participants), len(participants)))
    if kind == "game":
        if len(participants) >= 2:
            meta = train_step(server, participants, heads)
        personalized, attention, mix, _ = aggregate_game(server, participants, heads)
        gate_mixes = {cid: tuple(row) for cid, row in zip(participants, mix.tolist())}
    elif kind == "single_attention":
        personalized, attention = aggregate_single_attention(aggregator, participants, heads)
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
        train_losses=dict(zip(participants, losses.tolist())),
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
class ExperimentConfig(HyperParams, AggregatorConfig, ForecasterConfig):
    """Flat bundle of every knob an experiment needs: the forecaster,
    aggregator and protocol fields it inherits, plus its own.

    ``csv_path = None`` selects the synthetic generator.  Each client's
    series splits chronologically: its first ``train_frac`` trains, and
    the rest is the test segment the final evaluation scores.

    Construction checks and normalizes every value by its annotation,
    then this class checks its own and cross-field rules and builds the
    forecaster, aggregator and protocol configs, which check theirs, so
    one :class:`ConfigError` lists every problem.
    """

    # required by the sub-configs, defaulted for an experiment
    history_len: int = 12
    horizon: int = 2
    rounds: int = 10
    csv_path: str | None = None
    n_clients: int = 4
    n_clusters: int = 2
    series_length: int = 400
    noise_sd: float = 0.1
    train_frac: float = 0.7
    master_seed: int = 0
    output_dir: str = "out"
    published_total_params: int | None = None
    published_head_params: int | None = None

    def __post_init__(self) -> None:
        problems, bad = typed_fields(self)
        problems += too_small(self, ("n_clients", "n_clusters", "series_length"), 1, bad)
        problems += too_small(self, ("noise_sd", "master_seed"), 0, bad)
        if "csv_path" not in bad and self.csv_path == "":
            problems.append("csv_path must not be empty; null selects the synthetic generator")
        if "output_dir" not in bad and self.output_dir == "":
            problems.append("output_dir must not be empty")
        if "train_frac" not in bad and not 0.0 < self.train_frac < 1.0:
            problems.append(f"train_frac must lie in (0, 1), got {self.train_frac}")
        # the synthetic generator's rule: a CSV fleet takes its clients from its stations
        if (bad.isdisjoint(("n_clusters", "n_clients", "csv_path")) and self.csv_path is None
                and self.n_clusters > self.n_clients):
            problems.append(
                f"n_clusters must not exceed n_clients "
                f"(n_clusters={self.n_clusters}, n_clients={self.n_clients})"
            )
        if (bad.isdisjoint(("arch", "hidden_sizes")) and self.arch == "mlp"
                and not self.hidden_sizes):
            # a layerless MLP is all output head and leaves no shared body;
            # ForecasterConfig rejects a layerless LSTM itself
            problems.append("hidden_sizes must not be empty")
        published = tuple(k for k in ("published_total_params", "published_head_params")
                          if getattr(self, k) is not None)
        small = too_small(self, published, 1, bad)
        problems += small
        built = {}
        # not the kind builders: they compare aggregator_kind, maybe ill-typed
        for cls in (ForecasterConfig, AggregatorConfig, HyperParams):
            try:
                built[cls] = self._sub_config(cls)
            except ConfigError as exc:
                problems.extend(exc.problems)
        # a published count must leave a shared body: 0 < head < total
        if published and not small and bad.isdisjoint(published) and ForecasterConfig in built:
            total, head = self.param_counts()
            if head >= total:
                problems.append(
                    f"{' and '.join(published)}: the head count {head} must be smaller "
                    f"than the total count {total}"
                )
        if problems:
            # a type problem of a field the sub-configs share is found twice
            raise ConfigError(*dict.fromkeys(problems))

    def param_counts(self) -> tuple[int, int]:
        """(total, head) parameter counts of the configured model.

        Published counts, when set, replace the counts derived from the
        layer layout.
        """
        spec = build_spec(self._sub_config(ForecasterConfig))
        return (self.published_total_params or total_params(spec),
                self.published_head_params or head_length(spec))

    def _sub_config(self, cls, **changes):
        """A plain ``cls`` of this config's values for its fields, with
        ``changes`` on top."""
        return cls(**{**{key: getattr(self, key) for key in cls.__dataclass_fields__},
                      **changes})

    def forecaster_config(self, kind: str | None = None) -> ForecasterConfig:
        """Client settings; consensus-only kinds drop the proximal pull."""
        cfg = self._sub_config(ForecasterConfig)
        if self.hyper_params(kind).aggregator_kind in ("fedavg", "local_only"):
            cfg = replace(cfg, prox_mu=0.0)
        return cfg

    def aggregator_config(self) -> AggregatorConfig:
        """Server settings, the same for every kind."""
        return self._sub_config(AggregatorConfig)

    def hyper_params(self, kind: str | None = None) -> HyperParams:
        """Protocol settings; ``kind``, unless None, replaces the configured
        kind and is checked like it."""
        return self._sub_config(
            HyperParams, aggregator_kind=self.aggregator_kind if kind is None else kind)


@dataclass
class RunResult:
    """Everything an experiment produces, reports plus final state."""

    aggregator_kind: str
    reports: list[RoundReport]
    eval_report: EvalReport
    cluster_labels: dict[str, int] | None
    state: RoundState
    aggregator: AggregatorState | None


def load_shards(config: ExperimentConfig):
    """The fleet a run trains: the CSV file's stations, or the synthetic clients."""
    if config.csv_path is not None:
        try:
            shards = load_csv(config.csv_path)
        except OSError as exc:
            raise ConfigError(f"csv_path: cannot read CSV file: {exc}") from exc
        if not shards:
            raise ConfigError("csv_path: the CSV file has no data rows")
        return shards
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
    seed stream, which is what makes sweep cells comparable.
    """
    hyper = config.hyper_params(aggregator_kind)
    kind = hyper.aggregator_kind
    fcfg = config.forecaster_config(kind)

    shards = load_shards(config)
    labels = None
    if all(s.cluster_label is not None for s in shards):
        labels = {s.client_id: int(s.cluster_label) for s in shards}
    windows = {s.client_id: make_windows(s, fcfg.history_len, fcfg.horizon, config.train_frac)
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
        aggregator = init_aggregator(config.aggregator_config(), head, rng)
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
