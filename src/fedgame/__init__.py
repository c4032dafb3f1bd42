"""Personalized federated learning for probabilistic forecasting.

Clients train private quantile-regression forecasters and exchange
parameter differences with a server that keeps a consensus model and
learns, per client, how to mix the other clients' output-head updates
through gated expert scoring and attention.  Everything runs on numpy
with explicit gradients, one master seed, and exact reproducibility.
"""

from .aggregator import (
    AggregatorConfig,
    AggregatorState,
    AttentionRow,
    aggregate_game,
    aggregate_mean,
    aggregate_single_attention,
    init_aggregator,
    mean_meta_loss,
    meta_gradient,
    meta_loss,
    register_client,
    train_step,
)
from .data import (
    SeriesShard,
    WindowedDataset,
    load_csv,
    make_windows,
    shards_to_csv,
    synth_generate,
)
from .errors import (
    ConfigError,
    FedGameError,
    FormatError,
    NumericError,
    StructuralError,
    UsageError,
)
from .forecaster import (
    ForecasterConfig,
    ForecasterModel,
    build_spec,
    init_forecaster,
    local_train,
    pinball_loss,
    task_gradient,
    task_loss,
)
from .metrics import ClientScore, EvalReport, evaluate, icp, mil, quantile_score
from .params import (
    LayerSpec,
    add_scaled,
    compute_delta,
    cosine_similarity,
    head_indices,
    head_length,
    mean_deltas,
    scatter_head,
    select_head_values,
    total_params,
)
from .protocol import (
    AGGREGATOR_KINDS,
    ExperimentConfig,
    HyperParams,
    RoundReport,
    RoundState,
    RunResult,
    attention_diagnostics,
    init_round_state,
    round_traffic,
    run_experiment,
    run_round,
    seed_stream,
)

__version__ = "0.1.0"
