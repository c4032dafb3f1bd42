"""
Inside the learned aggregator
=============================

Feeds hand-made head deltas through every stage of the server-side
aggregator: embedding, expert scoring, sparse gating, attention, and
the personalized delta, then trains the aggregator on a fixed batch
and watches the meta-loss fall.
"""

import numpy as np

from fedgame import (
    AggregatorConfig,
    aggregate_game,
    init_aggregator,
    mean_meta_loss,
    register_client,
    train_step,
)
from fedgame.aggregator import expert_scores

rng = np.random.default_rng(3)
cfg = AggregatorConfig(embed_dim=6, num_experts=4, top_k=2)
# The state holds no generator: init and registration draw from the one given.
server_rng = np.random.default_rng(42)
state = init_aggregator(cfg, head_dim=10, rng=server_rng)

# Two clients share a direction, the third points elsewhere.  The server
# sees a list of client ids and one matrix with a head delta per row.
shared = rng.normal(size=10)
ids = ["a", "b", "c"]
deltas = np.stack([
    shared + 0.05 * rng.normal(size=10),
    shared + 0.05 * rng.normal(size=10),
    -shared + 0.05 * rng.normal(size=10),
])
register_client(state, ids, server_rng)

# Stage 1: a shared affine encoder maps each head delta to an embedding.
embeddings = {cid: delta @ state.encoder_w + state.encoder_b for cid, delta in zip(ids, deltas)}
print("embedding norms:", {c: round(float(np.linalg.norm(e)), 3)
                           for c, e in embeddings.items()})

# Stage 2: per-client gates pick top-k experts and softmax their logits.
# One batched pass runs every stage for all clients; row i of its
# outputs belongs to ids[i], including each client's gate logits and the
# expert mix they selected.
out = aggregate_game(state, ids, deltas)
logits, mix = out.logits[0], out.mix[0]
print(f"client {ids[0]} logits {np.round(logits, 3)} -> expert mix {np.round(mix, 3)}")
print(f"nonzero experts: {np.count_nonzero(mix)} of {cfg.num_experts}")

# Stage 3: every expert scores every neighbor's embedding (the bias-free
# part; a shift shared by all neighbors cancels in the softmax), and the
# mix turns the expert scores into one relevance logit per neighbor.
scores = expert_scores(state, np.stack([embeddings[c] - state.encoder_b for c in "bc"]))
print(f"expert scores of b and c:\n{np.round(scores, 3)}")
print("client a's logits for b and c:", np.round(scores @ mix, 3))

# Stage 4: a softmax over those logits is the attention, and the
# personalized delta blends own and neighbor updates with it.
print("client a attends to",
      {j: round(float(w), 3) for j, w in zip(ids[1:], out.attention[0, 1:])})
for cid, pers, delta in zip(ids, out.personalized, deltas):
    align = float(np.dot(pers, delta) / (np.linalg.norm(pers) * np.linalg.norm(delta)))
    print(f"{cid}: |pers| {np.linalg.norm(pers):.3f}, "
          f"cosine to own delta {align:.3f}")

# Training aligns personalized deltas with the clients' raw deltas.
print("\nmeta-loss over 40 training steps:")
for step in range(40):
    loss = train_step(state, ids, deltas)
    if step % 10 == 0:
        print(f"  step {step:2d}: {loss:.6f}")
print(f"  final  : {mean_meta_loss(state, ids, deltas):.6f}")
