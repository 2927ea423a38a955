"""FEDGUARD: selective parameter aggregation driven by synthetic validation
data (the paper's contribution — Section III, Algorithm 1).

Per federated round the server:

1. draws ``t`` latent samples ``z ~ N(0, I)`` and ``t`` conditioning labels
   ``y ~ Cat(L, alpha)`` (Alg. 1, lines 2-3);
2. runs every active client's uploaded CVAE decoder ``D_{θ_j}`` on the
   *same* ``([z_t], [y_t])`` to synthesize the round's validation set
   ``D_syn`` (line 4) — the union over decoders, so each client
   contributes ``t`` candidate samples;
3. evaluates each submitted classifier ψ_j on ``D_syn`` with the accuracy
   metric (line 5);
4. keeps exactly the updates scoring at or above the mean accuracy
   (line 6) and FedAvg's them (line 7).

Design knobs beyond the paper's defaults, all called out in its
"tuneable system" discussion:

* ``decoder_subset`` — use only a random subset of decoders for synthesis
  (trades validation-data diversity for server compute);
* ``samples_per_class`` — class-targeted generation quotas instead of
  uniform Cat(L, 1/L);
* ``inner_aggregator`` — the internal aggregation operator applied to the
  accepted updates (future-work §VI-C suggests GeoMed/FedProx here);
* the server learning rate lives in the *server* (Fig. 5), not here.

Both the multi-decoder synthesis and the per-update audit run on
client-batched models (:func:`repro.nn.stack_parameters`). All decoders
decode the shared latents in one stacked forward, bit-identical to the
per-decoder loop it replaces. All submitted classifiers score the
validation set through one stacked ``predict``, which walks the samples in
blocks whose activations fit
:data:`~repro.models.classifier.PREDICT_BLOCK_BYTES`, so the audit's memory
stays bounded as the m·t samples × m classifiers grow; the first conv
layer unfolds each shared block once for all m classifiers. Blocking can
move a logit in its last bits (BLAS panelling follows the block shape), so
only a near-exact tie between two logits could change a counted prediction.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .. import nn
from ..analysis.contracts import aggregate_contract
from ..fl.strategy import AggregationResult, ServerContext, Strategy, weighted_average
from ..fl.updates import ClientUpdate

__all__ = ["FedGuard"]


class FedGuard(Strategy):
    """Selective parameter aggregation with CVAE-synthesized validation data.

    Parameters
    ----------
    samples_per_decoder:
        ``t`` of Alg. 1 — latent/conditioning samples drawn per round and
        decoded by every client decoder. ``None`` uses the context's
        configured ``t_samples`` (paper: t = 2·m).
    decoder_subset:
        If set, only this many randomly chosen decoders synthesize data
        each round (tuneable-overhead knob). ``None`` = all active clients.
    samples_per_class:
        Optional per-class generation quota of length L, overriding the
        categorical sampling (e.g. emphasize critical classes).
    inner_aggregator:
        Operator applied to the accepted updates. Defaults to the paper's
        FedAvg; any callable ``list[ClientUpdate] -> ndarray`` works.
    balanced:
        If True (default), conditioning labels are stratified so each
        class receives ⌊t/L⌋ or ⌈t/L⌉ samples — the paper states its
        sampling "result[s] in a class-balanced validation dataset". If
        False, labels are drawn i.i.d. from Cat(L, alpha) exactly as
        Alg. 1 line 3 is written (noisy class coverage at small t).
    class_aware:
        §VI-B's proposed extension for heterogeneous federations: clients
        advertise the classes their CVAE was trained on, and the server
        conditions each decoder only on classes it actually knows. Off by
        default (the paper's evaluated configuration).
    """

    name = "fedguard"
    needs_decoder = True
    # Always 0: benchmarks/e2e/spans.py reads it after every traced synthesize.
    last_cache_hits = 0

    def __init__(
        self,
        samples_per_decoder: int | None = None,
        decoder_subset: int | None = None,
        samples_per_class: list[int] | None = None,
        inner_aggregator: Callable[[list[ClientUpdate]], np.ndarray] | None = None,
        balanced: bool = True,
        class_aware: bool = False,
    ) -> None:
        if samples_per_decoder is not None and samples_per_decoder <= 0:
            raise ValueError(
                f"samples_per_decoder must be positive, got {samples_per_decoder}"
            )
        if decoder_subset is not None and decoder_subset <= 0:
            raise ValueError(f"decoder_subset must be positive, got {decoder_subset}")
        self.samples_per_decoder = samples_per_decoder
        self.decoder_subset = decoder_subset
        self.samples_per_class = (
            np.asarray(samples_per_class, dtype=np.int64)
            if samples_per_class is not None
            else None
        )
        self.inner_aggregator = inner_aggregator or weighted_average
        self.balanced = balanced
        self.class_aware = class_aware

    # -- Alg. 1 lines 2-3: the validation seed -------------------------------
    def _draw_seed(self, context: ServerContext) -> tuple[np.ndarray, np.ndarray]:
        """Draw the shared latents ``[z_t]`` and conditioning labels ``[y_t]``."""
        rng = context.rng
        t = (
            self.samples_per_decoder
            if self.samples_per_decoder is not None
            else context.t_samples
        )
        if self.samples_per_class is not None:
            labels = np.repeat(
                np.arange(context.num_classes), self.samples_per_class
            )
            t = labels.size
        elif self.balanced:
            # Stratified draw: every class gets ⌊t/L⌋ samples, the
            # remainder chosen via the categorical probabilities.
            num_classes = context.num_classes
            labels = np.tile(np.arange(num_classes), t // num_classes)
            remainder = t - labels.size
            if remainder:
                extra = rng.choice(num_classes, size=remainder, p=context.class_probs)
                labels = np.concatenate([labels, extra])
            rng.shuffle(labels)
        else:
            labels = rng.choice(context.num_classes, size=t, p=context.class_probs)
        z = rng.standard_normal((t, context.make_decoder().latent_dim))
        return z, labels

    def _decoder_labels(
        self, update: ClientUpdate, labels: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-decoder conditioning labels (identical y unless class-aware)."""
        if self.class_aware and update.decoder_classes is not None:
            # §VI-B: only ask this decoder for classes it was trained on.
            # Labels outside its coverage are remapped onto its known
            # classes, preserving the per-decoder sample count.
            known = np.asarray(update.decoder_classes)
            if known.size and not np.isin(labels, known).all():
                return np.where(
                    np.isin(labels, known),
                    labels,
                    known[rng.integers(0, known.size, size=labels.size)],
                )
        return labels

    # -- Alg. 1 lines 2-4: controllable synthesis ---------------------------
    def synthesize(
        self, updates: list[ClientUpdate], context: ServerContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build the round's synthetic validation set (features, labels).

        Draws a fresh ``(z, y)`` and decodes it through every source
        decoder in one stacked pass. Returns shapes ``(K·t, image_dim)`` and
        ``(K·t,)``, decoder by decoder — each block bit-identical to that
        decoder's own 2-D ``generate(labels, rng, z=z)``.
        """
        rng = context.rng
        z, labels = self._draw_seed(context)
        sources = [u for u in updates if u.decoder_weights is not None]
        if not sources:
            raise RuntimeError(
                "FedGuard received no decoders; clients must upload θ_j "
                "(strategy.needs_decoder is True)"
            )
        if self.decoder_subset is not None and self.decoder_subset < len(sources):
            chosen = rng.choice(len(sources), size=self.decoder_subset, replace=False)
            sources = [sources[i] for i in chosen]

        decoder = context.make_decoder()
        per_decoder = np.stack([self._decoder_labels(u, labels, rng) for u in sources])
        nn.stack_parameters(np.stack([u.decoder_weights for u in sources]), decoder)
        # Every decoder gets the identical z (and, unless remapped, the
        # identical y) — the map() of Alg. 1 line 4 — so clients are
        # audited on comparable samples.
        out = decoder(
            np.broadcast_to(z, (len(sources),) + z.shape),
            nn.functional.one_hot(per_decoder, decoder.num_classes),
        )
        image_dim = (
            decoder.out_dim - decoder.num_classes
            if decoder.out_dim > decoder.num_classes
            else decoder.out_dim
        )
        return out[..., :image_dim].reshape(-1, image_dim), per_decoder.reshape(-1)

    # -- Alg. 1 lines 5-7: score and select ------------------------------------
    @aggregate_contract
    def aggregate(
        self,
        round_idx: int,
        updates: list[ClientUpdate],
        global_weights: np.ndarray,
        context: ServerContext,
    ) -> AggregationResult:
        audit_t0 = time.perf_counter()
        synth_x, synth_y = self.synthesize(updates, context)
        # One C-contiguous validation batch shared by one stacked
        # classifier: a single predict scores ALL submissions (in
        # memory-bounded sample blocks), never a per-update Python loop.
        synth_x = np.ascontiguousarray(synth_x)
        assert synth_x.flags["C_CONTIGUOUS"]
        assert synth_x.shape[0] == synth_y.size

        classifier = context.make_classifier()
        nn.stack_parameters(np.stack([u.weights for u in updates]), classifier)
        preds = classifier.predict(synth_x)
        assert preds.shape == (len(updates), synth_y.size)  # one row per update
        # Row-contiguous mean: each row equals that update's scalar
        # np.mean(preds_i == synth_y).
        accuracies = (preds == synth_y[None, :]).mean(axis=1)
        audit_time_s = time.perf_counter() - audit_t0

        mean_acc = accuracies.mean()
        keep = accuracies >= mean_acc
        if not keep.any():  # all-equal degenerate case
            keep[:] = True
        accepted = [u for u, k in zip(updates, keep) if k]
        rejected = [u.client_id for u, k in zip(updates, keep) if not k]

        return AggregationResult(
            weights=self.inner_aggregator(accepted),
            accepted_ids=[u.client_id for u in accepted],
            rejected_ids=rejected,
            metrics={
                "synthetic_samples": int(synth_y.size),
                "audit_acc_mean": float(mean_acc),
                "audit_acc_min": float(accuracies.min()),
                "audit_acc_max": float(accuracies.max()),
                "audit_time_s": audit_time_s,
            },
        )
