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
* ``cache_synthesis`` — freeze the validation seed ``([z_t], [y_t])`` at
  its first draw and cache each decoder's synthesized samples per
  :attr:`~repro.fl.updates.ClientUpdate.decoder_version`. Decoders are
  trained once (paper footnote 5), so from round 2 on the whole synthesis
  step is a cache lookup (surfaced as ``audit_cache_hits``); a decoder
  retrain (dynamic-data CVAE refresh) bumps its version and re-synthesizes
  from the same frozen seed. ``False`` restores Alg. 1's literal
  fresh-per-round sampling;
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
    cache_synthesis:
        Freeze the validation seed ``(z, y)`` at its first draw and reuse
        each decoder's synthesized samples while its
        ``decoder_version`` is unchanged (default). Cached samples are
        bit-identical to re-synthesizing from the frozen seed, so cached
        and uncached audits score identically; set False for Alg. 1's
        literal fresh-per-round sampling.
    """

    name = "fedguard"
    needs_decoder = True

    def __init__(
        self,
        samples_per_decoder: int | None = None,
        decoder_subset: int | None = None,
        samples_per_class: list[int] | None = None,
        inner_aggregator: Callable[[list[ClientUpdate]], np.ndarray] | None = None,
        balanced: bool = True,
        class_aware: bool = False,
        cache_synthesis: bool = True,
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
        self.cache_synthesis = cache_synthesis
        # Frozen validation seed (z, y) and per-client synthesized samples,
        # keyed by client id → (decoder_version, features, labels). Both
        # travel with the pickled strategy, so checkpoint/resume replays
        # the same validation set.
        self._frozen_seed: tuple[np.ndarray, np.ndarray] | None = None
        self._sample_cache: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self.last_cache_hits = 0

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

    def _synthesize_stacked(
        self, sources: list[ClientUpdate], z: np.ndarray,
        labels: np.ndarray, context: ServerContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode the shared z through every source decoder in one pass.

        Returns ``(features, labels)`` of shapes ``(K, t, image_dim)`` and
        ``(K, t)`` — each slice bit-identical to that decoder's own 2-D
        ``generate(labels, rng, z=z)``.
        """
        decoder = context.make_decoder()
        per_decoder = np.stack(
            [self._decoder_labels(u, labels, context.rng) for u in sources]
        )
        nn.stack_parameters(
            np.stack([u.decoder_weights for u in sources]), decoder
        )
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
        return out[..., :image_dim], per_decoder

    # -- Alg. 1 lines 2-4: controllable synthesis ---------------------------
    def synthesize(
        self, updates: list[ClientUpdate], context: ServerContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build the round's synthetic validation set (features, labels)."""
        rng = context.rng
        self.last_cache_hits = 0
        if self.cache_synthesis:
            if self._frozen_seed is None:
                self._frozen_seed = self._draw_seed(context)
            z, labels = self._frozen_seed
        else:
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

        cache = self._sample_cache
        if self.cache_synthesis:
            missing = [
                u for u in sources
                if cache.get(u.client_id, (None,))[0] != u.decoder_version
            ]
            self.last_cache_hits = len(sources) - len(missing)
        else:
            cache = {}
            missing = sources
        if missing:
            fresh_x, fresh_y = self._synthesize_stacked(missing, z, labels, context)
            for i, update in enumerate(missing):
                cache[update.client_id] = (
                    update.decoder_version, fresh_x[i], fresh_y[i]
                )
        entries = [cache[u.client_id] for u in sources]
        return (
            np.concatenate([entry[1] for entry in entries]),
            np.concatenate([entry[2] for entry in entries]),
        )

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
                "audit_cache_hits": self.last_cache_hits,
                "audit_time_s": audit_time_s,
            },
        )
