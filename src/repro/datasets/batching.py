"""Mini-batching: merging several tensorised samples into one disjoint graph.

RouteNet processes one scenario at a time, but several scenarios can be
packed into a single message-passing pass by treating them as one large
disconnected graph: link, node and path indices of each sample are shifted
by the totals of the samples before it.  Gradients then average naturally
over the batch, which both smooths optimisation and amortises the Python
overhead of a forward pass — the same trick the reference TensorFlow
implementation uses with ``tf.data`` batching.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.datasets.tensorize import TensorizedSample

__all__ = ["merge_tensorized_samples", "plan_batches", "make_batches"]


def merge_tensorized_samples(samples: Sequence[TensorizedSample]) -> TensorizedSample:
    """Merge tensorised samples into one batched :class:`TensorizedSample`.

    The merged sample's links/nodes/paths are the disjoint union of the
    inputs'; sequences are padded to the longest path in the batch.  The
    result is always a fresh :class:`TensorizedSample` sharing no arrays
    with the inputs — a single-sample "merge" returns a defensive copy, so
    the short last batch of an epoch never aliases a per-sample
    tensorisation the trainer keeps for the next epoch.  The merged
    ``sample_path_offsets`` record the per-scenario path boundaries (already
    merged inputs contribute their own boundaries), so predictions can be
    mapped back to scenarios with :meth:`TensorizedSample.unmerge`.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("cannot merge an empty list of samples")

    offsets: List[int] = [0]
    for sample in samples:
        base = offsets[-1]
        offsets.extend(base + sample.path_offsets[1:])

    if len(samples) == 1:
        merged = samples[0].copy()
        merged.sample_path_offsets = np.asarray(offsets, dtype=np.int64)
        merged.validate()
        return merged

    max_len = max(s.max_path_length for s in samples)
    total_paths = sum(s.num_paths for s in samples)

    link_features = np.concatenate([s.link_features for s in samples], axis=0)
    node_features = np.concatenate([s.node_features for s in samples], axis=0)
    path_features = np.concatenate([s.path_features for s in samples], axis=0)
    targets = np.concatenate([s.targets for s in samples])
    raw_delays = np.concatenate([s.raw_delays for s in samples])
    path_lengths = np.concatenate([s.path_lengths for s in samples])

    link_sequences = np.zeros((total_paths, max_len), dtype=np.int64)
    node_sequences = np.zeros((total_paths, max_len), dtype=np.int64)
    # The mask keeps the tensorised precision (feature arrays preserve
    # theirs through np.concatenate above).
    mask = np.zeros((total_paths, max_len),
                    dtype=np.result_type(*[s.sequence_mask.dtype for s in samples]))
    pair_order = []

    path_offset = 0
    link_offset = 0
    node_offset = 0
    for sample in samples:
        rows = slice(path_offset, path_offset + sample.num_paths)
        width = sample.max_path_length
        # Only shift the valid entries; padding stays at index 0 of the merged
        # arrays, which is harmless because the mask excludes it.
        shifted_links = sample.link_sequences + link_offset
        shifted_nodes = sample.node_sequences + node_offset
        valid = sample.sequence_mask > 0
        link_sequences[rows, :width][valid] = shifted_links[valid]
        node_sequences[rows, :width][valid] = shifted_nodes[valid]
        mask[rows, :width] = sample.sequence_mask
        pair_order.extend(sample.pair_order)
        path_offset += sample.num_paths
        link_offset += sample.num_links
        node_offset += sample.num_nodes

    merged = TensorizedSample(
        link_features=link_features,
        node_features=node_features,
        path_features=path_features,
        link_sequences=link_sequences,
        node_sequences=node_sequences,
        sequence_mask=mask,
        path_lengths=path_lengths,
        targets=targets,
        raw_delays=raw_delays,
        pair_order=pair_order,
        sample_path_offsets=np.asarray(offsets, dtype=np.int64),
    )
    merged.validate()
    return merged


def plan_batches(lengths: Sequence[int], batch_size: int,
                 bucket_by_length: bool = False,
                 rng: Optional[np.random.Generator] = None) -> List[np.ndarray]:
    """Batch membership and visit order for one window of samples.

    ``lengths`` holds each sample's ``max_path_length``.  Returns one array
    of sample indices per batch, in the order the batches are visited;
    every sample lands in exactly one batch and the last batch may be
    smaller.  This is the one rule for both: :func:`make_batches` plans a
    single window, and every training epoch plans its windows with it
    (:mod:`repro.datasets.prefetch`).

    * With ``bucket_by_length`` (and ``batch_size > 1``) the samples are
      sorted stably by length, so each batch groups scenarios of similar
      sequence length: merging pads every path to the longest in its batch,
      and bucketing shrinks those padded tails, so more steps of the RNN
      scan take its no-masking fast path.  Membership is then fixed by the
      lengths alone, and ``rng`` permutes only the visit order.
    * Otherwise ``rng`` (when given) shuffles the samples before they are
      cut into batches, so it draws the membership and the batches are
      visited as cut.  At ``batch_size=1`` a batch has no padding to shrink,
      so bucketing is ignored and ``rng`` shuffles the visit order.

    Without ``rng`` nothing is drawn and the plan is the same every call.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    bucket = bucket_by_length and batch_size > 1
    if bucket:
        order = np.argsort(np.asarray(lengths), kind="stable")
    elif rng is not None:
        order = rng.permutation(len(lengths))
    else:
        order = np.arange(len(lengths))
    batches = [order[start:start + batch_size]
               for start in range(0, len(order), batch_size)]
    if bucket and rng is not None:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


def make_batches(samples: Sequence[TensorizedSample], batch_size: int,
                 rng: Optional[np.random.Generator] = None,
                 bucket_by_length: bool = False) -> List[TensorizedSample]:
    """Merge tensorised samples into the batches of one window, in visit
    order: :func:`plan_batches` over all of ``samples`` at once."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot batch an empty list of samples")
    plan = plan_batches([s.max_path_length for s in samples], batch_size,
                        bucket_by_length=bucket_by_length, rng=rng)
    return [merge_tensorized_samples([samples[i] for i in members])
            for members in plan]
