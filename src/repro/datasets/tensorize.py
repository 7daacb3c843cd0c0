"""Convert a :class:`Sample` into the arrays RouteNet's message passing needs.

Both models process one sample (one topology + routing + traffic matrix) at a
time.  The tensorised form flattens the variable-length paths into padded
index matrices, mirroring how the reference TensorFlow implementation feeds
``tf.gather`` / ``unsorted_segment_sum``:

* ``link_features``   (num_links, 1)   — normalised capacity per link;
* ``node_features``   (num_nodes, 1)   — normalised queue size per node;
* ``path_features``   (num_paths, 1)   — normalised traffic per path;
* ``link_sequences``  (num_paths, max_len) — link index at every hop (0-padded);
* ``node_sequences``  (num_paths, max_len) — *sending* node at every hop
  (the device whose output queue the packet waits in, 0-padded);
* ``sequence_mask``   (num_paths, max_len) — 1 for real hops, 0 for padding;
* ``targets``         (num_paths,)     — normalised delays.

Every feature and the target are z-scored by the training set's
:class:`~repro.datasets.normalization.FeatureNormalizer`, so a normaliser
is required.  The target is always the per-path delay, the one quantity
both models predict.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sample import Sample
from repro.nn.tensor import DTypeLike, resolve_dtype

__all__ = ["TensorizedSample", "tensorize_sample"]


@dataclasses.dataclass
class TensorizedSample:
    """Dense arrays describing one sample for the models, as
    :func:`tensorize_sample` builds them: ``targets`` holds the normalised
    per-path delays and ``raw_delays`` the measured ones.

    A *merged* sample (see :mod:`repro.datasets.batching`) is the disjoint
    union of several scenarios; ``sample_path_offsets`` then records the path
    boundaries so per-path outputs can be mapped back to their scenario with
    :meth:`unmerge`.
    """

    link_features: np.ndarray
    node_features: np.ndarray
    path_features: np.ndarray
    link_sequences: np.ndarray
    node_sequences: np.ndarray
    sequence_mask: np.ndarray
    path_lengths: np.ndarray
    targets: np.ndarray
    raw_delays: np.ndarray
    pair_order: List[Tuple[int, int]]
    #: Cumulative path boundaries of the merged scenarios, shape
    #: ``(num_merged_samples + 1,)`` starting at 0 and ending at ``num_paths``.
    #: ``None`` means the sample is a single, unmerged scenario.
    sample_path_offsets: Optional[np.ndarray] = None
    #: Memoised :class:`~repro.models.message_passing.MessagePassingIndex`,
    #: filled lazily by ``build_index`` so repeated forward passes over the
    #: same sample (e.g. one per epoch) do not rebuild the flat entry lists.
    _index_cache: Optional[object] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_paths(self) -> int:
        return self.path_features.shape[0]

    @property
    def num_links(self) -> int:
        return self.link_features.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def max_path_length(self) -> int:
        return self.link_sequences.shape[1]

    @property
    def nbytes(self) -> int:
        """Total bytes of the sample's arrays (live-memory accounting).

        Used by the streaming pipeline's diagnostics to reason about how
        much tensorised data is resident; iterates the dataclass fields so
        future array fields are counted automatically.
        """
        total = 0
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                total += value.nbytes
        return total

    @property
    def num_merged_samples(self) -> int:
        """How many scenarios this sample represents (1 unless merged)."""
        if self.sample_path_offsets is None:
            return 1
        return len(self.sample_path_offsets) - 1

    @property
    def path_offsets(self) -> np.ndarray:
        """Path boundaries per merged scenario (``[0, num_paths]`` if unmerged)."""
        if self.sample_path_offsets is None:
            return np.array([0, self.num_paths], dtype=np.int64)
        return np.asarray(self.sample_path_offsets, dtype=np.int64)

    def unmerge(self, values: Sequence) -> List:
        """Split a per-path sequence back into per-scenario chunks.

        ``values`` must have one entry per path (a prediction array, the
        targets, or ``pair_order`` itself); the result has one chunk per
        merged scenario, in merge order.
        """
        if len(values) != self.num_paths:
            raise ValueError(
                f"expected {self.num_paths} per-path values, got {len(values)}")
        offsets = self.path_offsets
        return [values[start:stop] for start, stop in zip(offsets[:-1], offsets[1:])]

    def __getstate__(self) -> dict:
        """Pickle without the memoised message-passing index.

        The index (and the scan plans hanging off it) is derived data a
        receiver can rebuild lazily; dropping it keeps the payload that the
        data-parallel trainer ships to worker processes small and free of
        anything but plain arrays.
        """
        state = dict(self.__dict__)
        state["_index_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def copy(self) -> "TensorizedSample":
        """Return a deep copy whose arrays share no memory with this sample.

        Iterates the dataclass fields so future fields are copied too; the
        memoised index cache (``init=False``) is deliberately not carried
        over — the copy owns fresh arrays and rebuilds its own index.
        """
        updates = {}
        for field in dataclasses.fields(self):
            if not field.init:
                continue
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value = value.copy()
            elif isinstance(value, list):
                value = list(value)
            updates[field.name] = value
        return TensorizedSample(**updates)

    def validate(self) -> None:
        """Internal consistency checks (used by tests and property checks)."""
        if self.link_sequences.shape != self.node_sequences.shape:
            raise ValueError("link and node sequences must share a shape")
        if self.sequence_mask.shape != self.link_sequences.shape:
            raise ValueError("mask shape mismatch")
        if self.targets.shape != (self.num_paths,):
            raise ValueError("targets shape mismatch")
        if np.any(self.path_lengths < 1):
            raise ValueError("every path must have at least one hop")
        lengths_from_mask = self.sequence_mask.sum(axis=1).astype(int)
        if not np.array_equal(lengths_from_mask, self.path_lengths):
            raise ValueError("mask does not agree with path lengths")
        if self.link_sequences.max(initial=0) >= self.num_links:
            raise ValueError("link index out of range")
        if self.node_sequences.max(initial=0) >= self.num_nodes:
            raise ValueError("node index out of range")
        if self.sample_path_offsets is not None:
            offsets = np.asarray(self.sample_path_offsets)
            if offsets.ndim != 1 or len(offsets) < 2:
                raise ValueError("sample_path_offsets must be a 1-D boundary array")
            if offsets[0] != 0 or offsets[-1] != self.num_paths:
                raise ValueError("sample_path_offsets must span [0, num_paths]")
            if np.any(np.diff(offsets) <= 0):
                raise ValueError("sample_path_offsets must be strictly increasing")


def _link_table(topology) -> np.ndarray:
    """``table[u, v]``: the index of link ``u -> v``, or -1 where none exists."""
    size = max(topology.nodes()) + 1
    table = np.full((size, size), -1, dtype=np.int64)
    for index, spec in enumerate(topology.links()):
        table[spec.source, spec.target] = index
    return table


def tensorize_sample(sample: Sample, normalizer: FeatureNormalizer,
                     dtype: DTypeLike = None) -> TensorizedSample:
    """Build the dense model input for one sample: the one way a scenario
    becomes model input, for training, evaluation and prediction alike.

    ``normalizer`` (fitted on the training set) z-scores the capacities,
    queue sizes and traffic, and the per-path delays that form the target.

    ``dtype`` selects the floating precision of the model-facing arrays
    (features, mask and normalised targets); ``None`` uses the
    :func:`repro.nn.tensor.get_default_dtype` default.  ``raw_delays``
    stays float64, so a float32 run does not quantise evaluation metrics.
    """
    dtype = resolve_dtype(dtype)
    topology = sample.topology
    routing = sample.routing
    pair_order = sample.pair_order

    capacities = np.array([spec.capacity for spec in topology.links()], dtype=np.float64)
    queue_sizes = np.array([topology.node_spec(n).queue_size for n in topology.nodes()],
                           dtype=np.float64)
    traffic = sample.traffic.as_vector(pair_order)
    delays = sample.delays.copy()

    # One pass over the routing gathers every path's nodes into a padded
    # matrix.  Hop h leaves nodes[h], whose output queue the packet waits
    # in, over the link nodes[h] -> nodes[h + 1].
    node_paths = [nodes for _, nodes in routing.items()]
    lengths = np.array([len(nodes) - 1 for nodes in node_paths], dtype=np.int64)
    max_len = int(lengths.max())
    num_paths = len(node_paths)
    padded_nodes = np.zeros((num_paths, max_len + 1), dtype=np.int64)
    # Row-major boolean assignment fills each path's nodes in order.
    padded_nodes[np.arange(max_len + 1)[None, :] <= lengths[:, None]] = \
        list(itertools.chain.from_iterable(node_paths))
    valid = np.arange(max_len)[None, :] < lengths[:, None]
    senders = padded_nodes[:, :-1]
    hops = _link_table(topology)[senders, padded_nodes[:, 1:]]
    if np.any(hops[valid] < 0):
        path, hop = np.argwhere(valid & (hops < 0))[0]
        raise KeyError(f"no link {senders[path, hop]}->{padded_nodes[path, hop + 1]}")
    link_sequences = np.where(valid, hops, 0)
    node_sequences = np.where(valid, senders, 0)
    mask = valid.astype(dtype)

    def column(field, values):
        return normalizer.normalize(field, values)[:, None].astype(dtype, copy=False)

    tensorized = TensorizedSample(
        link_features=column("capacity", capacities),
        node_features=column("queue_size", queue_sizes),
        path_features=column("traffic", traffic),
        link_sequences=link_sequences,
        node_sequences=node_sequences,
        sequence_mask=mask,
        path_lengths=lengths,
        targets=normalizer.normalize("delay", delays).astype(dtype, copy=False),
        raw_delays=delays,
        pair_order=pair_order,
    )
    tensorized.validate()
    return tensorized
