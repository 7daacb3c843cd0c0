"""Index bookkeeping and gather/scatter helpers for RouteNet message passing.

The models operate on one :class:`~repro.datasets.tensorize.TensorizedSample`
at a time.  This module precomputes the flat index arrays used every
message-passing iteration:

* for the **path update**, padded matrices of link / node indices per path
  plus the validity mask (already provided by the tensorised sample);
* for the **link update**, the flat list of (path, position) entries at
  which each link appears, so the per-position outputs of the path RNN can
  be segment-summed into per-link aggregated messages;
* for the **node update** (extended model), the flat list of (path, node)
  incidences so final path states can be summed per node.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.datasets.tensorize import TensorizedSample
from repro.nn.recurrent import ScanScatter
from repro.nn.scan_kernels import ScanKernelSpec, compile_scan_spec
from repro.nn.tensor import DTypeLike, Tensor, gather_segment_sum, resolve_dtype

__all__ = ["MessagePassingIndex", "build_index", "initial_state",
           "aggregate_path_states_per_node", "ScanPlan", "build_scan_plan"]


@dataclasses.dataclass
class MessagePassingIndex:
    """Precomputed index arrays for one tensorised sample."""

    #: (num_entries,) path id of every valid (path, position) pair.
    entry_path_ids: np.ndarray
    #: (num_entries,) position of the entry inside its path.
    entry_positions: np.ndarray
    #: (num_entries,) link traversed at that hop.
    entry_link_ids: np.ndarray
    #: (num_entries,) node whose queue the packet waits in at that hop.
    entry_node_ids: np.ndarray
    num_paths: int
    num_links: int
    num_nodes: int
    #: Memoised :class:`ScanPlan` per layout ("link" / "interleaved"), filled
    #: lazily by :func:`build_scan_plan` — the plan depends only on routing
    #: structure, so all message-passing iterations and epochs share it.
    _scan_plans: Dict[str, "ScanPlan"] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)


def build_index(sample: TensorizedSample) -> MessagePassingIndex:
    """Flatten the padded sequences of a sample into valid (path, hop) entries.

    The result is memoised on the sample (``sample._index_cache``): the index
    depends only on the sample's routing structure, which is immutable after
    tensorisation, so repeated forward passes over the same sample — one per
    epoch during training, or one per model in a comparison — reuse it
    instead of re-flattening the padded sequences every step.
    """
    if sample._index_cache is not None:
        return sample._index_cache
    path_ids, positions = np.nonzero(sample.sequence_mask > 0)
    index = MessagePassingIndex(
        entry_path_ids=path_ids.astype(np.int64),
        entry_positions=positions.astype(np.int64),
        entry_link_ids=sample.link_sequences[path_ids, positions].astype(np.int64),
        entry_node_ids=sample.node_sequences[path_ids, positions].astype(np.int64),
        num_paths=sample.num_paths,
        num_links=sample.num_links,
        num_nodes=sample.num_nodes,
    )
    sample._index_cache = index
    return index


def initial_state(features: np.ndarray, state_dim: int, dtype: DTypeLike = None) -> Tensor:
    """Embed raw features into a fixed-size state by zero padding.

    This mirrors the reference implementation: the first feature columns of
    each state carry the known attributes (capacity, queue size, traffic) and
    the remaining dimensions start at zero for the message passing to fill.
    ``dtype`` pins the state precision (models pass their configured dtype so
    float64 features entering a float32 model are cast on the way in).
    """
    dtype = resolve_dtype(dtype)
    features = np.asarray(features, dtype=dtype)
    if features.ndim != 2:
        raise ValueError("features must be 2-D (entities, feature_dim)")
    num_entities, feature_dim = features.shape
    if feature_dim > state_dim:
        raise ValueError(
            f"feature dimension {feature_dim} exceeds the state size {state_dim}")
    state = np.zeros((num_entities, state_dim), dtype=dtype)
    state[:, :feature_dim] = features
    return Tensor(state)


@dataclasses.dataclass
class ScanPlan:
    """Everything :func:`repro.nn.recurrent.scan_rnn` needs for one sample.

    ``step_sources``/``step_rows``/``mask`` describe the per-step input
    gathers (which source matrix, which rows, which paths are valid), and
    ``scatter`` routes each step's outputs into the per-link accumulators,
    so no stacked ``(num_paths, num_steps, dim)`` sequence or output tensor
    is ever built.
    """

    step_sources: np.ndarray
    step_rows: np.ndarray
    mask: np.ndarray
    scatter: ScanScatter
    #: Memoised compiled kernel spec (filled lazily by :meth:`compiled`).
    _compiled: ScanKernelSpec = dataclasses.field(
        default=None, repr=False, compare=False)

    def compiled(self) -> ScanKernelSpec:
        """The precompiled kernel spec of this plan (built once, memoised).

        The spec depends only on the plan's index arrays, which are immutable
        after construction, so every message-passing iteration and epoch over
        the same (topology, bucket) batch shares one spec.
        """
        if self._compiled is None:
            self._compiled = compile_scan_spec(
                self.step_sources, self.step_rows, self.mask, self.scatter)
        return self._compiled


def _per_position_link_scatter(index: MessagePassingIndex, num_steps: int,
                               stride: int, offset: int) -> ScanScatter:
    """Split the flat (path, position, link) entries into per-step groups.

    Entry at path position ``p`` becomes an output emission at scan step
    ``p * stride + offset`` — stride 1/offset 0 for the plain link sequence,
    stride 2/offset 1 for the interleaved node-link sequence where link
    outputs appear at odd steps.
    """
    rows = [None] * num_steps
    segment_ids = [None] * num_steps
    order = np.argsort(index.entry_positions, kind="stable")
    positions = index.entry_positions[order]
    path_ids = index.entry_path_ids[order]
    link_ids = index.entry_link_ids[order]
    unique_positions, starts = np.unique(positions, return_index=True)
    ends = np.append(starts[1:], positions.size)
    for position, start, stop in zip(unique_positions, starts, ends):
        step = int(position) * stride + offset
        rows[step] = path_ids[start:stop]
        segment_ids[step] = link_ids[start:stop]
    return ScanScatter(rows=rows, segment_ids=segment_ids,
                       num_segments=index.num_links)


def build_scan_plan(sample: TensorizedSample, index: MessagePassingIndex,
                    interleaved: bool = False) -> ScanPlan:
    """Build (and memoise) the streaming-scan plan for one sample.

    ``interleaved=False`` describes the original RouteNet path update (the
    scan reads one link state per hop); ``interleaved=True`` the extended
    model's ``node1-link1-node2-link2-…`` sequence, where even steps gather
    from the node states (source 0) and odd steps from the link states
    (source 1), and only the odd (link) steps emit aggregated messages.
    """
    key = "interleaved" if interleaved else "link"
    cached = index._scan_plans.get(key)
    if cached is not None:
        return cached
    max_len = sample.max_path_length
    if not interleaved:
        plan = ScanPlan(
            step_sources=np.zeros(max_len, dtype=np.int64),
            step_rows=sample.link_sequences,
            mask=sample.sequence_mask,
            scatter=_per_position_link_scatter(index, max_len, stride=1, offset=0),
        )
    else:
        step_rows = np.empty((sample.num_paths, 2 * max_len), dtype=np.int64)
        step_rows[:, 0::2] = sample.node_sequences
        step_rows[:, 1::2] = sample.link_sequences
        plan = ScanPlan(
            step_sources=np.tile(np.array([0, 1], dtype=np.int64), max_len),
            step_rows=step_rows,
            mask=np.repeat(sample.sequence_mask, 2, axis=1),
            scatter=_per_position_link_scatter(index, 2 * max_len, stride=2, offset=1),
        )
    index._scan_plans[key] = plan
    return plan


def aggregate_path_states_per_node(path_states: Tensor, index: MessagePassingIndex) -> Tensor:
    """Element-wise sum of the states of all paths crossing each node.

    This is the aggregation the paper describes for the node update: "first
    performing an element-wise summation of all the path states associated
    to the node".  A path is associated with a node when one of its hops
    waits in that node's output queue.
    """
    # A path may cross a node once at most (paths are simple), so summing over
    # hop entries is the same as summing over distinct (path, node) pairs.
    return gather_segment_sum(
        path_states, index.entry_path_ids, index.entry_node_ids, index.num_nodes)
