"""The stacked message-passing step of both RouteNet models, as a test oracle.

The models scan every path with :func:`repro.nn.recurrent.scan_rnn`, either
interpreted (``scan_mode="stream"``) or through the compiled step kernels
(``"compiled"``), and never build the per-path sequence or the per-step
outputs.  The formulation here does build them: it gathers the padded
sequence of states along every path, scans it with
:func:`repro.nn.recurrent.run_rnn_over_sequence`, keeps every step's output
in the autograd graph and segment-sums the outputs at each link's hops
afterwards.  It is slow and memory-hungry but plainly follows the paper,
which is what the equivalence tests need from a reference.

:class:`StackedRouteNet` and :class:`StackedExtendedRouteNet` replace only
the message-passing step, so they share the weights, forward, readout and
``predict`` of the model they derive from.
"""

from __future__ import annotations

import numpy as np

from repro.models import ExtendedRouteNet, RouteNet
from repro.models.message_passing import aggregate_path_states_per_node
from repro.nn.recurrent import run_rnn_over_sequence
from repro.nn.tensor import gather_segment_sum, stack


def aggregate_positional_messages(path_rnn_outputs, index, target):
    """Sum the path-RNN outputs at every hop into per-link or per-node messages.

    ``path_rnn_outputs`` has shape (num_paths, max_len, dim); the output of
    hop ``(p, t)`` goes to the link (or node) that path ``p`` traverses at
    position ``t`` and is summed per target entity, like
    ``tf.math.unsorted_segment_sum`` in the reference implementation.
    """
    if target == "link":
        segment_ids, num_segments = index.entry_link_ids, index.num_links
    elif target == "node":
        segment_ids, num_segments = index.entry_node_ids, index.num_nodes
    else:
        raise ValueError("target must be 'link' or 'node'")
    return gather_segment_sum(path_rnn_outputs,
                              (index.entry_path_ids, index.entry_positions),
                              segment_ids, num_segments)


class StackedRouteNet(RouteNet):
    """:class:`RouteNet` with the stacked path scan."""

    def _message_passing_step(self, sample, index, path_states, link_states):
        # One gather builds the (num_paths, max_len, dim) sequence; padded
        # positions read link 0 and are masked out by the scan.
        sequence = link_states.gather(sample.link_sequences)
        outputs, new_path_states = run_rnn_over_sequence(
            self.path_update, sequence, sample.sequence_mask,
            initial_state=path_states)
        link_messages = aggregate_positional_messages(outputs, index, target="link")
        return new_path_states, self.link_update(link_messages, link_states)


class StackedExtendedRouteNet(ExtendedRouteNet):
    """:class:`ExtendedRouteNet` with the stacked interleaved path scan."""

    def _message_passing_step(self, sample, index, path_states, link_states,
                              node_states):
        # Stacking the per-hop node and link states on a new axis and
        # flattening it interleaves the hops as node1-link1-node2-link2-…
        node_part = node_states.gather(sample.node_sequences)
        link_part = link_states.gather(sample.link_sequences)
        num_paths, max_len = sample.link_sequences.shape
        sequence = stack([node_part, link_part], axis=2).reshape(
            num_paths, 2 * max_len, link_part.shape[-1])
        mask = np.repeat(sample.sequence_mask, 2, axis=1)
        outputs, new_path_states = run_rnn_over_sequence(
            self.path_update, sequence, mask, initial_state=path_states)
        # The message to a link is the RNN output right after reading that
        # link: the odd positions of the interleaved sequence.
        link_messages = gather_segment_sum(
            outputs, (index.entry_path_ids, index.entry_positions * 2 + 1),
            index.entry_link_ids, index.num_links)
        new_link_states = self.link_update(link_messages, link_states)
        node_messages = aggregate_path_states_per_node(new_path_states, index)
        return (new_path_states, new_link_states,
                self.node_update(node_messages, node_states))


#: The oracle of each model class.
STACKED = {RouteNet: StackedRouteNet, ExtendedRouteNet: StackedExtendedRouteNet}
