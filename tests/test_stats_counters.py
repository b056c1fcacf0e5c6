"""ClusterStats' per-message counters: plain lists read as arrays.

The hooks the AM layer and NIC call per message update plain Python
lists; the public attributes are arrays built from them on each read.
These tests hold the arrays current inside the measured region, keep
the serialized form identical to numpy accumulation, and make an
in-place write through a read-back array fail loudly.
"""

import json

import numpy as np
import pytest

from repro.instruments import ClusterStats
from repro.network.packet import SHORT_PACKET_BYTES, Packet, PacketKind


def _short(src, dst, is_read=False):
    return Packet(kind=PacketKind.REQUEST, src=src, dst=dst, handler="h",
                  is_read=is_read)


def _bulk(src, dst, nbytes):
    return Packet(kind=PacketKind.BULK_FRAGMENT, src=src, dst=dst,
                  is_bulk=True, size_bytes=min(nbytes, 4096),
                  message_bytes=nbytes, fragment=(0, 1))


def test_reads_interleaved_with_updates_see_current_counts():
    stats = ClusterStats(3)
    stats.start_measurement(0.0)
    busy = np.zeros(3)
    for step in range(12):
        src, dst = step % 3, (step + 1) % 3
        packet = _bulk(src, dst, 5000) if step % 4 == 0 else \
            _short(src, dst, is_read=step % 2 == 1)
        stats.on_send(src, packet)
        assert stats.messages_sent[src] == step // 3 + 1
        assert stats.matrix[src, dst] == step // 3 + 1
        assert stats.matrix.sum() == step + 1
        stats.on_tx_busy(src, 0.1 * (step + 1))
        busy[src] += 0.1 * (step + 1)
        assert stats.tx_busy_us[src] == busy[src]
        stats.on_host_recv(dst, packet)
        assert stats.messages_received.sum() == step + 1
    assert stats.bulk_messages_sent.tolist() == [1, 1, 1]
    assert stats.bulk_bytes_sent.tolist() == [5000, 5000, 5000]
    assert stats.read_messages_sent.sum() == 6
    assert stats.small_bytes_sent.sum() == 9 * SHORT_PACKET_BYTES
    assert stats.matrix.dtype == np.int64
    assert stats.tx_busy_us.dtype == np.float64
    # Nothing after the region counts, and a read changes nothing.
    stats.stop_measurement(1.0)
    stats.on_send(0, _short(0, 1))
    stats.on_tx_busy(0, 5.0)
    assert stats.total_messages == 12
    assert stats.tx_busy_us.tolist() == busy.tolist()


def test_in_place_write_through_a_read_raises():
    stats = ClusterStats(2)
    with pytest.raises(ValueError, match="read-only"):
        stats.messages_sent[0] += 1
    with pytest.raises(ValueError, match="read-only"):
        stats.matrix[0, 1] = 3
    # Whole-array assignment replaces the counter.
    stats.messages_sent = [4, 5]
    assert stats.messages_sent.tolist() == [4, 5]


def test_serialized_form_matches_numpy_accumulation():
    stats = ClusterStats(2)
    stats.start_measurement(0.0)
    reference = np.zeros(2)
    for step in range(50):
        busy = 0.1 + step * 0.37
        stats.on_tx_busy(step % 2, busy)
        reference[step % 2] += busy
        stats.on_send(step % 2, _short(step % 2, 1 - step % 2))
        _ = stats.tx_busy_us  # a mid-region read must not regroup sums
    stats.stop_measurement(10.0)
    data = stats.to_dict()
    assert data["tx_busy_us"] == reference.tolist()
    assert data["matrix"] == [[0, 25], [25, 0]]
    restored = ClusterStats.from_dict(json.loads(json.dumps(data)))
    assert json.dumps(restored.to_dict(), sort_keys=True) == \
        json.dumps(data, sort_keys=True)
