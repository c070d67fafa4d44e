"""repro.net — the multi-machine data plane and cluster protocol.

Everything the single-host runtime (:mod:`repro.runtime`) needs to span
real machines, behind the seams that already exist:

- :mod:`repro.net.protocol` — length-prefixed binary frames (one wire
  format for every service), the threaded :class:`FrameServer` base
  that answers the shared control plane, and :class:`FrameClient`;
- :mod:`repro.net.blockstore` — a TCP block store the coordinator
  publishes routed column blocks into (PUT/GET/LIST/FREE/STAT), plus
  the worker-side cached fetch;
- :mod:`repro.net.transport` — :class:`TcpTransport`, the ``tcp`` entry
  in the transport registry: descriptors carry ``(host, port,
  block_id, dtype, shape, rows)`` so remote workers fetch and slice
  their own partitions;
- :mod:`repro.net.agent` — the :class:`WorkerAgent` behind ``python -m
  repro serve``: HELLO handshake, PING heartbeats, pickled TASK frames;
- :mod:`repro.net.executor` — :class:`RemoteExecutor`, the ``remote``
  runtime backend driving a mixed local+remote cluster from
  ``RunConfig.hosts`` / ``REPRO_HOSTS``;
- :mod:`repro.net.service` — the :class:`QueryServer` behind ``python
  -m repro serve-sql`` and its :class:`ServiceClient`: QUERY/CANCEL/
  RESULT frames over a warm multi-tenant
  :class:`~repro.service.QueryService` (see docs/service.md).

See docs/net.md for the wire protocol, the handshake and the failure
semantics, and README.md for a two-terminal loopback walkthrough.
"""

from .agent import WorkerAgent, agent_stats
from .blockstore import (
    BlockStoreClient,
    BlockStoreServer,
    BlockStoreStats,
    fetch_block_array,
)
from .executor import HostSpec, RemoteExecutor, parse_host_specs
from .protocol import PROTOCOL_VERSION, FrameClient, FrameServer
from .service import QueryServer, ServiceClient
from .transport import TcpTransport

__all__ = [
    "PROTOCOL_VERSION",
    "FrameServer",
    "FrameClient",
    "BlockStoreServer",
    "BlockStoreClient",
    "BlockStoreStats",
    "fetch_block_array",
    "TcpTransport",
    "WorkerAgent",
    "agent_stats",
    "QueryServer",
    "ServiceClient",
    "RemoteExecutor",
    "HostSpec",
    "parse_host_specs",
]
