"""repro.service — serving partition sessions to many concurrent clients.

The service subsystem turns the durable :class:`~repro.session
.PartitionSession` into a long-lived network service:

=====================  ==================================================
``service.ops``        the op table: wire ops, REST routes, dispatcher
``service.protocol``   length-prefixed JSON wire protocol, typed errors
``service.wal``        fsync'd write-ahead delta log between checkpoints
``service.manager``    :class:`SessionManager`: many named sessions,
                       per-session locks, LRU eviction, crash recovery
``service.server``     asyncio TCP server batching concurrent pushes
``service.client``     one typed :class:`Client` over HTTP or v1 frames
=====================  ==================================================

Start a server with ``repro-igp serve --root DIR --port 7421`` and talk
to it with ``repro-igp client ...`` or a :class:`ServiceClient` (the
typed client over v1 frames; the same class over HTTP is
:class:`repro.gateway.GatewayClient`).
"""

from repro.service.client import Client, ServiceClient
from repro.service.manager import ManagedSession, SessionManager
from repro.service.protocol import PROTOCOL_VERSION, FrameError
from repro.service.server import PartitionServer
from repro.service.wal import WalRecord, WriteAheadLog

__all__ = [
    "Client",
    "FrameError",
    "ManagedSession",
    "PROTOCOL_VERSION",
    "PartitionServer",
    "ServiceClient",
    "SessionManager",
    "WalRecord",
    "WriteAheadLog",
]
