"""``repro.gateway`` — HTTP/REST + metrics front half of the partition
service.

An asyncio HTTP/1.1 gateway over the same session host the TCP wire
protocol serves: every service op as a REST route with JSON validated
at the edge, typed error bodies sharing the wire error taxonomy
(:data:`~repro.gateway.schemas.HTTP_STATUS` maps each code to a
deliberate status), bearer-token auth with per-principal rate limiting,
and a ``GET /metrics`` Prometheus exposition fed by the live
``SessionManager`` counters.

Layout:

* :mod:`~repro.gateway.http` — minimal HTTP/1.1 framing (parse one
  request, serialize one response) with hard size limits;
* :mod:`~repro.gateway.schemas` — edge validation and the total
  wire-code → HTTP-status map;
* :mod:`~repro.gateway.auth` — bearer tokens, token-bucket rate limits;
* :mod:`~repro.gateway.metrics` — counters/gauges/histograms and the
  text exposition renderer (stdlib-only);
* :mod:`~repro.gateway.backend` — in-process ``SessionManager`` (the
  service's own dispatcher) or a v1-frame proxy to a TCP/UDS service;
* :mod:`~repro.gateway.app` — :class:`PartitionGateway`, tying it all
  together (``repro-igp gateway`` runs it); its routes are built from
  the op table in :mod:`repro.service.ops`;
* :mod:`~repro.gateway.client` — :class:`GatewayClient`, the service's
  one typed client over HTTP (``repro-igp client --http ...`` drives
  it).
"""

from repro.gateway.app import PartitionGateway
from repro.gateway.backend import LocalBackend, RemoteBackend
from repro.gateway.client import GatewayClient
from repro.gateway.metrics import MetricsRegistry

__all__ = [
    "GatewayClient",
    "LocalBackend",
    "MetricsRegistry",
    "PartitionGateway",
    "RemoteBackend",
]
