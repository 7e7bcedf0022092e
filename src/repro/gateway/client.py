"""The typed client over HTTP: :class:`GatewayClient` is
:class:`repro.service.client.Client`, whose default transport speaks
the gateway's REST routes (see :mod:`repro.service.client`)."""

from repro.service.client import Client as GatewayClient

__all__ = ["GatewayClient"]
