"""The service's op surface, declared once.

:data:`OPS` is the one table of operations.  Each row names the wire op
(the ``op`` field of a v1 frame), whether it needs a session, and its
REST route.  Everything else is derived from it:

* :func:`dispatch` — the one op → :class:`SessionManager` map, shared by
  the TCP server (:mod:`repro.service.server`) and the gateway's
  in-process backend (:mod:`repro.gateway.backend`);
* the gateway's router (:meth:`repro.gateway.app.PartitionGateway
  ._build_router`) — one route per row, plus the gateway's own
  ``/metrics`` and ``/traces``;
* the typed client (:mod:`repro.service.client`) — one method per row,
  each addressing its row's route; the frame transport maps that route
  back to ``(op, session, args)`` with :func:`resolve_target`, through
  the same :class:`Router` the gateway uses.

``ping``, ``shutdown`` and ``push`` (the micro-batcher) are served by
the endpoints themselves, not by the manager.

Routing: patterns like ``/sessions/{name}/deltas`` compile to anchored
regexes whose named groups become parameters.  Resolution failures are
*typed* — unknown path → ``not-found`` (404), known path but wrong verb
→ ``method-not-allowed`` (405 with ``Allow`` populated) — so the error
mapping stays uniform with the rest of the wire taxonomy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ServiceError

if TYPE_CHECKING:
    from repro.service.manager import SessionManager

__all__ = [
    "OPS",
    "Op",
    "ROUTER",
    "Route",
    "RouteMatch",
    "Router",
    "RoutingError",
    "WIRE_OPS",
    "call_args",
    "dispatch",
    "op_named",
    "require_session",
    "resolve_target",
]


@dataclass(frozen=True)
class Op:
    """One row of the op table.

    ``wire`` is the v1 frame op; ``name`` the typed client method (and
    the row's key).  ``args`` are fixed arguments the route implies,
    ``flags`` boolean query-string arguments (``?labels=1``), and
    ``aliases`` further ``(method, path)`` routes for the same row.
    """

    wire: str
    name: str
    session: bool
    method: str
    path: str
    args: Mapping[str, Any] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    aliases: tuple[tuple[str, str], ...] = ()

    @property
    def routes(self) -> tuple[tuple[str, str], ...]:
        """Every ``(method, path pattern)`` that addresses this row."""
        return ((self.method, self.path), *self.aliases)

    def url(self, name: str | None = None) -> str:
        """The row's route with ``{name}`` filled in."""
        return self.path if name is None else self.path.format(name=name)


#: The service's op surface.  Rows sharing a wire op are REST views of
#: it (``labels`` and ``session_stats`` read ``query``).
OPS: tuple[Op, ...] = (
    Op("create", "create", True, "POST", "/sessions"),
    Op("open", "open", True, "POST", "/sessions/{name}/open"),
    Op("push", "push", True, "POST", "/sessions/{name}/deltas"),
    Op("flush", "flush", True, "POST", "/sessions/{name}/flush"),
    Op("repartition", "repartition", True, "POST", "/sessions/{name}/repartition"),
    Op("quality", "quality", True, "GET", "/sessions/{name}/quality"),
    Op("query", "query", True, "GET", "/sessions/{name}", flags=("labels",)),
    Op("query", "labels", True, "GET", "/sessions/{name}/labels", args={"labels": True}),
    Op("query", "session_stats", True, "GET", "/sessions/{name}/stats"),
    Op("save", "save", True, "POST", "/sessions/{name}/save"),
    Op(
        "close", "close_session", True, "POST", "/sessions/{name}/close",
        aliases=(("DELETE", "/sessions/{name}"),),
    ),
    Op("list", "list_sessions", False, "GET", "/sessions"),
    Op("stats", "stats", False, "GET", "/stats"),
    Op("ping", "ping", False, "GET", "/healthz"),
    Op("shutdown", "shutdown", False, "POST", "/shutdown"),
)

#: Every op a v1 frame may name.
WIRE_OPS: tuple[str, ...] = tuple(dict.fromkeys(op.wire for op in OPS))

_BY_NAME = {op.name: op for op in OPS}
_NEEDS_SESSION = {op.wire: op.session for op in OPS}


def op_named(name: str) -> Op:
    """The row whose typed client method is ``name``."""
    return _BY_NAME[name]


def require_session(op: str, session: str | None) -> str:
    """``session``, or a typed ``bad-request`` for an op that needs one."""
    if session is None:
        raise ServiceError(
            f"op {op!r} requires a 'session' field", code="bad-request"
        )
    return session


def dispatch(
    manager: "SessionManager", op: str, session: str | None, args: Mapping[str, Any]
) -> dict[str, Any]:
    """Serve one wire op from ``manager`` (blocking; run it in a pool).

    The manager method is looked up on the instance at call time, so
    anything that wraps ``SessionManager.<op>`` sees every call.
    """
    if op in ("ping", "shutdown", "push") or op not in _NEEDS_SESSION:
        raise ServiceError(
            f"op {op!r} is not served by the session manager", code="bad-request"
        )
    if op == "list":
        return {"sessions": manager.list_sessions()}
    method = getattr(manager, op)
    result: dict[str, Any]
    if not _NEEDS_SESSION[op]:
        result = method()
    elif op == "create":
        result = method(require_session(op, session), dict(args))
    elif op == "query":
        labels = bool(args.get("labels", False))
        result = method(require_session(op, session), labels=labels)
    else:
        result = method(require_session(op, session))
    return result


def call_args(
    op: Op,
    params: Mapping[str, str],
    query: Mapping[str, str],
    body: Mapping[str, Any],
) -> tuple[str | None, dict[str, Any]]:
    """The ``(session, args)`` a REST request addresses to ``op``.

    The session comes from the ``{name}`` path parameter, or from the
    body's ``name`` field for ``create``; the rest of the body, the
    row's flags and its fixed args form the op's arguments.
    """
    args = dict(body)
    session = params.get("name")
    if op.wire == "create":
        session = args.pop("name", None)
    for flag in op.flags:
        if flag in query:
            args[flag] = query[flag] in ("1", "true", "yes")
    args.update(op.args)
    return session, args


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
_PARAM = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")
#: What a ``{param}`` segment may match — one path segment, non-empty.
_SEGMENT = r"[^/]+"


class RoutingError(ServiceError):
    """No handler for this request.  ``allow`` lists permitted methods
    when the path exists under other verbs (405)."""

    def __init__(self, message: str, *, code: str, allow: tuple[str, ...] = ()):
        super().__init__(message, code=code)
        self.allow = allow


def _compile(pattern: str) -> re.Pattern[str]:
    if not pattern.startswith("/"):
        raise ServiceError(
            f"route pattern must start with '/', got {pattern!r}",
            code="bad-request",
        )
    regex = _PARAM.sub(lambda m: f"(?P<{m.group(1)}>{_SEGMENT})", re.escape(pattern)
                       .replace(r"\{", "{").replace(r"\}", "}"))
    return re.compile(f"^{regex}$")


@dataclass(frozen=True)
class Route:
    method: str
    pattern: str
    regex: re.Pattern[str]
    handler: Callable[..., Any]
    op: str


@dataclass(frozen=True)
class RouteMatch:
    route: Route
    params: dict[str, str]


class Router:
    """Ordered route table.  Registration order is match order, though
    patterns are designed non-overlapping per method."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(
        self,
        method: str,
        pattern: str,
        handler: Callable[..., Any],
        *,
        op: str,
    ) -> None:
        """Register ``handler`` for ``method pattern``; ``op`` is the
        label used in per-op metrics (usually the wire op name)."""
        method = method.upper()
        for existing in self._routes:
            if existing.method == method and existing.pattern == pattern:
                raise ServiceError(
                    f"duplicate route {method} {pattern}", code="bad-request"
                )
        self._routes.append(
            Route(method, pattern, _compile(pattern), handler, op)
        )

    def resolve(self, method: str, path: str) -> RouteMatch:
        """Find the handler for ``method path`` or raise the typed 404/405."""
        method = method.upper()
        allowed: list[str] = []
        for route in self._routes:
            found = route.regex.match(path)
            if found is None:
                continue
            if route.method == method:
                return RouteMatch(route, dict(found.groupdict()))
            if route.method not in allowed:
                allowed.append(route.method)
        if allowed:
            raise RoutingError(
                f"method {method} not allowed for {path}; "
                f"allowed: {', '.join(sorted(allowed))}",
                code="method-not-allowed",
                allow=tuple(sorted(allowed)),
            )
        raise RoutingError(f"no route for {path}", code="not-found")


#: The op table as a router whose handlers return their row.
ROUTER = Router()
for _op in OPS:
    for _method, _path in _op.routes:
        ROUTER.add(_method, _path, lambda row=_op: row, op=_op.wire)


def resolve_target(
    method: str, target: str, body: Mapping[str, Any] | None
) -> tuple[Op, str | None, dict[str, Any]]:
    """Map a REST request (``target`` may carry a query string) to its
    row and the ``(session, args)`` it addresses."""
    split = urlsplit(target)
    match = ROUTER.resolve(method, unquote(split.path) or "/")
    op: Op = match.route.handler()
    session, args = call_args(
        op, match.params, dict(parse_qsl(split.query)), body or {}
    )
    return op, session, args
