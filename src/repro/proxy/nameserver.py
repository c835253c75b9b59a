"""Name Server for proxies and SyD objects (paper §5.2).

"The main functionality of the Name Server is to store information about
all proxies and SyD objects and map each SyD object to at least one
proxy. ... 1. The proxies register themselves with the Name Server when
the application server starts. 2. The clients relay their information to
the Name Server, and get back a proxy object, which acts as the proxy
for it."

The prototype used Java Vectors for the client/proxy lists and a hash
table for the mapping; we keep the same structures (Python lists + dict)
behind a device-object facade, assigning proxies round-robin.
"""

from __future__ import annotations

from typing import Any

from repro.device.object import SyDDeviceObject, exported
from repro.kernel import invoke
from repro.util.errors import DirectoryError, DuplicateRegistrationError

NAMESERVER_OBJECT = "_syd_nameserver"
DEFAULT_NAMESERVER_NODE = "syd-nameserver"


class NameServerService(SyDDeviceObject):
    """The name server's published object."""

    def __init__(self):
        super().__init__(NAMESERVER_OBJECT, store=None)
        self._proxies: list[str] = []        # Vector of proxy node ids
        self._clients: list[str] = []        # Vector of client user ids
        self._mapping: dict[str, str] = {}   # hash table: client -> proxy
        self._rr = 0

    @exported
    def register_proxy(self, proxy_node: str) -> int:
        """A proxy announces itself; returns the proxy count."""
        if proxy_node in self._proxies:
            raise DuplicateRegistrationError(f"proxy {proxy_node!r} already registered")
        self._proxies.append(proxy_node)
        return len(self._proxies)

    @exported
    def register_client(self, user: str) -> str:
        """A client asks for a proxy; returns the assigned proxy node.

        Assignment is round-robin and sticky: re-registering returns the
        same proxy.
        """
        if user in self._mapping:
            return self._mapping[user]
        if not self._proxies:
            raise DirectoryError("no proxies registered with the name server")
        proxy = self._proxies[self._rr % len(self._proxies)]
        self._rr += 1
        self._clients.append(user)
        self._mapping[user] = proxy
        return proxy

    @exported
    def proxy_of(self, user: str) -> str | None:
        """Current proxy of ``user`` (None when unassigned)."""
        return self._mapping.get(user)

    @exported
    def list_proxies(self) -> list[str]:
        return list(self._proxies)

    @exported
    def list_clients(self) -> list[str]:
        return list(self._clients)

    @exported
    def stats(self) -> dict[str, Any]:
        """Load distribution: proxy -> number of clients mapped to it."""
        load: dict[str, int] = {p: 0 for p in self._proxies}
        for proxy in self._mapping.values():
            load[proxy] = load.get(proxy, 0) + 1
        return load


class NameServerClient:
    """Typed stub for nodes talking to the name server."""

    def __init__(self, node_id: str, transport, nameserver_node: str = DEFAULT_NAMESERVER_NODE):
        self.node_id = node_id
        self.transport = transport
        self.nameserver_node = nameserver_node

    def _call(self, method: str, *args: Any) -> Any:
        # A plain rpc, not invoke.call: no retry loop, no net.call span.
        reply = self.transport.rpc(
            self.node_id,
            self.nameserver_node,
            invoke.KIND,
            invoke.request(NAMESERVER_OBJECT, method, args),
        )
        return invoke.result(reply)

    def register_proxy(self, proxy_node: str) -> int:
        return self._call("register_proxy", proxy_node)

    def register_client(self, user: str) -> str:
        return self._call("register_client", user)

    def proxy_of(self, user: str) -> str | None:
        return self._call("proxy_of", user)

    def list_proxies(self) -> list[str]:
        return self._call("list_proxies")

    def list_clients(self) -> list[str]:
        return self._call("list_clients")

    def stats(self) -> dict[str, Any]:
        return self._call("stats")
