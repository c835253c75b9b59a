"""Proxy hosts: standing in for disconnected devices (paper §5.2).

"If a SyD calendar object A is down or disconnected, a proxy takes over
the place of A. Once A comes back up, A takes over the proxy. The proxy
and the SyD object act as a single entity for an outsider."

A :class:`ProxyHost` is a server node that:

* registers itself with the name server at startup,
* accepts client **enrollments** — a store snapshot plus the list of
  services to re-instantiate on the replica (from *factories* the proxy
  process registered, mirroring how the prototype's application server
  hosted servlet copies of the client objects),
* accepts incremental **sync** batches (device journal entries) while the
  device is up,
* **serves invocations** addressed ``for_user`` when the device is down —
  the engine's failover path — journaling any writes,
* **hands back** the accumulated writes when the device returns.

The device-side driver of this protocol is
:class:`repro.proxy.device.ProxiedDevice`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.datastore.snapshot import import_into
from repro.datastore.store import DataStore
from repro.datastore.wal import ChangeJournal, JournalEntry, replay
from repro.device.object import SyDDeviceObject, exported
from repro.kernel import invoke
from repro.kernel.listener import SyDListener
from repro.net.address import DeviceClass, NodeAddress
from repro.net.message import Message
from repro.net.transport import Transport
from repro.proxy.nameserver import NameServerClient
from repro.proxy.session import ProxySession
from repro.util.errors import DirectoryError, NetworkError

PROXY_OBJECT = "_syd_proxy"

#: A factory builds a device object of a given service bound to a store:
#: factory(user, store) -> SyDDeviceObject
ObjectFactory = Callable[[str, DataStore], SyDDeviceObject]


class ProxyControl(SyDDeviceObject):
    """The proxy's own published control object (enroll/sync/handback)."""

    def __init__(self, host: "ProxyHost"):
        super().__init__(PROXY_OBJECT, store=None)
        self.host = host

    @exported
    def enroll(
        self,
        user: str,
        snapshot: dict[str, Any],
        object_specs: list[dict[str, Any]],
        device_seq: int = 0,
    ) -> dict[str, Any]:
        """Create/refresh a session for ``user`` from a store snapshot.

        ``object_specs`` entries: ``{"service", "object_name", "factory"}``.
        ``device_seq`` is the device-journal watermark the snapshot
        corresponds to.
        """
        return self.host.enroll(user, snapshot, object_specs, device_seq)

    @exported
    def sync(self, user: str, entries: list[dict[str, Any]]) -> int:
        """Apply device-journal entries to the user's replica."""
        return self.host.sync(user, entries)

    @exported
    def handback(self, user: str) -> list[dict[str, Any]]:
        """Return (and clear) writes accepted while serving for ``user``."""
        return self.host.handback(user)

    @exported
    def sessions(self) -> list[str]:
        """Users currently enrolled at this proxy."""
        return sorted(self.host._sessions)

    @exported
    def serving_calls(self, user: str) -> int:
        """How many invocations this proxy answered for ``user``."""
        return self.host.session(user).serving_calls


class ProxyHost:
    """A server node acting as proxy for enrolled users."""

    def __init__(
        self,
        node_id: str,
        transport: Transport,
        nameserver_node: str | None = None,
    ):
        self.node_id = node_id
        self.transport = transport
        self.listener = SyDListener(node_id)
        self.control = ProxyControl(self)
        self.listener.publish_object(self.control)
        self._sessions: dict[str, ProxySession] = {}
        self._factories: dict[str, ObjectFactory] = {}
        transport.register(NodeAddress(node_id, DeviceClass.SERVER), self.handle_message)
        if nameserver_node:
            NameServerClient(node_id, transport, nameserver_node).register_proxy(node_id)

    # -- factories -----------------------------------------------------------

    def register_factory(self, name: str, factory: ObjectFactory) -> None:
        """Teach the proxy how to rebuild a service on a replica store."""
        self._factories[name] = factory

    # -- session management ------------------------------------------------------

    def session(self, user: str) -> ProxySession:
        try:
            return self._sessions[user]
        except KeyError:
            raise DirectoryError(f"user {user!r} is not enrolled at proxy {self.node_id}") from None

    def enroll(
        self,
        user: str,
        snapshot: dict[str, Any],
        object_specs: list[dict[str, Any]],
        device_seq: int,
    ) -> dict[str, Any]:
        session = ProxySession(user)
        import_into(session.replica, snapshot, replace=True)
        session.synced_seq = device_seq
        session.object_specs = list(object_specs)
        for spec in object_specs:
            factory = self._factories.get(spec["factory"])
            if factory is None:
                raise DirectoryError(
                    f"proxy {self.node_id} has no factory {spec['factory']!r}"
                )
            obj = factory(user, session.replica)
            # The outsider invokes the *device's* object name; the replica
            # object must answer to it regardless of what the factory chose.
            obj.name = spec["object_name"]
            obj.publish(session.registry)
        self._publish_links_service(user, session)
        session.start_journaling()
        self._sessions[user] = session
        return {"proxy": self.node_id, "synced_seq": session.synced_seq}

    def _publish_links_service(self, user: str, session: ProxySession) -> None:
        """Host the user's ``_syd_links`` service over the replica.

        Link rows live in the user's own store (§4.2 op 1), which the
        replica mirrors — so peers can install back links, cascade
        deletions, and promote waiting links while the device is down.
        Outgoing cascades run through the proxy's own engine. Writes land
        in the replica and are journaled for handback like any other.
        """
        from repro.kernel.directory import DirectoryClient
        from repro.kernel.engine import SyDEngine
        from repro.kernel.links import LINKS_SERVICE, LINKS_TABLE, SyDLinks, SyDLinksService

        if not session.replica.has_table(LINKS_TABLE):
            return  # not a SyD-kernel store (bare app replica)
        engine = SyDEngine(
            self.node_id, self.transport, DirectoryClient(self.node_id, self.transport)
        )
        links = SyDLinks(user, session.replica, engine, self.transport.clock)
        facade = SyDLinksService(links)
        assert facade.name == LINKS_SERVICE
        facade.publish(session.registry)

    def sync(self, user: str, entries: list[dict[str, Any]]) -> int:
        """Apply incremental device-journal entries to the replica."""
        session = self.session(user)
        # Do not journal replication traffic as proxy-accepted writes.
        session.stop_journaling()
        try:
            journal = ChangeJournal()
            for e in entries:
                if e["seq"] <= session.synced_seq:
                    continue
                journal._entries.append(  # noqa: SLF001 - bulk load
                    JournalEntry(e["seq"], e["op"], e["table"], e["pk"], e["row"])
                )
            applied = replay(journal, session.replica)
            if entries:
                session.synced_seq = max(session.synced_seq, max(e["seq"] for e in entries))
            return applied
        finally:
            session.start_journaling()

    def handback(self, user: str) -> list[dict[str, Any]]:
        session = self.session(user)
        session.serving_calls = 0
        return session.drain_journal()

    # -- dispatch -----------------------------------------------------------------

    def handle_message(self, msg: Message) -> dict[str, Any]:
        """Answer control calls and impersonated application calls."""
        if msg.kind != invoke.KIND:
            raise NetworkError(f"proxy {self.node_id} cannot handle kind {msg.kind!r}")
        for_user = msg.payload.get("for_user")
        if for_user is None:
            return self.listener.handle_invoke(msg)
        session = self.session(for_user)
        object_name, method, args, kwargs = invoke.target(msg.payload)
        fn = session.registry.lookup(object_name, method)
        result = fn(*args, **kwargs)
        session.serving_calls += 1
        return invoke.reply(result)
