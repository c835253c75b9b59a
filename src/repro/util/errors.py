"""Exception hierarchy for the SyD reproduction.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause.
Subsystems define narrower subclasses; remote invocations marshal these
across the simulated network by name (see :mod:`repro.net.transport`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Network / transport
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class UnreachableError(NetworkError):
    """The destination node is down, partitioned away, or unknown."""


class MessageDropped(NetworkError):
    """A fault-injection rule dropped the message in flight."""


class RemoteError(NetworkError):
    """A remote handler raised; carries the remote error type and text.

    Attributes:
        error_type: class name of the exception raised on the remote node.
        remote_message: the remote exception's message text.
    """

    def __init__(self, error_type: str, remote_message: str | None = None):
        if remote_message is None:
            # Rebuilt from its one pre-formatted message when it crosses
            # the network again (``type(exc)(*exc.args)``): keep the text
            # unchanged and recover the parts from it.
            message = error_type
            error_type, _, remote_message = message.removeprefix("remote ").partition(": ")
        else:
            message = f"remote {error_type}: {remote_message}"
        super().__init__(message)
        self.error_type = error_type
        self.remote_message = remote_message


class StaleMessageError(NetworkError):
    """The receiver's dedup layer refused the invocation.

    Raised for a request carrying an idempotency key from a *fenced*
    sender incarnation (the sender restarted since stamping it) or for a
    duplicate whose sequence number is at or below the receiver's
    processed watermark but whose cached reply has been pruned. Not
    retryable: re-sending the same key can never succeed.
    """


class DeadlineExceeded(NetworkError):
    """A deadline budget ran out before the call chain could finish.

    Raised by the retry layer when the remaining budget cannot cover
    another attempt, and by the transport when a request arrives with an
    already-expired budget. Carries the spent and total budget so the
    caller can tell a tight budget from a gray participant.
    """

    def __init__(self, spent: float | str = 0.0, total: float = 0.0, detail: str = ""):
        # Typed errors are rebuilt from their message when they cross the
        # network (``cls(message)`` / ``type(exc)(*exc.args)``), so a
        # single pre-formatted string must round-trip unchanged.
        if isinstance(spent, str):
            super().__init__(spent)
            self.spent = 0.0
            self.total = 0.0
            return
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"deadline exceeded: spent {spent:.3f}s of {total:.3f}s budget{suffix}"
        )
        self.spent = spent
        self.total = total


class Overloaded(NetworkError):
    """The callee shed this request under backpressure; retry later.

    Raised by bounded admission queues (e.g. the negotiation
    coordinator) when accepting more work would only grow an unbounded
    defer queue. Retryable by design: the condition is transient.
    """


# ---------------------------------------------------------------------------
# Directory / naming
# ---------------------------------------------------------------------------

class DirectoryError(ReproError):
    """Base class for SyDDirectory failures."""


class UnknownUserError(DirectoryError):
    """Lookup of a user id that was never published."""


class UnknownServiceError(DirectoryError):
    """Lookup of a service that was never registered."""


class UnknownGroupError(DirectoryError):
    """Lookup of a group that was never formed."""


class DuplicateRegistrationError(DirectoryError):
    """A user/service/group id was published twice."""


# ---------------------------------------------------------------------------
# Data stores
# ---------------------------------------------------------------------------

class StoreError(ReproError):
    """Base class for data-store failures."""


class SchemaError(StoreError):
    """Row or table definition violates the declared schema."""


class UnknownTableError(StoreError):
    """Operation on a table that does not exist."""


class DuplicateKeyError(StoreError):
    """Insert with a primary key that already exists."""


class QueryError(StoreError):
    """Malformed predicate or query."""


class UnsupportedOperationError(StoreError):
    """The store kind does not support the requested operation."""


# ---------------------------------------------------------------------------
# Coordination links
# ---------------------------------------------------------------------------

class LinkError(ReproError):
    """Base class for SyDLinks failures."""


class UnknownLinkError(LinkError):
    """Operation on a link id that is not in the link database."""


class InvalidLinkError(LinkError):
    """Link specification is internally inconsistent."""


# ---------------------------------------------------------------------------
# Locking / transactions
# ---------------------------------------------------------------------------

class LockError(ReproError):
    """Base class for lock-manager failures."""


class LockUnavailableError(LockError):
    """The requested lock is held by another owner."""


class LockNotHeldError(LockError):
    """Release/confirm of a lock the caller does not hold."""


class LockOwnerError(LockNotHeldError):
    """Release of a lock held by a *different* owner.

    Subclass of :class:`LockNotHeldError` so existing handlers keep
    working, but distinguishable: releasing another owner's lock is a
    protocol bug (stale txn id, mis-routed unmark), not a benign
    already-released race.
    """


class TransactionError(ReproError):
    """Group transaction could not complete atomically."""


class CoordinatorCrashed(TransactionError):
    """The negotiation coordinator died mid-protocol (fault injection).

    Raised by an armed crash point inside
    :class:`~repro.txn.coordinator.NegotiationCoordinator`; the normal
    unlock/END epilogue is deliberately skipped, leaving the transaction
    in-flight for crash recovery to resolve.
    """


# ---------------------------------------------------------------------------
# Security
# ---------------------------------------------------------------------------

class SecurityError(ReproError):
    """Base class for authentication/encryption failures."""


class AuthenticationError(SecurityError):
    """Credentials missing, undecryptable, or not in the authorized list."""


class CipherError(SecurityError):
    """Malformed ciphertext or key material."""


# ---------------------------------------------------------------------------
# Calendar application
# ---------------------------------------------------------------------------

class CalendarError(ReproError):
    """Base class for calendar-application failures."""


class SlotUnavailableError(CalendarError):
    """Attempt to reserve a slot that is not free."""


class NotInitiatorError(CalendarError):
    """Only the meeting initiator may perform this operation."""


class SchedulingError(CalendarError):
    """No slot satisfying the request could be found or reserved."""


#: Mapping from exception class name to class, used to reconstruct typed
#: errors after they cross the simulated network (see ``RemoteError``).
ERRORS_BY_NAME = {
    cls.__name__: cls
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, ReproError)
}
