"""Per-store authorization tables.

Paper §5.4: "each user's database also has a table containing the user
id and password of authorized users ... these are then compared against a
list of users who have access permission". :class:`AuthTable` manages
that table (``syd_users``) inside a device's own store — independence of
stores extends to who each device trusts.

Passwords are stored hashed (salted SHA-256); the 2003 prototype likely
stored them plain, but hashing costs nothing and changes no behaviour.
"""

from __future__ import annotations

import hashlib

from repro.datastore.predicate import where
from repro.datastore.schema import ColumnType, schema
from repro.datastore.store import DataStore
from repro.util.errors import AuthenticationError

AUTH_TABLE = "syd_users"


def _hash_password(user_id: str, password: str) -> str:
    return hashlib.sha256(f"{user_id}:{password}".encode("utf-8")).hexdigest()


class AuthTable:
    """Authorized-user management for one device's store."""

    def __init__(self, store: DataStore):
        self.store = store
        if not store.has_table(AUTH_TABLE):
            store.create_table(
                AUTH_TABLE,
                schema(
                    "user_id",
                    user_id=ColumnType.STR,
                    password_hash=ColumnType.STR,
                ),
            )

    def grant(self, user_id: str, password: str) -> None:
        """Authorize ``user_id`` with ``password`` (idempotent upsert)."""
        self.store.put(
            AUTH_TABLE,
            {"user_id": user_id, "password_hash": _hash_password(user_id, password)},
        )

    def revoke(self, user_id: str) -> bool:
        """Remove authorization; returns True when the user existed."""
        return self.store.delete(AUTH_TABLE, where("user_id") == user_id) > 0

    def check(self, user_id: str, password: str) -> None:
        """Raise :class:`AuthenticationError` unless credentials are valid."""
        row = self.store.get(AUTH_TABLE, user_id)
        if row is None or row["password_hash"] != _hash_password(user_id, password):
            raise AuthenticationError(f"user {user_id!r} is not authorized")

    def is_authorized(self, user_id: str, password: str) -> bool:
        """Boolean form of :meth:`check`."""
        try:
            self.check(user_id, password)
            return True
        except AuthenticationError:
            return False

    def authorized_users(self) -> list[str]:
        """All authorized user ids."""
        return [r["user_id"] for r in self.store.select(AUTH_TABLE)]
