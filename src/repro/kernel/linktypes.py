"""Coordination link records.

Paper §4.1: "A SyD coordination link is an entry in a data-store
associated with an entity that has the following components: A link is
specified by its type (subscription / negotiation), its subtype
(permanent / tentative), references to one or more entities, triggers
associated with each reference (event-condition-action, ECA, rules), a
priority, a constraint (and, or, xor), a link creation time and a link
expiry time."

:class:`Link` is exactly that record, plus a free-form ``context`` dict
applications use to tie together logically-associated links (the paper's
"all links logically associated together are deleted in a cascading
manner" — association here is by ``context["cascade_id"]``).

Links are rows: ``to_row``/``from_row`` map to the ``SyD_Links`` table
kept in the owner's own data store (§4.2 op 1: "All link information is
maintained in a link database that is stored locally by the user").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional

from repro.txn.coordinator import Constraint, ConstraintKind
from repro.util.errors import InvalidLinkError


class LinkType(str, Enum):
    """Subscription links propagate; negotiation links transact (§4.2)."""

    SUBSCRIPTION = "subscription"
    NEGOTIATION = "negotiation"


class LinkSubtype(str, Enum):
    """Permanent links are live; tentative links await promotion (§4.2)."""

    PERMANENT = "permanent"
    TENTATIVE = "tentative"


@dataclass(frozen=True)
class LinkRef:
    """Reference to a peer entity, with its per-reference trigger.

    ``on_change`` is the method invoked on the peer's ``service`` when a
    subscription link fires (the "action" of the ECA rule); negotiation
    links instead use the mark/change/unmark verbs of ``service``.
    """

    user: str
    entity: Any
    service: str = "calendar"
    on_change: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "user": self.user,
            "entity": self.entity,
            "service": self.service,
            "on_change": self.on_change,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "LinkRef":
        return LinkRef(d["user"], d["entity"], d.get("service", "calendar"), d.get("on_change"))


def format_constraint(constraint: Constraint | None) -> str | None:
    """Serialize a constraint for storage (``"and"``, ``"at_least_k:2"``...)."""
    if constraint is None:
        return None
    if constraint.k is not None:
        return f"{constraint.kind.value}:{constraint.k}"
    return constraint.kind.value


def parse_constraint(text: str | None) -> Constraint | None:
    """Inverse of :func:`format_constraint`."""
    if text is None:
        return None
    kind_text, _, k_text = text.partition(":")
    try:
        kind = ConstraintKind(kind_text)
    except ValueError:
        raise InvalidLinkError(f"unknown constraint {text!r}") from None
    return Constraint(kind, int(k_text) if k_text else None)


@dataclass(frozen=True)
class Link:
    """One coordination link (see module docstring)."""

    link_id: str
    owner: str
    ltype: LinkType
    subtype: LinkSubtype
    source_entity: Any                 # change of this entity triggers the link
    refs: tuple[LinkRef, ...]
    constraint: Constraint | None = None
    priority: int = 0
    created_at: float = 0.0
    expires_at: Optional[float] = None
    waiting_on: Optional[str] = None   # link id this tentative link waits upon
    context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.ltype is LinkType.NEGOTIATION and self.constraint is None:
            raise InvalidLinkError("negotiation links require a constraint")
        if self.ltype is LinkType.SUBSCRIPTION and self.constraint is not None:
            raise InvalidLinkError("subscription links take no constraint")
        if not self.refs:
            raise InvalidLinkError("a link references at least one entity")
        if self.waiting_on is not None and self.subtype is not LinkSubtype.TENTATIVE:
            raise InvalidLinkError("only tentative links can wait on another link")
        if self.expires_at is not None and self.expires_at < self.created_at:
            raise InvalidLinkError("link expires before it is created")

    @property
    def cascade_id(self) -> str:
        """Association id for cascading deletion (defaults to the link id)."""
        return self.context.get("cascade_id", self.link_id)

    def is_expired(self, now: float) -> bool:
        """Past its expiry time?"""
        return self.expires_at is not None and now >= self.expires_at

    def promoted(self) -> "Link":
        """A permanent copy of this tentative link (promotion, §4.2 op 3)."""
        return replace(self, subtype=LinkSubtype.PERMANENT, waiting_on=None)

    # -- row mapping ---------------------------------------------------------

    def to_row(self) -> dict[str, Any]:
        return {
            "link_id": self.link_id,
            "owner": self.owner,
            "ltype": self.ltype.value,
            "subtype": self.subtype.value,
            "source_entity": self.source_entity,
            "refs": [r.to_dict() for r in self.refs],
            "constraint": format_constraint(self.constraint),
            "priority": self.priority,
            "created_at": self.created_at,
            "expires_at": self.expires_at,
            "waiting_on": self.waiting_on,
            "context": dict(self.context),
        }

    @staticmethod
    def from_row(row: dict[str, Any]) -> "Link":
        return Link(
            link_id=row["link_id"],
            owner=row["owner"],
            ltype=LinkType(row["ltype"]),
            subtype=LinkSubtype(row["subtype"]),
            source_entity=row["source_entity"],
            refs=tuple(LinkRef.from_dict(d) for d in row["refs"]),
            constraint=parse_constraint(row["constraint"]),
            priority=row["priority"],
            created_at=row["created_at"],
            expires_at=row["expires_at"],
            waiting_on=row["waiting_on"],
            context=dict(row["context"] or {}),
        )
