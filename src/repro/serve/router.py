"""Shard-aware routing: the pipeline → worker map and its enforcement.

A fleet partitions the pipeline registry across N worker processes.
Three cooperating pieces keep requests landing on the right worker
without a coordination service:

:class:`ShardMap`
    The versioned, consistent pipeline→shard assignment.  Pure data:
    a shard count, a monotonically increasing version, and an explicit
    assignment table for pipelines that have been placed (or migrated)
    by hand; everything else hashes deterministically (CRC-32 of the
    pipeline name, the same stable primitive the journal uses).  Two
    holders of the same wire document always route identically.

:class:`ShardGateway`
    Worker-side enforcement.  Wraps any
    :class:`~repro.serve.gateway.GatewayLike` and bounces requests for
    pipelines the worker does not own with a structured
    ``wrong-shard`` error that *embeds the worker's current map* — a
    client holding a stale map learns the new topology from the bounce
    itself, no resolver round trip.  Bounced requests never reach the
    wrapped gateway, so they cannot pollute the write-ahead journal or
    the idempotency window.

:class:`ShardRouter`
    Client-side resolution with failover.  Routes each call through
    its local map copy, adopts the newer map out of any ``wrong-shard``
    bounce and re-issues the call once, and pins the idempotent ``rid``
    across the re-route so a request that straddles a migration (or a
    worker restart) still executes at most once.

Stale maps are *safe*, only slow: the worst case is one extra round
trip per topology change, because every worker can redirect with
authority over its own shard.  See DESIGN.md §13 for the mapping onto
the exact-``U_j(t)`` invariants.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .client import GatewayClient, GatewayError
from .gateway import GatewayLike, Routed
from .protocol import ProtocolError, encode, parse_request

__all__ = [
    "SHARD_MAP_FORMAT",
    "ShardMap",
    "ShardGateway",
    "ShardRouter",
    "wrong_shard_response",
]

#: Version tag of the shard-map wire document.
SHARD_MAP_FORMAT = "repro.serve.shard-map/1"


@dataclass(frozen=True)
class ShardMap:
    """Versioned, consistent pipeline → shard assignment.

    Attributes:
        shards: Number of shards (workers) in the fleet (>= 1).
        version: Topology version; strictly increases on every
            reassignment so holders can order two maps.
        assignments: Explicit ``(pipeline, shard)`` placements, sorted
            by name.  Pipelines not listed hash to
            ``crc32(name) % shards``.
    """

    shards: int
    version: int = 1
    assignments: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")
        normalized = tuple(
            sorted((str(name), int(shard)) for name, shard in self.assignments)
        )
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ValueError("assignments must not repeat a pipeline name")
        for name, shard in normalized:
            if not 0 <= shard < self.shards:
                raise ValueError(
                    f"assignment {name!r} -> {shard} outside [0, {self.shards})"
                )
        object.__setattr__(self, "assignments", normalized)
        object.__setattr__(self, "_table", dict(normalized))

    @classmethod
    def balanced(
        cls, names: Iterable[str], shards: int, version: int = 1
    ) -> "ShardMap":
        """Round-robin the (sorted) names across shards, explicitly.

        Unlike pure hashing, this guarantees every shard owns at least
        one pipeline whenever ``len(names) >= shards`` — the shape the
        fleet chaos gate wants.
        """
        ordered = sorted(str(name) for name in names)
        return cls(
            shards=shards,
            version=version,
            assignments=tuple(
                (name, index % shards) for index, name in enumerate(ordered)
            ),
        )

    def shard_of(self, name: str) -> int:
        """The shard owning ``name`` (explicit placement or hash)."""
        table: Dict[str, int] = self._table  # type: ignore[attr-defined]
        placed = table.get(name)
        if placed is not None:
            return placed
        return zlib.crc32(name.encode("utf-8")) % self.shards

    def assign(self, name: str, shard: int) -> "ShardMap":
        """A new map (version + 1) with ``name`` placed on ``shard``."""
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} outside [0, {self.shards})")
        kept = tuple(
            (existing, owner)
            for existing, owner in self.assignments
            if existing != name
        )
        return ShardMap(
            shards=self.shards,
            version=self.version + 1,
            assignments=kept + ((str(name), shard),),
        )

    def owned_by(self, shard: int) -> List[str]:
        """Explicitly placed pipelines owned by ``shard``, sorted."""
        return [name for name, owner in self.assignments if owner == shard]

    def to_wire(self) -> Dict[str, Any]:
        """Canonical wire document of this map."""
        return {
            "format": SHARD_MAP_FORMAT,
            "shards": self.shards,
            "version": self.version,
            "assignments": [[name, shard] for name, shard in self.assignments],
        }

    @classmethod
    def from_wire(cls, doc: Any) -> "ShardMap":
        """Parse a :meth:`to_wire` document.

        Raises:
            ProtocolError: On a malformed or wrong-format document.
        """
        if not isinstance(doc, dict) or doc.get("format") != SHARD_MAP_FORMAT:
            raise ProtocolError(
                "bad-shard-map", f"expected a {SHARD_MAP_FORMAT!r} document"
            )
        try:
            return cls(
                shards=int(doc["shards"]),
                version=int(doc["version"]),
                assignments=tuple(
                    (str(name), int(shard)) for name, shard in doc["assignments"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("bad-shard-map", str(exc)) from exc


def wrong_shard_response(
    request: Dict[str, Any], owner: int, shard_map: ShardMap
) -> str:
    """The structured bounce for a request routed to the wrong worker.

    Carries the worker's current map so the client can re-resolve from
    the error itself; ``shard`` names the owner so a thin client can
    redirect without parsing the whole map.
    """
    return encode(
        {
            "id": request.get("id"),
            "op": request.get("op"),
            "ok": False,
            "error": "wrong-shard",
            "detail": (
                f"pipeline {request.get('pipeline')!r} is owned by shard "
                f"{owner} (map version {shard_map.version})"
            ),
            "shard": owner,
            "map": shard_map.to_wire(),
        }
    )


class ShardGateway:
    """Worker-side shard enforcement over any :class:`GatewayLike`.

    Satisfies :class:`GatewayLike` itself, so it stacks on top of the
    durable wrapper unchanged: ``GatewayServer`` → ``ShardGateway`` →
    ``DurableGateway`` → ``AdmissionGateway``.  Requests for pipelines
    another shard owns are answered with :func:`wrong_shard_response`
    *before* the inner gateway sees them — a misrouted mutation can
    reach neither the journal nor the dedup window.

    Ops without a ``pipeline`` operand (``health``, fleet-level
    ``stats``/``drain``) always pass through, as do unparseable lines
    (the inner gateway renders the canonical error for those).

    Args:
        inner: The wrapped gateway core.
        shard: This worker's shard index.
        shard_map: The current topology (replace via
            :meth:`install_map` on rebalance).
    """

    def __init__(self, inner: GatewayLike, shard: int, shard_map: ShardMap) -> None:
        if not 0 <= shard < shard_map.shards:
            raise ValueError(
                f"shard {shard} outside [0, {shard_map.shards})"
            )
        self.inner = inner
        self.shard = shard
        self.shard_map = shard_map
        self.bounced = 0

    # -- GatewayLike surface ------------------------------------------

    @property
    def draining(self) -> bool:
        return self.inner.draining

    @draining.setter
    def draining(self, value: bool) -> None:
        self.inner.draining = value

    def install_map(self, shard_map: ShardMap) -> None:
        """Adopt a newer topology (refuse version rollback)."""
        if shard_map.version < self.shard_map.version:
            raise ValueError(
                f"map version {shard_map.version} rolls back installed "
                f"version {self.shard_map.version}"
            )
        if not 0 <= self.shard < shard_map.shards:
            raise ValueError(
                f"shard {self.shard} outside [0, {shard_map.shards})"
            )
        self.shard_map = shard_map

    def _bounce(self, line: str) -> Optional[str]:
        """The wrong-shard response for ``line``, or ``None`` to pass."""
        try:
            request = parse_request(line)
        except ProtocolError:
            return None  # the inner gateway renders the canonical error
        name = request.get("pipeline")
        if not isinstance(name, str):
            return None
        owner = self.shard_map.shard_of(name)
        if owner == self.shard:
            return None
        self.bounced += 1
        return wrong_shard_response(request, owner, self.shard_map)

    def handle_line(self, line: str, origin: Any = None) -> List[Routed]:
        bounce = self._bounce(line)
        if bounce is not None:
            return [(origin, bounce)]
        return self.inner.handle_line(line, origin)

    def _runs(self, frames: Sequence[bytes]) -> List[Union[List[bytes], str]]:
        """Split a chunk, in line order, into maximal runs of frames
        this shard serves and the bounces between them.

        Bouncing is a pure function of the line and the installed map,
        so deciding every bounce before the inner gateway sees the runs
        changes nothing the per-line loop would show.
        """
        pieces: List[Union[List[bytes], str]] = []
        run: List[bytes] = []
        for raw in frames:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            bounce = self._bounce(line)
            if bounce is None:
                run.append(raw)
                continue
            if run:
                pieces.append(run)
                run = []
            pieces.append(bounce)
        if run:
            pieces.append(run)
        return pieces

    def handle_frames(
        self, frames: Sequence[bytes], origin: Any = None
    ) -> List[Routed]:
        """Each run of owned frames goes to one inner chunk call (one
        group commit on a durable inner gateway); bounces are answered
        in line order between the runs."""
        routed: List[Routed] = []
        for piece in self._runs(frames):
            if isinstance(piece, str):
                routed.append((origin, piece))
            else:
                routed.extend(self.inner.handle_frames(piece, origin))
        return routed

    def drain(self) -> List[Routed]:
        return self.inner.drain()

    async def handle_frames_async(
        self, frames: Sequence[bytes], origin: Any = None
    ) -> List[Routed]:
        """Event-loop-safe :meth:`handle_frames`."""
        routed: List[Routed] = []
        for piece in self._runs(frames):
            if isinstance(piece, str):
                routed.append((origin, piece))
            else:
                routed.extend(await self.inner.handle_frames_async(piece, origin))
        return routed

    async def drain_async(self) -> List[Routed]:
        return await self.inner.drain_async()


class ShardRouter:
    """Client-side routing with stale-map re-resolution.

    Holds one :class:`GatewayClient` per shard (built lazily via the
    ``connect`` factory, rebuilt after transport failures by whatever
    retry layer wraps the clients) and a local :class:`ShardMap` copy.
    A ``wrong-shard`` bounce updates the local map from the embedded
    document and re-issues the call once to the indicated owner; the
    idempotency ``rid`` is pinned across the re-route, so a call that
    lands mid-migration still executes at most once.

    Attributes:
        stale_resolves: Calls that needed a bounce-and-re-route.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        connect: Callable[[int], GatewayClient],
    ) -> None:
        self.shard_map = shard_map
        self._connect = connect
        self._clients: Dict[int, GatewayClient] = {}
        self.stale_resolves = 0

    def client(self, shard: int) -> GatewayClient:
        """The (lazily connected) client for ``shard``."""
        client = self._clients.get(shard)
        if client is None:
            client = self._connect(shard)
            self._clients[shard] = client
        return client

    def drop_client(self, shard: int) -> None:
        """Forget a shard's client (reconnect on next use)."""
        client = self._clients.pop(shard, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    def adopt_map(self, doc: Any) -> ShardMap:
        """Adopt the newer of the local map and a wire document."""
        offered = ShardMap.from_wire(doc)
        if offered.version > self.shard_map.version:
            self.shard_map = offered
        return self.shard_map

    def call(self, op: str, pipeline: str, **operands: Any) -> Dict[str, Any]:
        """Issue one pipeline-targeted call, re-routing on a stale map.

        Raises:
            GatewayError: Any non-``wrong-shard`` error answer, or a
                ``wrong-shard`` bounce that persists after re-resolving
                (a worker whose map disagrees with its own ownership —
                a topology bug, not a staleness race).
        """
        shard = self.shard_map.shard_of(pipeline)
        try:
            return self.client(shard).call(op, pipeline=pipeline, **operands)
        except GatewayError as exc:
            if exc.code != "wrong-shard" or exc.response is None:
                raise
            self.stale_resolves += 1
            self.adopt_map(exc.response.get("map"))
            owner = self.shard_map.shard_of(pipeline)
            if owner == shard:
                raise
            return self.client(owner).call(op, pipeline=pipeline, **operands)

    def close(self) -> None:
        for shard in list(self._clients):
            self.drop_client(shard)


def partition_names(names: Sequence[str], shard_map: ShardMap) -> Dict[int, List[str]]:
    """Group ``names`` by owning shard (diagnostics helper)."""
    grouped: Dict[int, List[str]] = {}
    for name in names:
        grouped.setdefault(shard_map.shard_of(name), []).append(name)
    return {shard: sorted(owned) for shard, owned in sorted(grouped.items())}
