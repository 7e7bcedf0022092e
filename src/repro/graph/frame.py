"""Frames: the boundary-local view of a graph that the LP pipeline reads.

The paper's balance and refinement LPs never constrain interior
vertices: layering starts at the partition boundary (§2.2), the balance
flow moves layered vertices (§2.3), and refinement only weighs a
vertex's cut arcs against its local arcs (§2.4).  A frame is the piece
of a graph those phases actually read, and every phase of
:class:`~repro.core.partitioner.IncrementalGraphPartitioner` reads its
graph through one:

* :class:`CSRFrame` (``CSRGraph.boundary_frame()``) over a monolithic
  :class:`~repro.graph.csr.CSRGraph` — :meth:`~FrameBase.rows` is a
  plain ``xadj`` gather;
* :class:`BoundaryFrame` (``ShardedCSRGraph.boundary_frame()``) over a
  :class:`~repro.graph.sharded.ShardedCSRGraph`, kept warm across
  flushes: a per-shard block cache (blocks are paged on first demand
  and *retained*; block revisions are immutable, so a cached block
  stays valid until a delta touches its shard and steady-state flushes
  hit zero store loads on untouched shards — the property the bench
  gate asserts via ``DirectoryShardStore.load_counts``) and a
  current-id vertex-weight vector maintained by scattering through a
  delta's ``old_to_new`` mapping instead of re-paging every shard.

Both share :class:`FrameBase`'s sorted **boundary superset** — every
vertex that *could* have a cross arc under the current partition.
Deltas and LP moves only ever create boundary vertices at known places
(endpoints of added edges, new vertices, movers and their neighbours),
so the superset is maintained by remapping + unioning, and tightened
back to the exact boundary whenever layering computes level 0.

The ordering contract: :meth:`~FrameBase.rows` returns, for any sorted
vertex set, exactly the subsequence of the monolith's global arc
arrays (same arcs, same order).  For a sharded graph this holds because
current order equals increasing birth order and every shard block's
rows are sorted by birth-id target.  Any ``np.bincount``/``np.sum``
over those arrays therefore accumulates in the same order on both graph
kinds, which keeps labels and pivots bit-identical between them.
"""

from __future__ import annotations

import numpy as np

from repro.graph.operations import boundary_vertices
from repro.graph.sharded import ShardBlock, _ramp, _row_gather, shard_key

__all__ = ["FrameBase", "CSRFrame", "BoundaryFrame", "as_frame"]


def as_frame(graph) -> "FrameBase":
    """``graph`` itself if it is already a frame, else a fresh
    ``graph.boundary_frame()``."""
    return graph if isinstance(graph, FrameBase) else graph.boundary_frame()


class FrameBase:
    """Boundary-superset maintenance and the ``rows`` memo shared by
    both frames.  Subclasses provide ``graph``, ``num_vertices``,
    ``vweights`` and ``_gather(verts)``, the uncached :meth:`rows`."""

    def __init__(self) -> None:
        self._boundary: np.ndarray | None = None
        # One-entry memo of the last rows(boundary) gather, keyed by the
        # boundary array's identity (mutations always swap the array).
        self._rows_memo: tuple | None = None

    @property
    def total_vertex_weight(self) -> float:
        """``float(vweights.sum())`` — the monolithic summation order,
        which keeps λ bit-identical across graph kinds (a sharded
        handle's per-shard partial sums may round differently)."""
        return float(self.vweights.sum())

    # ------------------------------------------------------------------
    # Arc gathering
    # ------------------------------------------------------------------
    def rows(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency rows of ``vertices`` as flat current-id arc arrays.

        ``vertices`` must be sorted unique current ids.  Returns
        ``(src, dst, ew)`` — exactly the subsequence of the monolith's
        arc arrays restricted to those source rows, in global CSR order.
        """
        memo = self._rows_memo
        if memo is not None and memo[0] is vertices:
            # Same boundary object as the previous call and no
            # intervening mutation (every mutation replaces the
            # boundary array, changing its identity).
            return memo[1]
        verts = np.asarray(vertices, dtype=np.int64)
        if len(verts) == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        result = self._gather(verts)
        if vertices is self._boundary:
            self._rows_memo = (vertices, result)
        return result

    # ------------------------------------------------------------------
    # Boundary superset maintenance
    # ------------------------------------------------------------------
    def ensure_boundary(self, part: np.ndarray) -> np.ndarray:
        """Sorted superset of the boundary vertices under ``part``.

        Computed with one full scan the first time, then maintained
        incrementally by :meth:`add_boundary` / :meth:`note_moves` (and
        :meth:`BoundaryFrame.advance`) and re-tightened by
        :meth:`set_boundary` whenever layering recomputes level 0.
        """
        if self._boundary is None:
            self._boundary = np.asarray(
                boundary_vertices(self.graph, part), dtype=np.int64
            )
        return self._boundary

    def set_boundary(self, vertices: np.ndarray) -> None:
        """Replace the superset with the exact boundary (sorted unique)
        a caller just derived from the cross arcs of the current rows."""
        self._boundary = np.asarray(vertices, dtype=np.int64)

    def add_boundary(self, vertices: np.ndarray) -> None:
        """Grow the superset: ``vertices`` may now have cross arcs
        (movers, their neighbours, endpoints of new edges)."""
        extra = np.asarray(vertices, dtype=np.int64)
        if len(extra) == 0:
            return
        if self._boundary is None:
            # Unknown baseline — leave it lazy; the next ensure_boundary
            # recomputes from scratch and subsumes these vertices.
            return
        self._boundary = np.union1d(self._boundary, extra)

    def note_moves(self, moved: np.ndarray) -> None:
        """Record LP moves: the movers and all their neighbours may now
        be boundary vertices (both directions of every arc incident to
        a mover are covered, because each neighbour's mirrored arc has
        the neighbour as source)."""
        moved = np.unique(np.asarray(moved, dtype=np.int64))
        if len(moved) == 0 or self._boundary is None:
            return
        _, dst, _ = self.rows(moved)
        self.add_boundary(np.concatenate([moved, dst]))


class CSRFrame(FrameBase):
    """Frame over a monolithic :class:`~repro.graph.csr.CSRGraph`."""

    def __init__(self, graph) -> None:
        super().__init__()
        self._graph = graph

    @property
    def graph(self):
        """The monolithic graph this frame reads."""
        return self._graph

    @property
    def num_vertices(self) -> int:
        """``|V|`` of the graph."""
        return self._graph.num_vertices

    @property
    def vweights(self) -> np.ndarray:
        """The graph's vertex weights."""
        return self._graph.vweights

    def _gather(self, verts):
        g = self._graph
        idx, counts = _row_gather(g.xadj, verts)
        return np.repeat(verts, counts), g.adj[idx], g.eweights[idx]


class BoundaryFrame(FrameBase):
    """Warm shard-native frame over a :class:`ShardedCSRGraph`.

    Parameters
    ----------
    graph:
        the sharded graph handle this frame tracks.  The frame follows
        the handle across deltas via :meth:`advance`; its block cache
        keeps every block ever paged (bounded by the shard count).
    """

    def __init__(self, graph) -> None:
        super().__init__()
        self._graph = graph
        self._blocks: dict[int, ShardBlock] = {}
        #: Store round-trips made through this frame (instrumentation).
        self.block_fetches = 0
        #: Cache hits served without touching the store — together with
        #: :attr:`block_fetches` this is the hit/miss pair flush spans
        #: report (``frame_hits`` / ``frame_fetches`` attributes).
        self.block_hits = 0
        # Serve the handle's own block reads (composer folds, delta
        # rewrites, full-sweep scans) from this frame's cache too, so
        # they stop thrashing the store's typically tiny LRU.  A bound
        # method is a fresh object per access, so pin one for the
        # identity checks in advance()/detach().
        self._hook = self._block
        graph._block_hook = self._hook
        # A cold attach right after a delta (e.g. recovering from a
        # fallback) can still reuse the blocks apply_delta just wrote.
        fresh = graph._fresh_blocks
        if fresh:
            graph._fresh_blocks = None
            for sid, blk in fresh.items():
                self._blocks[int(sid)] = blk
        # graph.vweights is cached read-only on the handle; sharing it
        # costs one full shard sweep at most once per frame lifetime —
        # and with the hook already installed, that warm-up sweep also
        # populates this frame's block cache.
        self._vweights: np.ndarray = graph.vweights

    @property
    def graph(self):
        """The sharded graph handle this frame currently tracks."""
        return self._graph

    @property
    def num_vertices(self) -> int:
        """``|V|`` of the tracked graph."""
        return self._graph.num_vertices

    @property
    def vweights(self) -> np.ndarray:
        """All vertex weights in current-id order (read-only,
        maintained incrementally — no shard paging)."""
        return self._vweights

    @property
    def num_cached_blocks(self) -> int:
        """Shard blocks currently retained by the frame."""
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Block cache
    # ------------------------------------------------------------------
    def _block(self, sid: int) -> ShardBlock:
        blk = self._blocks.get(sid)
        if blk is not None:
            self.block_hits += 1
            return blk
        g = self._graph
        # Load through the store directly: this method *is* the handle's
        # _block_hook, so going through g.shard_block would recurse.
        blk = ShardBlock.from_arrays(
            g.store.get(shard_key(sid, int(g.revs[sid])))
        )
        self.block_fetches += 1
        self._blocks[sid] = blk
        return blk

    def detach(self) -> None:
        """Uninstall this frame's block hook from its tracked handle.

        Call before discarding a frame whose handle lives on (chunked
        fallback, revision rollback): the handle returns to direct
        store loads and stops keeping the frame's cache alive."""
        if self._graph._block_hook is self._hook:
            self._graph._block_hook = None

    def _gather(self, verts):
        g = self._graph
        births = g.births[verts]
        owners = g.shard_of_birth[births]
        counts = np.zeros(len(verts), dtype=np.int64)
        pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for sid in np.unique(owners):
            block = self._block(int(sid))
            mask = owners == sid
            local = np.searchsorted(block.births, births[mask])
            idx, cnt = _row_gather(block.xadj, local)
            counts[mask] = cnt
            pieces.append((mask, block.adj[idx], block.eweights[idx]))
        if len(pieces) == 1:
            # Single owning shard: the gather is already in global CSR
            # order — skip the scatter entirely (the common case for
            # boundary-local churn).
            _, dst_births, ew = pieces[0]
        else:
            offsets = np.zeros(len(verts) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            total = int(offsets[-1])
            dst_births = np.empty(total, dtype=np.int64)
            ew = np.empty(total, dtype=np.float64)
            for mask, adj_piece, ew_piece in pieces:
                cnt = counts[mask]
                out = np.repeat(offsets[:-1][mask], cnt) + _ramp(cnt)
                dst_births[out] = adj_piece
                ew[out] = ew_piece
        return np.repeat(verts, counts), g.current_ids(dst_births), ew

    # ------------------------------------------------------------------
    # Delta advance
    # ------------------------------------------------------------------
    def advance(self, inc, delta) -> None:
        """Follow the graph across ``inc = old.apply_delta(delta)``.

        Drops cached blocks of touched shards (their revisions moved),
        scatters the vertex-weight vector through ``old_to_new`` (no
        shard paging), and remaps the boundary superset — deletions
        never *create* boundary vertices, added edges only create them
        at their endpoints, and new vertices are all candidates.
        """
        old_n = self._graph.num_vertices
        new_graph = inc.graph

        # Vertex weights: scatter survivors, append additions.  A fresh
        # array every advance — previous handles may share the old one.
        vw = np.empty(new_graph.num_vertices, dtype=np.float64)
        keep = inc.old_to_new >= 0
        vw[inc.old_to_new[keep]] = self._vweights[keep]
        if len(inc.new_vertex_ids):
            add_vw = (
                np.ones(len(inc.new_vertex_ids), dtype=np.float64)
                if delta.added_vweights is None
                else np.asarray(delta.added_vweights, dtype=np.float64)
            )
            vw[inc.new_vertex_ids] = add_vw
        vw.setflags(write=False)

        if self._boundary is not None:
            remapped = inc.old_to_new[self._boundary]
            parts = [remapped[remapped >= 0]]
            if len(delta.added_edges):
                old_ends = np.asarray(delta.added_edges, dtype=np.int64).ravel()
                old_ends = old_ends[old_ends < old_n]
                # Validated upstream: added edges never reference a
                # deleted vertex, so every old endpoint survives.
                parts.append(inc.old_to_new[old_ends])
            if len(inc.new_vertex_ids):
                parts.append(np.asarray(inc.new_vertex_ids, dtype=np.int64))
            self._boundary = np.unique(np.concatenate(parts))

        # Touched shards moved to new revisions.  apply_delta leaves the
        # blocks it just wrote decoded on the new handle — ingest them
        # instead of re-loading from the store what was in memory a
        # moment ago; anything not handed over is dropped and re-paged
        # on demand.
        self._rows_memo = None
        fresh = new_graph._fresh_blocks
        new_graph._fresh_blocks = None
        for sid in inc.touched_shards:
            sid = int(sid)
            blk = None if fresh is None else fresh.get(sid)
            if blk is None:
                self._blocks.pop(sid, None)
            else:
                self._blocks[sid] = blk
        # Migrate the block hook: the old handle must fall back to
        # direct store loads (this frame's cache is about to track the
        # *new* revisions of touched shards), the new handle gets served
        # from the warm cache.
        if self._graph._block_hook is self._hook:
            self._graph._block_hook = None
        self._graph = new_graph
        self._vweights = vw
        new_graph._block_hook = self._hook
        # Seed the new handle's lazy cache so everything else reading
        # graph.vweights this epoch (flush-policy loads, composers)
        # skips its own full shard sweep.
        if new_graph._vweights is None:
            new_graph._vweights = vw
