"""Base class and context interfaces for level formats.

A *level format* stores one dimension (level) of a coordinate hierarchy
(Section 2).  Every tensor format is a composition of level formats plus a
coordinate remapping.  Each level implements up to four facets:

1. **properties** — ``full``/``ordered``/``unique``/``branchless``/
   ``compact`` from Chou et al. [17], plus ``stores_explicit_zeros``
   (the new property Table 1's caption introduces) and ``has_edges``
   (whether assembling the level requires an edge-insertion phase);
2. **iteration** — code generation (``emit_iteration``) and host-side
   interpretation (``iterate``) of the level functions
   ``pos_bounds``/``pos_access``, ``coord_bounds``/``coord_access`` and
   ``locate`` of Chou et al.; ``check`` validates the level's stored
   arrays and returns its size, and ``width_step`` composes a position
   range through the level (the simplify-width-count rewrite);
3. **assembly** — the new level functions of Section 6.1: ``get_size``,
   sequenced/unsequenced edge insertion, ``init_coords``,
   ``get_pos``/``yield_pos`` (+ init/finalize) and ``insert_coord``,
   together with the attribute queries (:class:`~repro.query.spec.QuerySpec`)
   the level requires;
4. **vector emission** — the bulk-numpy mirrors of the iteration and
   assembly facets consumed by :mod:`repro.ir.vector`: ``vector_iterate``
   (expand a frontier of paths by this level's children), ``vector_edges``
   (bulk edge insertion via ``cumsum`` over query counts), ``vector_pos``
   (per-nonzero destination positions, ``group_ranks`` in place of the
   sequenced ``yield_pos`` bump) and friends.  A level that sets
   ``vector_capable = False`` (the default for new level types, and for
   :class:`~repro.levels.hashed.HashedLevel`) makes every conversion
   touching it fall back to the scalar backend.

Code generation methods receive a context object (implemented by the
conversion planner, :mod:`repro.convert.context`) that resolves array names
(``B2_pos``), remapped dimension bounds and query results, and produces
fresh variable names.  Host-side methods receive a
:class:`~repro.storage.tensor.StorageView`-like object with ``array``,
``meta`` and ``dim_size`` accessors.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple

from ..ir.nodes import Expr, Stmt
from ..query.spec import QuerySpec


class LevelFunctionError(NotImplementedError):
    """Raised when a level is asked for a facet it does not implement
    (e.g. random ``locate`` into a compressed level)."""


class Level:
    """Abstract level format.

    Concrete subclasses: :class:`~repro.levels.dense.DenseLevel`,
    :class:`~repro.levels.compressed.CompressedLevel`,
    :class:`~repro.levels.singleton.SingletonLevel`,
    :class:`~repro.levels.sliced.SlicedLevel`,
    :class:`~repro.levels.squeezed.SqueezedLevel`,
    :class:`~repro.levels.offset.OffsetLevel`,
    :class:`~repro.levels.banded.BandedLevel`,
    :class:`~repro.levels.hashed.HashedLevel`.
    """

    #: short name used in format signatures (e.g. ``"compressed"``)
    name: str = "abstract"

    # -- properties (Chou et al. + Section 5/6 additions) -------------------
    full: bool = False
    ordered: bool = True
    unique: bool = True
    branchless: bool = False
    compact: bool = True
    #: the level materializes every coordinate in a range, so padding zeros
    #: are stored explicitly (DIA, ELL, banded); disables the
    #: simplify-width-count rewrite and adds nonzero guards when iterated.
    stores_explicit_zeros: bool = False
    #: True if the level needs an edge-insertion phase before coordinates
    #: can be inserted (levels with ``pos`` arrays).
    has_edges: bool = False
    #: ``"get"`` (idempotent positions) or ``"yield"`` (append positions).
    pos_kind: str = "get"
    #: True if the level stores coordinates explicitly in a ``crd`` array.
    explicit_coords: bool = False

    # ------------------------------------------------------------------
    # iteration facet
    # ------------------------------------------------------------------
    def emit_iteration(
        self,
        ctx,
        k: int,
        parent_pos: Expr,
        ancestors: Sequence[Expr],
        body: Callable[[Expr, Expr], Stmt],
    ) -> Stmt:
        """Emit a loop (or straight-line code) visiting the level's entries.

        ``parent_pos`` is the IR expression of the parent position;
        ``ancestors`` are the coordinate expressions of levels ``0..k-1``.
        ``body(pos, coord)`` returns the statement to run for each entry.
        """
        raise LevelFunctionError(f"{self.name} level does not support iteration")

    def iterate(
        self, view, k: int, parent_pos: int, ancestors: Sequence[int]
    ) -> Iterator[Tuple[int, int]]:
        """Host-side mirror of :meth:`emit_iteration`: yields (pos, coord)."""
        raise LevelFunctionError(f"{self.name} level does not support iteration")

    def check(self, view, k: int, parent_size: int) -> int:
        """Host-side ``get_size``: validate the level's arrays (raising
        ``FormatError``) and return its size given the parent's."""
        raise LevelFunctionError(f"{self.name} level does not define size")

    #: True if :meth:`width_step` composes position ranges (simplify-width-count).
    composes_widths: bool = False

    def width_step(self, view, k: int, start: Expr, end: Expr) -> Tuple[Expr, Expr]:
        """Map the parent position range ``[start, end)`` to this level's
        (scalar ``emit_width`` and the vector prefix pass both call it)."""
        raise LevelFunctionError(f"{self.name} level does not compose widths")

    # ------------------------------------------------------------------
    # assembly facet
    # ------------------------------------------------------------------
    def queries(self, k: int, ndims: int) -> Tuple[QuerySpec, ...]:
        """Attribute queries that must be computed before assembling the
        level (the ``Qk :=`` clauses of Figures 7 and 11)."""
        return ()

    def emit_get_size(self, ctx, k: int, parent_size: Expr) -> Tuple[List[Stmt], Expr]:
        """Emit ``get_size``: the level's position-space size.

        Only valid after edge insertion for levels with edges.
        """
        raise LevelFunctionError(f"{self.name} level does not define get_size")

    # edge insertion (only for has_edges levels) -------------------------
    def emit_seq_init_edges(self, ctx, k: int, parent_size: Expr) -> List[Stmt]:
        raise LevelFunctionError(f"{self.name} level does not define edges")

    def emit_seq_insert_edges(
        self, ctx, k: int, parent_pos: Expr, coords: Sequence[Expr]
    ) -> List[Stmt]:
        raise LevelFunctionError(f"{self.name} level does not define edges")

    def emit_unseq_init_edges(self, ctx, k: int, parent_size: Expr) -> List[Stmt]:
        raise LevelFunctionError(f"{self.name} level does not define edges")

    def emit_unseq_insert_edges(
        self, ctx, k: int, parent_pos: Expr, coords: Sequence[Expr]
    ) -> List[Stmt]:
        raise LevelFunctionError(f"{self.name} level does not define edges")

    def emit_unseq_finalize_edges(self, ctx, k: int, parent_size: Expr) -> List[Stmt]:
        raise LevelFunctionError(f"{self.name} level does not define edges")

    # coordinate insertion ------------------------------------------------
    def emit_init_coords(self, ctx, k: int, parent_size: Expr) -> List[Stmt]:
        """Allocate/initialize coordinate storage (may consume queries)."""
        return []

    def emit_init_pos(self, ctx, k: int, parent_size: Expr) -> List[Stmt]:
        """Initialize auxiliary structures used by get_pos/yield_pos."""
        return []

    def emit_pos(
        self, ctx, k: int, parent_pos: Expr, coords: Sequence[Expr]
    ) -> Tuple[List[Stmt], Expr]:
        """Emit ``get_pos``/``yield_pos``: position for the nonzero with
        destination coordinates ``coords`` (one expression per level up to
        and including this one)."""
        raise LevelFunctionError(f"{self.name} level does not define positions")

    def emit_finalize_pos(self, ctx, k: int, parent_size: Expr) -> List[Stmt]:
        """Clean up after insertion (e.g. shift a bumped ``pos`` array back)."""
        return []

    def emit_insert_coord(
        self, ctx, k: int, pos: Expr, coords: Sequence[Expr]
    ) -> List[Stmt]:
        """Store the coordinate at position ``pos`` (no-op when implicit)."""
        return []

    # ------------------------------------------------------------------
    # vector-emission facet (bulk numpy lowering, repro.ir.vector)
    # ------------------------------------------------------------------
    #: True if the level implements the vector-emission protocol; the
    #: backend resolver asks every level of both formats before choosing
    #: the vector backend, so unsupported levels fall back to scalar.
    vector_capable: bool = False

    @property
    def vector_gather_capable(self) -> bool:
        """True if the level's *source iteration* lowers through the
        vector backend.  Defaults to :attr:`vector_capable`; kept
        separate because a level can assemble in bulk as a destination
        yet gather poorly as a source (hashed: slot enumeration carries
        every empty slot through the stream and its probe order cannot
        compose prefix widths, so hashed sources stay on the scalar and
        bridge paths the router already plans around)."""
        return self.vector_capable

    def vector_iterate(self, em, view, k: int, frontier) -> None:
        """Expand ``frontier`` (one entry per enumerated path through
        levels ``0..k-1``) by this level's children, in the exact order of
        the scalar :meth:`emit_iteration` loop.  Appends the level's bulk
        coordinate array to ``frontier.coords`` and updates
        ``frontier.pos``."""
        raise LevelFunctionError(f"{self.name} level does not vector-iterate")

    def vector_edges(self, em, ctx, k: int, parents, parent_size: Expr) -> None:
        """Bulk edge insertion: build the level's ``pos`` array from the
        count attribute query with ``cumsum``, one entry per parent
        position (``parents`` is the destination-prefix frontier, or
        ``None`` at the root)."""
        raise LevelFunctionError(f"{self.name} level does not define edges")

    def vector_init_coords(self, em, ctx, k: int, parent_size: Expr) -> None:
        """Bulk ``init_coords``.  The default prints the scalar emission,
        which is valid whenever it is straight-line code (allocations and
        scalar assignments vectorize as-is)."""
        em.emit_straightline(self.emit_init_coords(ctx, k, parent_size))

    def vector_init_pos(self, em, ctx, k: int, parent_size: Expr) -> None:
        """Bulk ``init_{get|yield}_pos`` (see :meth:`vector_init_coords`)."""
        em.emit_straightline(self.emit_init_pos(ctx, k, parent_size))

    def vector_pos(self, em, ctx, k: int, parent, coords: Sequence[Expr]):
        """Per-nonzero destination positions as one bulk expression.

        ``parent`` is the parents' position array (an IR ``Var`` naming an
        int64 array aligned with the nonzero streams) or ``None`` at the
        root; ``coords`` are the destination coordinate arrays.  The
        default reuses the scalar :meth:`emit_pos` — pure position
        arithmetic (``locate``-style levels) evaluates elementwise over
        numpy arrays unchanged."""
        from ..ir.nodes import Const

        stmts, expr = self.emit_pos(ctx, k, parent if parent is not None else Const(0), coords)
        if stmts:
            raise LevelFunctionError(
                f"{self.name} level positions do not vectorize"
            )
        return em.bind(f"pB{k + 1}", expr)

    def vector_insert_coord(self, em, ctx, k: int, pos, coords: Sequence[Expr]) -> None:
        """Bulk coordinate stores; the scalar ``insert_coord`` stores are
        plain array scatters, which vectorize as-is."""
        em.emit_straightline(self.emit_insert_coord(ctx, k, pos, coords))

    # ------------------------------------------------------------------
    def signature(self) -> str:
        """Stable textual identity used in codegen cache keys."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.signature()}>"
