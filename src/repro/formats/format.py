"""Tensor format descriptors.

A :class:`Format` is the paper's complete description of a storage format
(Section 3): a coordinate remapping describing how nonzeros are grouped and
ordered in memory, one level format per remapped dimension describing the
data structures, and an *inverse* mapping that recovers canonical
coordinates from level coordinates (used when the format is a conversion
source, e.g. DIA's ``j = k + i``).

Formats are immutable, reusable descriptors; tensors
(:class:`repro.storage.tensor.Tensor`) pair a format with actual arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..ir.nodes import Const, Expr, Var
from ..levels.base import Level
from ..remap.ast import Remap
from ..remap.interval import Interval, remapped_dim_intervals
from ..remap.parser import parse_remap
from ..utils.evaluate import evaluate_expr


class FormatError(ValueError):
    """Raised for inconsistent format definitions or unsupported requests."""


def dim_size_vars(order: int) -> Tuple[Var, ...]:
    """Symbolic canonical dimension sizes ``N1..Nr`` used in generated code."""
    return tuple(Var(f"N{d + 1}") for d in range(order))


@dataclass(frozen=True)
class Format:
    """A sparse tensor format: remapping + level formats (+ inverse map).

    Parameters
    ----------
    name:
        Human-readable name (``"CSR"``); also used in cache keys together
        with the full structural signature.
    remap:
        Coordinate remapping from canonical coordinates to storage order
        (parsed from the notation of Figure 8).
    levels:
        One :class:`~repro.levels.base.Level` per remapped dimension, root
        first.
    inverse:
        Remapping from level coordinates back to canonical coordinates.
        Required for the format to be used as a conversion *source*.
    params:
        Values of free parameters appearing in ``remap``/``inverse`` (e.g.
        BCSR block sizes).
    """

    name: str
    remap: Remap
    levels: Tuple[Level, ...]
    inverse: Optional[Remap] = None
    params: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.levels) != self.remap.dst_order:
            raise FormatError(
                f"{self.name}: {self.remap.dst_order} remapped dims but "
                f"{len(self.levels)} levels"
            )
        if self.inverse is not None and self.inverse.dst_order != self.order:
            raise FormatError(
                f"{self.name}: inverse produces {self.inverse.dst_order} coords "
                f"but canonical order is {self.order}"
            )
        missing = [p for p in self.remap.params() if p not in self.params]
        if missing:
            raise FormatError(f"{self.name}: unbound parameters {missing}")

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Canonical tensor order (2 for matrix formats)."""
        return self.remap.src_order

    @property
    def nlevels(self) -> int:
        """Number of levels == number of remapped dimensions."""
        return len(self.levels)

    @property
    def padded(self) -> bool:
        """True if the format stores explicit padding zeros (DIA, ELL, BCSR...).

        Padding arises from levels that materialize a fixed range of
        positions regardless of the data (banded/sliced/squeezed slots), and
        from *full* (dense) levels nested below a non-full level — e.g.
        BCSR's dense in-block dimensions below the compressed block level.
        """
        seen_sparse = False
        for level in self.levels:
            if getattr(level, "introduces_padding", False) or level.stores_explicit_zeros:
                return True
            if level.full and seen_sparse:
                return True
            if not level.full:
                seen_sparse = True
        return False

    def param_exprs(self) -> Dict[str, Expr]:
        """Format parameters as constant IR expressions."""
        return {name: Const(value) for name, value in self.params.items()}

    # ------------------------------------------------------------------
    def dim_intervals(self, dim_sizes: Optional[Sequence[Expr]] = None) -> Tuple[Interval, ...]:
        """Symbolic intervals of the remapped dimensions.

        ``dim_sizes`` defaults to the symbolic ``N1..Nr`` variables.
        """
        sizes = tuple(dim_sizes) if dim_sizes is not None else dim_size_vars(self.order)
        return remapped_dim_intervals(self.remap, sizes, self.param_exprs())

    def _concrete_dims(self, dims: Tuple[int, ...]):
        """Memoized (extents, lows) per concrete ``dims``.

        Evaluating the symbolic intervals costs a symbolic-simplification
        pass; every :class:`~repro.storage.tensor.Tensor` construction
        needs the result, so conversions would otherwise pay it per call.
        Formats are immutable and interned, making the memo safe; it is
        bounded so unbounded distinct shapes cannot grow it without limit.
        """
        memo = self.__dict__.get("_concrete_dims_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_concrete_dims_memo", memo)
        entry = memo.get(dims)
        if entry is None:
            env = {f"N{d + 1}": size for d, size in enumerate(dims)}
            extents = []
            lows = []
            for interval in self.dim_intervals():
                extent = interval.extent()
                extents.append(
                    None if extent is None else int(evaluate_expr(extent, env))
                )
                lo = interval.lo
                lows.append(
                    None if lo is None else int(evaluate_expr(lo, env))
                )
            if len(memo) >= 256:
                memo.clear()
            entry = memo[dims] = (tuple(extents), tuple(lows))
        return entry

    def concrete_dim_extents(self, dims: Sequence[int]):
        """Numeric extents of remapped dimensions for concrete ``dims``.

        Counter dimensions have no static extent and yield ``None`` (their
        runtime extent lives in tensor metadata, e.g. ELL's ``K``).
        """
        return self._concrete_dims(tuple(int(d) for d in dims))[0]

    def concrete_dim_lo(self, dims: Sequence[int]):
        """Numeric lower bounds of remapped dimensions (e.g. ``-(N-1)``)."""
        return self._concrete_dims(tuple(int(d) for d in dims))[1]

    # ------------------------------------------------------------------
    def signature(self) -> str:
        """Name plus structure, for converter cache keys; memoized on the
        immutable instance (the hot path asks several times per call)."""
        signature = self.__dict__.get("_signature_memo")
        if signature is None:
            params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            levels = ";".join(level.signature() for level in self.levels)
            signature = f"{self.name}[{self.remap}][{levels}][{params}]"
            object.__setattr__(self, "_signature_memo", signature)
        return signature

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Format {self.signature()}>"


def make_format(
    name: str,
    remap_text: str,
    levels: Sequence[Level],
    inverse_text: Optional[str] = None,
    params: Optional[Dict[str, int]] = None,
) -> Format:
    """Convenience constructor parsing the remap notation strings.

    This is the entry point users call to define *custom* formats::

        sky = make_format(
            "SKY", "(i,j) -> (i,j)", [DenseLevel(), BandedLevel()],
            inverse_text="(i,j) -> (i,j)",
        )
    """
    return Format(
        name=name,
        remap=parse_remap(remap_text),
        levels=tuple(levels),
        inverse=parse_remap(inverse_text) if inverse_text else None,
        params=dict(params or {}),
    )
