"""The Dynkin cochain complex of a diagram with coefficients in a subspace table.

A coefficient system is a table assigning to pairs (connected B, S in B)
a rational subspace M(B, S) of a fixed ambient space, the elements
commuting with the S-part; an unlisted pair gets the whole space.
Cochains of degree p store one vector of M(B, B - alpha) per pair
(connected B, alpha inside B, |alpha| = p); antisymmetry in alpha is
realized by keeping ascending orders only.  The differential alternately
forgets a vertex of alpha or restricts to the component around the rest,
and in degrees >= 2 the complex embeds into the associahedron's cellular cochains.

Each subspace is factored into a ``Span`` by ``_solve_cached``, whose
bounded cache shares equal spans.  A slot's cochain coordinates are the
reduced echelon rows of its span, so a source row's coordinates in a
target slot are its entries at the target's pivots: the differential is
built as sparse columns with one membership check per row and no linear
solve.  The rows mapped are the integer ``Span.ints``, and g is built from
them too, so neither the rank step nor the chain-map check builds a ``Fraction``.
Degrees are ranked in ascending order by ``_ratlinalg.reduce_complex``:
d_{p+1} is built whole, every inclusion checked, and ranked without the
columns of d_p's pivot rows, which keeps its rank.
"""

from __future__ import annotations

import json
import random
from collections import deque
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm

from ._ratlinalg import Span, _solve_cached, eliminate, reduce_complex
from .diagram import (
    Diagram,
    DiagramError,
    Value,
    bits,
    check_index,
    component_containing,
    components,
    is_connected,
    mask_of,
)
from .homology import cell_complex, cell_index
from .nested import connected_subdiagrams, faces, irreducible_cell


class CoefficientError(DiagramError):
    """A coefficient system violating an inclusion the differential needs."""


def _pairs(D: Diagram):
    """Every pair (connected B, S inside B): by B, then by the size and vertices of S."""
    for B in connected_subdiagrams(D):
        verts = list(bits(B))
        for r in range(len(verts) + 1):
            for keep in combinations(verts, r):
                yield B, mask_of(keep)


def _positions(B: int, S: int) -> str:
    """A table entry named by vertex positions, for error messages."""
    return f"M(B, S) at vertex positions B={list(bits(B))}, S={list(bits(S))}"


class MatrixCoefficients:
    """Explicit subspace table; unlisted pairs default to the full space.

    Every subspace is given in the coordinates of one shared ambient
    space, so the inclusion maps the differential needs are literal
    containments of spans.  This is a design commitment: systems that
    cannot be embedded this way are out of scope, and ``validate``
    rejects any table whose spans fail a required containment.  The
    degree-0 slot of the complex is M(B, B), the fully invariant part.

    Each entry is admitted (``_admitted``) as an int or a non-whole ``Fraction``,
    and each listed basis is factored through ``_solve_cached``, so equal bases
    share one ``Span``, and reduced to its independent vectors.  Equality
    compares ``ambient_dim`` and the reduced table, not the derived spans.
    """

    def __init__(self, ambient_dim: int, table: dict | None = None):
        n = ambient_dim
        if type(n) is not int:  # not a float, a bool or a string
            raise CoefficientError("ambient_dim is not an integer")
        if n < 0:
            raise CoefficientError(f"ambient_dim {n} is negative")
        self.ambient_dim, self._spans = n, {}
        for (B, S), vectors in ({} if table is None else table).items():
            if B <= 0 or S < 0:  # before any message lists their bits
                raise CoefficientError(f"M(B, S) at masks B={B}, S={S}: B must be positive, S not negative")
            if S & ~B:
                raise CoefficientError(f"{_positions(B, S)} has S outside B")
            self._spans[B, S] = _solve_cached(tuple(_admitted(vec, n, B, S) for vec in vectors), n)
        self.table = {key: span.independent for key, span in self._spans.items()}
        self._full = _solve_cached(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self.table) == (other.ambient_dim, other.table)

    __hash__ = None

    def subspace(self, B: int, S: int):
        """Basis vectors (ambient coordinates) of M(B, S)."""
        return self.table.get((B, S), self._full.independent)

    def span(self, B: int, S: int) -> Span:
        return self._spans.get((B, S), self._full)

    def validate(self, D: Diagram) -> "MatrixCoefficients":
        """Build each differential of ``dynkin_complex`` in turn: a failed inclusion is a ``CoefficientError``.

        An entry no slot of D reads, with B outside D or not connected, is refused first.
        """
        for B, S in self.table:
            if B & ~D.full:
                raise CoefficientError(f"{_positions(B, S)} has a B that is not a subset of the vertex set")
            if not is_connected(D, B):
                raise CoefficientError(f"{_positions(B, S)} has a B that is not connected")
        deque(dynkin_complex(D, self)[1], maxlen=0)
        return self

    def to_json(self, D: Diagram) -> dict:
        subspaces = [
            {"B": D.vertex_names(B), "S": D.vertex_names(S),
             "basis": [[str(x) for x in v] for v in self.subspace(B, S)]}
            for B, S in _pairs(D)
        ]
        return {"ambient_dim": self.ambient_dim, "subspaces": subspaces}

    @staticmethod
    def from_json(D: Diagram, doc: dict) -> "MatrixCoefficients":
        """The system a coefficient-file document describes; ``CoefficientError`` if malformed."""
        if not isinstance(doc, dict):
            raise CoefficientError("a coefficient file holds one JSON object")
        entries = doc.get("subspaces", [])
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and isinstance(entry.get("B"), list)
            and isinstance(entry.get("S"), list) for entry in entries
        ):
            raise CoefficientError("subspaces is not a list of objects with lists B and S")
        table = {}
        for entry in entries:
            B = mask_of(D.index(v) for v in entry["B"])
            S = mask_of(D.index(v) for v in entry["S"])
            where = f"M(B, S) at B={D.vertex_names(B)}, S={D.vertex_names(S)}"
            if not is_connected(D, B):  # no slot reads M(B, S) for such a B
                raise CoefficientError(f"{where} has a B that is not connected")
            if (B, S) in table:
                raise CoefficientError(f"{where} is listed twice")
            basis = entry.get("basis")
            if not isinstance(basis, list) or not all(isinstance(vec, list) for vec in basis):
                raise CoefficientError(f"basis of {where} is not a list of vectors")
            if any(isinstance(x, bool) for vec in basis for x in vec):
                raise CoefficientError(f"basis of {where} has an entry that is not a rational")
            try:
                table[(B, S)] = tuple(tuple(Fraction(x) for x in vec) for vec in basis)
            except ZeroDivisionError:
                raise CoefficientError(f"basis of {where} has a zero denominator") from None
            except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite float
                raise CoefficientError(
                    f"basis of {where} has an entry that is not a rational"
                ) from None
        return MatrixCoefficients(doc.get("ambient_dim"), table)


def _admitted(vec, n: int, B: int, S: int) -> tuple:
    """A basis vector of M(B, S) as ints and non-whole ``Fraction``s, else a ``CoefficientError``."""
    if len(vec) != n:
        raise CoefficientError(f"basis vector of {_positions(B, S)} has {len(vec)} entries, not ambient_dim {n}")
    if all(type(x) is int for x in vec):
        return tuple(vec)
    if not all(type(x) is int or type(x) is Fraction for x in vec):  # a bool is not an int here
        raise CoefficientError(f"basis vector of {_positions(B, S)} has an entry that is not an int or a Fraction")
    return tuple(int(x) if x.denominator == 1 else x for x in vec)


class ConstantCoefficients(MatrixCoefficients):
    """One-dimensional coefficients: no listed entries, so every subspace is the full line."""

    def __init__(self):
        super().__init__(1)


def random_coefficient_system(D: Diagram, ambient_dim: int, rng: random.Random) -> MatrixCoefficients:
    """A random coefficient system that is valid by construction.

    Seeds random generator vectors on pairs (connected B0, T in B0) and
    closes them up: M(B, S) is spanned by all generators with B0 inside B
    and T containing S meet B0, which forces every inclusion the
    differential relies on.

    Each entry lists the seeds outside the span of those kept before, up to
    full rank; entries keeping the same seeds share one ``_solve_cached``
    Span.  An ``ambient_dim`` that is not an int of at least 0 is a
    ``CoefficientError``, raised by ``MatrixCoefficients`` before the first draw.
    """
    n, seeds = MatrixCoefficients(ambient_dim).ambient_dim, {}
    for B0, T in _pairs(D):
        if rng.random() < 0.4:
            seeds[(B0, T)] = tuple(rng.randint(-2, 2) for _ in range(n))
    seeds = sorted(seeds.items())
    joins = {}  # (mask of the kept seeds, seed index) -> whether the seed lies outside their span
    table = {}
    for B, S in _pairs(D):
        kept, family = 0, ()  # the kept seeds are independent: their rank is len(family)
        for i in [i for i, ((B0, T), _) in enumerate(seeds) if B0 & ~B == 0 and S & B0 & ~T == 0]:
            if len(family) == n:
                break
            if (kept, i) not in joins:
                joins[kept, i] = not _solve_cached(family, n).contains(seeds[i][1])
            if joins[kept, i]:
                kept, family = kept | 1 << i, family + (seeds[i][1],)
        table[(B, S)] = family
    return MatrixCoefficients(n, table)


# ---------------------------------------------------------------------------
# cochain spaces and the differential


def dynkin_basis(D: Diagram, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """Slot labels of degree p: (connected B, ascending alpha of size p)."""
    check_index(p, D.n, "degree")
    return [(B, alpha) for B in connected_subdiagrams(D) for alpha in combinations(list(bits(B)), p)]


class CochainSpace(Value):
    """Degree-p cochains in slot-local coordinates: the echelon rows of each slot's span.

    ``index`` maps each slot to its position in ``slots``.
    """

    degree: int
    ambient_dim: int
    slots: tuple[tuple[int, tuple[int, ...]], ...]
    spans: tuple[Span, ...]
    offsets: tuple[int, ...]
    dim: int
    index: dict
    __slots__ = _fields = ("degree", "ambient_dim", "slots", "spans", "offsets", "dim", "index")


def cochain_space(D: Diagram, M: MatrixCoefficients, p: int) -> CochainSpace:
    slots = tuple(dynkin_basis(D, p))
    spans = tuple(M.span(B, B & ~mask_of(alpha)) for B, alpha in slots)
    offsets = tuple(accumulate((len(span.pivots) for span in spans), initial=0))
    index = {slot: i for i, slot in enumerate(slots)}
    return CochainSpace(p, M.ambient_dim, slots, spans, offsets[:-1], offsets[-1], index)


def _leads(space: CochainSpace) -> list[int]:
    """The pivot entry of each local coordinate: its ``ints`` row over it is a reduced echelon row."""
    return [row[p] for span in space.spans for row, p in zip(span.ints, span.pivots)]


def _differential_columns(D: Diagram, src: CochainSpace, dst: CochainSpace):
    """Columns ``{row: value}`` of the differential from ``src`` to the next degree ``dst``.

    Each block maps a source slot's integer echelon rows (``Span.ints``)
    into a target slot: a row must lie in the target span (else
    ``CoefficientError``), and its coordinates there are its entries at
    the target's pivots, so column j is scaled by its row's pivot entry.
    A row of the target span itself is a member without a check.
    """
    cols = [{} for _ in range(src.dim)]

    def add_block(ti, si, negate=False):
        target, toff, source = dst.spans[ti], dst.offsets[ti], src.spans[si]
        for j, row in enumerate(source.ints):
            if target is not source and not target.contains(row):
                B, alpha = dst.slots[ti]
                raise CoefficientError(
                    f"subspace inclusion fails at slot B={D.vertex_names(B)}, "
                    f"alpha={[D.names[v] for v in alpha]}"
                )
            col = cols[src.offsets[si] + j]
            for r, p in enumerate(target.pivots):
                if row[p]:
                    col[toff + r] = -row[p] if negate else row[p]

    for ti, (B, alpha) in enumerate(dst.slots):
        if src.degree == 0:
            (a,) = alpha
            add_block(ti, src.index[(B, ())])
            for C in components(D, B & ~(1 << a)):
                add_block(ti, src.index[(C, ())], negate=True)
            continue
        for idx, a in enumerate(alpha):
            odd = idx % 2 == 1  # the sign (-1) ** idx
            rest = alpha[:idx] + alpha[idx + 1:]
            add_block(ti, src.index[(B, rest)], negate=odd)
            C = component_containing(D, 1 << a, mask_of(rest), within=B)
            if C:
                add_block(ti, src.index[(C, rest)], negate=not odd)
    return cols


def dynkin_differential(D: Diagram, M: MatrixCoefficients, p: int):
    """Dense matrix of the degree-p differential in slot-local coordinates.

    Rows run over degree p+1, columns over degree p, entries ``Fraction``s;
    the top differential (p = |D|) is the empty matrix.
    """
    check_index(p, D.n, "degree")
    if p == D.n:
        return []
    src, dst = cochain_space(D, M, p), cochain_space(D, M, p + 1)
    rows = [[Fraction(0)] * src.dim for _ in range(dst.dim)]
    for c, (col, lead) in enumerate(zip(_differential_columns(D, src, dst), _leads(src))):
        for r, v in col.items():
            rows[r][c] = Fraction(v, lead)
    return rows


def dynkin_complex(D: Diagram, M: MatrixCoefficients):
    """``(spaces, differentials)``: the cochain spaces of degrees 0..|D| and an iterator building
    each differential as ``_differential_columns`` when reached, as ``homology.cell_complex``."""
    spaces = [cochain_space(D, M, p) for p in range(D.n + 1)]
    return spaces, (_differential_columns(D, lo, hi) for lo, hi in zip(spaces, spaces[1:]))


def _rat_rank(cols) -> tuple[int, list[int]]:
    """Rank and pivot rows of a Dynkin differential given as columns: a name of its own, for traces."""
    pivoted, pivot_rows, _ = eliminate(cols, unit_pivots=False)
    return len(pivoted), pivot_rows


def _cohomology(D: Diagram, M: MatrixCoefficients):
    """Cochain and cohomology dimensions in degrees 0..|D|; each differential is dropped once ranked."""
    spaces, diffs = dynkin_complex(D, M)
    ranks = [*reduce_complex(diffs, _rat_rank), 0]
    dims = [space.dim for space in spaces]
    return dims, [dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(D.n + 1)]


def dynkin_cohomology(D: Diagram, M: MatrixCoefficients) -> list[int]:
    """Rational cohomology dimensions in degrees 0..|D|."""
    return _cohomology(D, M)[1]


# ---------------------------------------------------------------------------
# embedding into cellular cochains


def cellular_embedding_g(D: Diagram, M: MatrixCoefficients, k: int, vec):
    """Image of a degree-k Dynkin cochain among cellular cochains.

    Degree 0 lands in the augmentation slot (a single ambient vector); degree
    k >= 1 yields one ambient vector per cell of dimension k-1 (aligned with
    ``faces(D, k - 1)``), supported on irreducible cells for k >= 2.
    """
    check_index(k, D.n, "degree")
    if not is_connected(D, D.full):  # degree k >= 1 reads faces(D, k - 1), which checks this too
        raise DiagramError("ambient diagram must be connected")
    space = cochain_space(D, M, k)
    if len(vec) != space.dim:
        raise DiagramError(f"a cochain of {len(vec)} entries in a degree-{k} space of dim {space.dim}")
    L, total = lcm(*_leads(space)), {}
    for v, col in zip(vec, _g_columns(space, _feeds(D, space), L)):
        if v:
            for key, x in col.items():
                total[key] = total.get(key, 0) + v * x
    values = [tuple(Fraction(total.get((c, a), 0), L) for a in range(space.ambient_dim))
              for c in range(len(faces(D, k - 1)) if k else 1)]  # degree 0: the augmentation alone
    return values if k else values[0]


def _g_columns(space: CochainSpace, feeds, L: int) -> list[dict]:
    """L times g of each unit cochain of ``space``: columns ``{(cell, ambient coordinate): int}``.

    Local coordinate j, an echelon row of slot s with pivot entry l_j, maps
    to x * (L // l_j) on each cell of ``feeds[s]`` and nonzero entry x of
    the row: integers whenever every l_j divides L.
    """
    return [{(c, a): x * (L // row[p]) for c in reads for a, x in enumerate(row) if x}
            for span, reads in zip(space.spans, feeds) for row, p in zip(span.ints, span.pivots)]


def _feeds(D: Diagram, space: CochainSpace) -> list[list[int]]:
    """Per slot of ``space``, the cells of ``faces(D, k - 1)`` g^k reads it on, k = ``space.degree``.

    Degree 0 reads (D, ()) on the augmentation, cell 0.  A 0-cell reads each
    element with its one-vertex alpha set; for k >= 2 a cell reads its single
    unsaturated element with its alpha set, or none.
    """
    if space.degree == 0:
        return [[0] if slot == (D.full, ()) else [] for slot in space.slots]
    feeds = [[] for _ in space.slots]
    for c, H in enumerate(faces(D, space.degree - 1)):
        if space.degree == 1:
            reads = [space.index[(B, (H.alpha_set(B).bit_length() - 1,))] for B in H.elements]
        else:
            unsat = H._unsaturated_pass()
            reads = [space.index[(B, tuple(bits(alpha)))] for B, alpha in unsat] if len(unsat) == 1 else []
        for s in reads:
            feeds[s].append(c)
    return feeds


class ChainMapReport(Value):
    """Outcome of the chain-map verification; falsy when a check failed."""

    ok: bool
    failures: list[str]
    __slots__ = _fields = ("ok", "failures")

    def __bool__(self):
        return self.ok


def verify_chain_map(
    D: Diagram,
    M: MatrixCoefficients,
    trials: int,
    rng: random.Random | None = None,
) -> ChainMapReport:
    """Prove d_cell . g = g . d_D and the injectivity of g^k for k >= 2, on the slot bases.

    g is read as the integer columns of ``_g_columns``, with one L for every
    degree: for each local coordinate j of degree k, with pivot entry l_j,
    l_j times the coboundary of column j must equal the sum of v_i times
    column i of degree k+1 over the entries v_i of differential column j.
    For k >= 2 a cell reads at most one slot, so g^k is injective once each
    slot's irreducible cell reads it: a slot's echelon rows are independent.
    The differentials of ``dynkin_complex`` are read one degree at a time.
    ``trials`` must be an int of at least 1; it and ``rng`` are unused.
    """
    if type(trials) is not int or trials < 1:  # a bool is not an int here
        raise DiagramError("need at least one trial")
    spaces, diffs = dynkin_complex(D, M)
    boundary = cell_complex(D)[1]
    feeds = [_feeds(D, space) for space in spaces]
    leads = [_leads(space) for space in spaces]
    L = lcm(*(lead for degree in leads for lead in degree))
    columns = [_g_columns(space, reads, L) for space, reads in zip(spaces, feeds)]

    def commutes(k, diff):
        # cofaces[c]: {k-cell: sign}; the augmentation's cofaces are the vertices
        cofaces = [{} for _ in boundary[k - 1]] if k else [dict.fromkeys(range(len(boundary[0])), 1)]
        for e, col in enumerate(boundary[k]):
            for c, sign in col.items():
                cofaces[c][e] = sign
        for j, (lead, col) in enumerate(zip(leads[k], columns[k])):
            # l_j times the coboundary of column j, minus the image of differential column j
            gap = {}
            for (c, a), x in col.items():
                x *= lead
                for e, sign in cofaces[c].items():
                    gap[e, a] = gap.get((e, a), 0) + sign * x
            for i, v in diff[j].items():
                for key, x in columns[k + 1][i].items():
                    gap[key] = gap.get(key, 0) - v * x
            if any(gap.values()):
                return False
        return True

    failures = [f"chain-map identity fails at degree {k}"
                for k, diff in enumerate(diffs) if not commutes(k, diff)]
    for k, space in enumerate(spaces[2:], 2):
        for s, (B, alpha) in enumerate(space.slots):
            if cell_index(D, irreducible_cell(D, B, mask_of(alpha))) not in feeds[k][s]:
                failures += [
                    f"g^{k} kills the basis vector at B={D.vertex_names(B)}, "
                    f"alpha={[D.names[v] for v in alpha]}"
                ] * len(space.spans[s].pivots)
    return ChainMapReport(not failures, failures)


def dynkin_json(D: Diagram, M: MatrixCoefficients) -> dict:
    dims, HD = _cohomology(D, M)
    return {"HD": HD, "dims": dims}


def load_coefficients(D: Diagram, path: str | None) -> MatrixCoefficients:
    """CLI helper: parse a coefficient-system JSON file, defaulting to Constant.

    The system is not ``validate``d here: ``_cohomology`` builds the same
    ``dynkin_complex`` and raises a broken inclusion's ``CoefficientError`` there.
    """
    if path is None:
        return ConstantCoefficients()
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return MatrixCoefficients.from_json(D, doc)
