"""Unrooted phylogenies, Newick input and output, and tree likelihoods.

A tree is stored as a symmetric adjacency map from node id to
{neighbor: branch length}. Leaves carry taxon names; internal nodes are
anonymous and, in a :class:`Phylogeny`, have degree three (trees with fewer
than three leaves degenerate to a single edge or a single node).

Likelihoods follow the pruning algorithm with per-site rescaling, so
underflow cannot occur for any usable matrix size. Sites are a mixture of
an invariant component (weight ``p_inv``) and the variable component
averaged over the model's rate categories; the invariant component of a
site is the stationary probability of its shared state when the non-gap
cells agree and zero otherwise.

Every likelihood goes through a :class:`PartialCache` of directional
partials: entry (node, toward) is the partial of node's side of edge
(node, toward), per rate category. Entries are filled on demand, children
first, and kept across calls, so a branch-length sweep recomputes only
what its own changes invalidate. Setting the length of edge (u, v) drops
exactly the entries that point away from that edge (their side contains
it); those pointing toward it stay. A nearest-neighbor interchange across
(u, v) keeps every entry pointing toward (u, v), re-targeting the two
whose side is a moved subtree. Functions that take no cache start a fresh
one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalUnderflowError,
    ParseError,
    SchemaError,
    TaxaMismatchError,
)
from .msa import CharacterMatrix
from .soundclass import GAP
from .submodel import SubstitutionModel, transition_step

#: Bounds applied to branch lengths during inference.
MIN_BRANCH_LENGTH = 1e-6
MAX_BRANCH_LENGTH = 10.0

#: Length substituted for branches a Newick string leaves unspecified.
DEFAULT_BRANCH_LENGTH = 0.05


class Phylogeny:
    """Unrooted binary tree over named leaves.

    ``adjacency`` maps node id to {neighbor id: branch length} and is kept
    symmetric; ``leaf_names`` names exactly the degree-one nodes. The
    structure is mutable (search code adjusts lengths and swaps subtrees in
    place) and revalidated only on construction.
    """

    def __init__(self, adjacency: dict[int, dict[int, float]], leaf_names: dict[int, str]):
        self.adjacency = {u: dict(nbrs) for u, nbrs in adjacency.items()}
        self.leaf_names = dict(leaf_names)
        self._validate()

    def _validate(self):
        nodes = set(self.adjacency)
        if not nodes:
            raise SchemaError("tree has no nodes")
        n_edges = 0
        for u, nbrs in self.adjacency.items():
            for v, length in nbrs.items():
                if v not in nodes:
                    raise SchemaError(f"edge to unknown node {v}")
                if self.adjacency[v].get(u) != length:
                    raise SchemaError(f"asymmetric edge ({u}, {v})")
                if length < 0:
                    raise SchemaError(f"negative branch length on ({u}, {v})")
                n_edges += 1
        n_edges //= 2
        seen = {next(iter(nodes))}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != nodes:
            raise SchemaError("tree is not connected")
        if n_edges != len(nodes) - 1:
            raise SchemaError("tree contains a cycle")
        names = list(self.leaf_names.values())
        if len(set(names)) != len(names):
            raise SchemaError("duplicate leaf names")
        for u in nodes:
            degree = len(self.adjacency[u])
            if degree <= 1:
                if u not in self.leaf_names:
                    raise SchemaError(f"unnamed leaf node {u}")
            elif u in self.leaf_names:
                raise SchemaError(f"named internal node {u}")
            elif degree != 3:
                raise SchemaError(f"internal node {u} has degree {degree}, not 3")

    # -- structure queries -------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_names)

    @property
    def taxa(self) -> tuple[str, ...]:
        return tuple(sorted(self.leaf_names.values()))

    def leaf_node(self, name: str) -> int:
        for node, leaf in self.leaf_names.items():
            if leaf == name:
                return node
        raise KeyError(name)

    def is_leaf(self, node: int) -> bool:
        return node in self.leaf_names

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency[node]))

    def edges(self) -> tuple[tuple[int, int, float], ...]:
        out = []
        for u, nbrs in self.adjacency.items():
            for v, length in nbrs.items():
                if u < v:
                    out.append((u, v, length))
        return tuple(sorted(out))

    def internal_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for u, v, _ in self.edges()
            if not self.is_leaf(u) and not self.is_leaf(v)
        )

    def length(self, u: int, v: int) -> float:
        return self.adjacency[u][v]

    def set_length(self, u: int, v: int, value: float):
        if value < 0:
            raise ValueError("branch length must be non-negative")
        if v not in self.adjacency[u]:
            raise KeyError(f"no edge ({u}, {v})")
        self.adjacency[u][v] = value
        self.adjacency[v][u] = value

    def copy(self) -> "Phylogeny":
        dup = object.__new__(Phylogeny)
        dup.adjacency = {u: dict(nbrs) for u, nbrs in self.adjacency.items()}
        dup.leaf_names = dict(self.leaf_names)
        return dup

    def __repr__(self) -> str:
        return f"Phylogeny({self.n_leaves} leaves)"


# -- Newick ----------------------------------------------------------------

_UNQUOTED_LABEL = re.compile(r"[^\s,():;\[\]']+")
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


class _NewickReader:
    """Recursive-descent reader producing (label, length, children) nodes."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_tree(self) -> dict:
        self.skip_ws()
        node = self.read_subtree()
        self.skip_ws()
        if self.peek() != ";":
            raise self.error("expected ';' at end of tree")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing text after ';'")
        return node

    def read_subtree(self) -> dict:
        self.skip_ws()
        children = []
        if self.peek() == "(":
            self.pos += 1
            while True:
                children.append(self.read_subtree())
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                if self.peek() == ")":
                    self.pos += 1
                    break
                raise self.error("expected ',' or ')'")
        label = self.read_label()
        length = None
        self.skip_ws()
        if self.peek() == ":":
            self.pos += 1
            length = self.read_number()
        if not children and not label:
            raise self.error("leaf without a label")
        return {"label": label, "length": length, "children": children}

    def read_label(self) -> str:
        self.skip_ws()
        if self.peek() == "'":
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(self.text):
                    raise self.error("unterminated quoted label")
                ch = self.text[self.pos]
                if ch == "'":
                    if self.text[self.pos : self.pos + 2] == "''":
                        out.append("'")
                        self.pos += 2
                        continue
                    self.pos += 1
                    return "".join(out)
                out.append(ch)
                self.pos += 1
        match = _UNQUOTED_LABEL.match(self.text, self.pos)
        if not match:
            return ""
        self.pos = match.end()
        return match.group()

    def read_number(self) -> float:
        self.skip_ws()
        match = _NUMBER.match(self.text, self.pos)
        if not match:
            raise self.error("expected a branch length after ':'")
        self.pos = match.end()
        value = float(match.group())
        if value < 0:
            raise ParseError("negative branch length", position=self.pos)
        return value


def _topology_from_text(
    text: str,
) -> tuple[dict[int, dict[int, float]], dict[int, str]]:
    """Parse Newick into a cleaned unrooted adjacency; a missing branch
    length is ``DEFAULT_BRANCH_LENGTH``.

    Unnamed dangling nodes are removed and degree-two nodes (including a
    rooted tree's root) are fused, their lengths summed. Multifurcations
    are preserved; callers decide whether to allow them.
    """
    if not text or not text.strip():
        raise ParseError("empty Newick input")
    ast = _NewickReader(text).read_tree()

    adjacency: dict[int, dict[int, float]] = {}
    labels: dict[int, str] = {}
    counter = 0

    def add_node() -> int:
        nonlocal counter
        adjacency[counter] = {}
        counter += 1
        return counter - 1

    def build(node: dict) -> int:
        idx = add_node()
        if node["label"] and not node["children"]:
            labels[idx] = node["label"]
        for child in node["children"]:
            cidx = build(child)
            length = child["length"]
            if length is None:
                length = DEFAULT_BRANCH_LENGTH
            adjacency[idx][cidx] = length
            adjacency[cidx][idx] = length
        return idx

    build(ast)

    changed = True
    while changed:
        changed = False
        for node in list(adjacency):
            degree = len(adjacency[node])
            if degree == 0 and len(adjacency) > 1:
                del adjacency[node]
                changed = True
            elif degree == 1 and node not in labels:
                (nbr,) = adjacency[node]
                del adjacency[nbr][node]
                del adjacency[node]
                changed = True
            elif degree == 2 and node not in labels:
                (a, la), (b, lb) = sorted(adjacency[node].items())
                del adjacency[a][node]
                del adjacency[b][node]
                del adjacency[node]
                adjacency[a][b] = la + lb
                adjacency[b][a] = la + lb
                changed = True

    names = list(labels.values())
    if len(set(names)) != len(names):
        duplicate = sorted({n for n in names if names.count(n) > 1})
        raise ParseError(f"duplicate leaf labels {duplicate}")
    leaf_names = {node: labels[node] for node in adjacency if node in labels}
    if not leaf_names:
        raise ParseError("tree has no labeled leaves")
    for node in adjacency:
        if len(adjacency[node]) <= 1 and node not in leaf_names:
            raise ParseError("tree retains an unlabeled leaf")
    return adjacency, leaf_names


def parse_newick(text: str) -> Phylogeny:
    """Parse a Newick string into an unrooted binary :class:`Phylogeny`.

    Rooted inputs are unrooted by fusing the degree-two root; missing
    branch lengths default to ``DEFAULT_BRANCH_LENGTH``. Multifurcations
    raise :class:`ParseError` here; use the gold-tree reader for those.
    """
    adjacency, leaf_names = _topology_from_text(text)
    for node, nbrs in adjacency.items():
        if len(nbrs) > 3:
            raise ParseError(
                f"node of degree {len(nbrs)} is a multifurcation; "
                f"binary tree required"
            )
    return Phylogeny(adjacency, leaf_names)


def _format_length(x: float) -> str:
    return f"{x:.10g}"


def _format_label(name: str) -> str:
    if re.fullmatch(_UNQUOTED_LABEL, name):
        return name
    return "'" + name.replace("'", "''") + "'"


def write_newick(tree: Phylogeny) -> str:
    """Canonical Newick: anchored at the internal node next to the smallest
    leaf, children ordered by their smallest contained leaf, lengths with 10
    significant digits. Equal trees therefore serialize identically."""
    if tree.n_leaves == 1:
        (node,) = tree.leaf_names
        return f"{_format_label(tree.leaf_names[node])};"
    if tree.n_leaves == 2:
        (a, b) = sorted(tree.leaf_names.values())
        node_a = tree.leaf_node(a)
        total = tree.length(node_a, tree.neighbors(node_a)[0])
        return f"({_format_label(a)}:{_format_length(total)},{_format_label(b)}:0);"

    smallest = min(tree.leaf_names.values())
    anchor = tree.neighbors(tree.leaf_node(smallest))[0]

    def render(node: int, parent: int) -> tuple[str, str]:
        length = tree.length(parent, node)
        if tree.is_leaf(node):
            name = tree.leaf_names[node]
            return f"{_format_label(name)}:{_format_length(length)}", name
        parts = sorted(
            (render(child, node) for child in tree.neighbors(node) if child != parent),
            key=lambda pair: pair[1],
        )
        inner = ",".join(text for text, _ in parts)
        return f"({inner}):{_format_length(length)}", min(m for _, m in parts)

    parts = sorted(
        (render(child, anchor) for child in tree.neighbors(anchor)),
        key=lambda pair: pair[1],
    )
    return "(" + ",".join(text for text, _ in parts) + ");"


# -- likelihood ------------------------------------------------------------


@dataclass(frozen=True)
class SitePrep:
    """Matrix recoded against a model: integer states and the per-site
    invariant-component likelihoods."""

    taxa: tuple[str, ...]
    codes: np.ndarray      # (m, N) state indices, -1 at gaps
    log_inv: np.ndarray    # (N,) log invariant contribution


def prepare_sites(model: SubstitutionModel, matrix: CharacterMatrix) -> SitePrep:
    """Recode a matrix for repeated likelihood evaluation under ``model``."""
    codes = np.full(matrix.cells.shape, -1, dtype=np.int16)
    for idx, symbol in enumerate(model.alphabet):
        codes[matrix.cells == symbol] = idx
    unknown = (codes < 0) & (matrix.cells != GAP)
    if unknown.any():
        rows, cols = np.nonzero(unknown)
        symbol = matrix.cells[rows[0], cols[0]]
        raise ValueError(f"matrix symbol {symbol!r} is not a model state")

    top = codes.max(axis=0)
    all_gap = top < 0
    uniform = np.all((codes == top[None, :]) | (codes < 0), axis=0) & ~all_gap
    inv = np.zeros(matrix.sites)
    inv[uniform] = model.freqs[top[uniform]]
    inv[all_gap] = 1.0
    with np.errstate(divide="ignore"):
        log_inv = np.log(inv)
    return SitePrep(taxa=matrix.taxa, codes=codes, log_inv=log_inv)


def _check_taxa(tree: Phylogeny, prep: SitePrep):
    tree_taxa = set(tree.leaf_names.values())
    matrix_taxa = set(prep.taxa)
    if tree_taxa != matrix_taxa:
        raise TaxaMismatchError(
            "tree and matrix name different taxa",
            missing=matrix_taxa - tree_taxa,
            extra=tree_taxa - matrix_taxa,
        )


def _default_root(tree: Phylogeny) -> int:
    node = tree.leaf_node(min(tree.leaf_names.values()))
    if tree.n_leaves <= 2:
        return node
    return tree.neighbors(node)[0]


def _leaf_partial(model: SubstitutionModel, codes_row: np.ndarray) -> np.ndarray:
    states = np.arange(model.n_states)[:, None]
    return ((codes_row[None, :] == states) | (codes_row[None, :] < 0)).astype(float)


class PartialCache:
    """Directional partial likelihoods of one tree, model and matrix.

    Entry (node, toward) is, per rate category, the scaled partial
    likelihood of the component on ``node``'s side of edge (node, toward)
    together with its per-site log scale. It is computed from the entries
    (child, node) of node's other neighbors, which are filled first, and
    kept until a change of the tree invalidates it. Entries are only ever
    replaced, never written into, so copies may share them.

    The cache follows ``tree`` only through :meth:`set_length` and
    :meth:`after_nni`; changing the tree any other way leaves it stale.
    """

    def __init__(
        self,
        tree: Phylogeny,
        model: SubstitutionModel,
        prep: SitePrep,
    ):
        _check_taxa(tree, prep)
        self.tree = tree
        self.model = model
        self.prep = prep
        row = {name: i for i, name in enumerate(prep.taxa)}
        self._row_of = {node: row[name] for node, name in tree.leaf_names.items()}
        self._entries: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}

    def check(self, tree: Phylogeny, model: SubstitutionModel, prep: SitePrep):
        """Raise ValueError unless the cache holds partials of exactly these."""
        if tree is not self.tree or model is not self.model or prep is not self.prep:
            raise ValueError("cache belongs to another tree, model or matrix")

    def partial(self, node: int, toward: int | None = None):
        """Per rate, (scaled partial, log scale) of ``node``'s side of edge
        (node, toward); with ``toward`` None, of the whole tree at ``node``."""
        entry = self._entries.get((node, toward))
        if entry is not None:
            return entry
        # Fill every missing entry below ``node`` leaves first, iteratively
        # so that tree depth is not bounded by the interpreter's stack.
        order = []
        stack = [(child, node) for child in self.tree.adjacency[node] if child != toward]
        while stack:
            child, parent = stack.pop()
            if (child, parent) in self._entries:
                continue
            order.append((child, parent))
            stack.extend((nbr, child) for nbr in self.tree.adjacency[child] if nbr != parent)
        for child, parent in reversed(order):
            self._entries[(child, parent)] = self._combine(child, parent)
        entry = self._combine(node, toward)
        if toward is not None:
            self._entries[(node, toward)] = entry
        return entry

    def _combine(self, node: int, block: int | None):
        tree, model = self.tree, self.model
        children = [nbr for nbr in tree.neighbors(node) if nbr != block]
        leaf = None
        if tree.is_leaf(node):
            leaf = _leaf_partial(model, self.prep.codes[self._row_of[node]])
        if not children:
            logs = np.zeros(self.prep.codes.shape[1])
            return [(leaf, logs)] * len(model.rates)
        out = []
        for k, rate in enumerate(model.rates):
            value, logs = leaf, None
            for child in children:
                child_value, child_logs = self._entries[(child, node)][k]
                step = transition_step(model, tree.length(node, child), rate, child_value)
                if value is not None:
                    step *= value
                value = step
                logs = child_logs if logs is None else logs + child_logs
            peak = value.max(axis=0)
            if not np.all(peak > 0):
                site = int(np.nonzero(peak <= 0)[0][0])
                raise NumericalUnderflowError(
                    f"partial likelihood underflowed at site {site}"
                )
            value /= peak
            out.append((value, logs + np.log(peak)))
        return out

    def _drop_outward(self, node: int, away_from: int):
        """Drop the entries that point away from edge (node, away_from) on
        ``node``'s side. A missing entry ends the walk along its branch:
        every entry further out was built from it, so none is cached."""
        stack = [(node, away_from)]
        while stack:
            node, parent = stack.pop()
            for nbr in self.tree.adjacency[node]:
                if nbr != parent and self._entries.pop((node, nbr), None) is not None:
                    stack.append((nbr, node))

    def set_length(self, u: int, v: int, value: float):
        """Set the length of edge (u, v) in the tree and drop the entries
        whose side contains that edge."""
        self.tree.set_length(u, v, value)
        self._drop_outward(u, v)
        self._drop_outward(v, u)

    def after_nni(self, tree: Phylogeny, u: int, x: int, v: int, y: int) -> "PartialCache":
        """Cache of ``tree``, which is this cache's tree with subtree x
        (attached to u) and subtree y (attached to v) exchanged.

        Entries pointing toward edge (u, v) keep their values; the two
        whose side is a moved subtree change only their target. The copy
        shares entries with this cache, which stays valid for its tree.
        """
        dup = object.__new__(PartialCache)
        dup.__dict__.update(self.__dict__)
        dup._entries = dict(self._entries)
        dup._drop_outward(u, v)
        dup._drop_outward(v, u)
        dup._entries.pop((u, v), None)
        dup._entries.pop((v, u), None)
        moved_x = dup._entries.pop((x, u), None)
        moved_y = dup._entries.pop((y, v), None)
        if moved_x is not None:
            dup._entries[(x, v)] = moved_x
        if moved_y is not None:
            dup._entries[(y, u)] = moved_y
        dup.tree = tree
        return dup

    def moved_to(self, tree: Phylogeny):
        """Follow ``tree``, an unmodified copy of this cache's tree."""
        self.tree = tree

    def variable_site_logs(self, root: int | None = None) -> np.ndarray:
        """Log likelihood of each site's variable component, per rate
        category, at ``root`` (by default the tree's default root)."""
        if root is None:
            root = _default_root(self.tree)
        out = np.empty((len(self.model.rates), self.prep.codes.shape[1]))
        for k, (value, logs) in enumerate(self.partial(root)):
            with np.errstate(divide="ignore"):
                out[k] = np.log(self.model.freqs @ value) + logs
        return out


def _cache_for(
    tree: Phylogeny,
    model: SubstitutionModel,
    prep: SitePrep,
    cache: PartialCache | None,
) -> PartialCache:
    if cache is None:
        return PartialCache(tree, model, prep)
    cache.check(tree, model, prep)
    return cache


def _logmeanexp(rows: np.ndarray) -> np.ndarray:
    """Per site, the log of the mean over rate categories (rows) of the
    exponentiated row values; one row is returned as it is.

    The rows are summed in order after shifting by the per-site peak. The
    variable component of a site never has zero likelihood (frequencies
    are positive and partials are rescaled), so the peak is finite unless
    a value is NaN, which stays NaN.
    """
    if len(rows) == 1:
        return rows[0]
    peak = rows.max(axis=0)
    total = np.exp(rows[0] - peak)
    for row in rows[1:]:
        total += np.exp(row - peak)
    total /= len(rows)
    np.log(total, out=total)
    total += peak
    return total


def _invariant_mixture(p_inv: float, log_inv: np.ndarray):
    """The constants :func:`_mix_invariant` needs for ``p_inv``: the log
    weight of the variable component and the per-site log of the weighted
    invariant component, or None when there are no invariant sites."""
    if p_inv > 0.0:
        return np.log1p(-p_inv), np.log(p_inv) + log_inv
    return None


def _mix_invariant(site_logs: np.ndarray, mixture, out: np.ndarray | None = None) -> np.ndarray:
    """Per-site log likelihood of the invariant/variable mixture, from the
    variable component's per-site log likelihood and the ``mixture`` of
    :func:`_invariant_mixture`. ``site_logs`` is left as it is unless it
    is ``out``."""
    if mixture is None:
        return site_logs
    log_variable, log_invariant = mixture
    mixed = np.add(site_logs, log_variable, out=out)
    return np.logaddexp(mixed, log_invariant, out=mixed)


def _checked_total(site_logs: np.ndarray) -> float:
    """Sum of the per-site log likelihoods. A non-finite sum means a site
    of zero (or undefined) likelihood: the first such site is named in a
    :class:`NumericalUnderflowError`."""
    total = float(site_logs.sum())
    if not math.isfinite(total):
        site = int(np.flatnonzero(~np.isfinite(site_logs))[0])
        raise NumericalUnderflowError(f"site {site} has zero likelihood")
    return total


def site_log_likelihoods(
    tree: Phylogeny,
    model: SubstitutionModel,
    source: CharacterMatrix | SitePrep,
    root: int | None = None,
    cache: PartialCache | None = None,
) -> np.ndarray:
    """Per-site log likelihood of the invariant/variable mixture.

    The virtual root is arbitrary; ``root`` exists so tests can verify
    root-placement invariance. ``cache`` holds partials of ``tree`` under
    ``model`` and ``source`` (a :class:`SitePrep`) to reuse and extend.
    """
    prep = source if isinstance(source, SitePrep) else prepare_sites(model, source)
    cache = _cache_for(tree, model, prep, cache)
    site_logs = _mix_invariant(
        _logmeanexp(cache.variable_site_logs(root)),
        _invariant_mixture(model.p_inv, prep.log_inv),
    )
    _checked_total(site_logs)
    return site_logs


def edge_log_likelihood_fn(
    tree: Phylogeny,
    model: SubstitutionModel,
    prep: SitePrep,
    u: int,
    v: int,
    cache: PartialCache | None = None,
):
    """Total log likelihood, and its first and second derivatives, as a
    function of the length of edge (u, v).

    Along one edge the variable component of a site at rate k is
    L_k(t) = a_k + b_k * x_k with x_k = exp(-beta_k * t), beta_k = mu * rate_k,
    so the partials on both sides of the edge are looked up (or filled) in
    ``cache`` once here and each candidate length costs only vector
    arithmetic. With r_k = b_k * x_k / L_k, the log of L_k has derivatives
    -beta_k * r_k and beta_k^2 * r_k - (beta_k * r_k)^2; a site mixes them
    over the rates with posterior weights
    w_k = exp(log L_k + log((1 - p_inv) / K) - log site likelihood), and
    the derivatives of its log are sum_k w_k (-beta_k r_k) and
    sum_k w_k beta_k^2 r_k minus the square of the first. The other branch
    lengths are taken as they currently stand.

    The returned callable maps a length t to the tuple
    (log likelihood, d/dt, d^2/dt^2).
    """
    if v not in tree.adjacency[u]:
        raise KeyError(f"no edge ({u}, {v})")
    cache = _cache_for(tree, model, prep, cache)
    freqs = model.freqs
    n_cats, n_sites = len(model.rates), prep.codes.shape[1]
    mixture = _invariant_mixture(model.p_inv, prep.log_inv)
    log_weight = (0.0 if mixture is None else mixture[0]) - math.log(n_cats)
    # Buffers reused by every call, which overwrites each before reading it.
    rows = np.empty((n_cats, n_sites))
    ratios = np.empty((n_cats, n_sites))
    mixed = np.empty(n_sites)
    first = np.empty(n_sites)
    betas = model.mu * np.asarray(model.rates)
    squares = betas * betas
    slots = []
    sides = zip(cache.partial(u, v), cache.partial(v, u))
    for k, ((side_u, logs_u), (side_v, logs_v)) in enumerate(sides):
        stationary = (freqs @ side_u) * (freqs @ side_v)
        joint = (freqs[:, None] * side_u * side_v).sum(axis=0)
        slots.append((rows[k], ratios[k], stationary, joint - stationary, logs_u + logs_v, betas[k]))

    def edge_log_likelihood(t: float) -> tuple[float, float, float]:
        for row, ratio, a, b, logs, beta in slots:
            np.multiply(b, np.exp(-beta * t), out=ratio)
            np.add(a, ratio, out=row)
            # Cancellation can push a tiny positive value below zero; the
            # floor keeps the optimizer away instead of crashing the log.
            np.maximum(row, 1e-300, out=row)
            ratio /= row
            np.log(row, out=row)
            row += logs
        site_logs = _mix_invariant(_logmeanexp(rows), mixture, out=mixed)
        total = _checked_total(site_logs)
        # ``rows`` becomes the weighted ratios w_k * r_k.
        np.subtract(rows, site_logs, out=rows)
        np.add(rows, log_weight, out=rows)
        np.exp(rows, out=rows)
        np.multiply(rows, ratios, out=rows)
        steps = rows.sum(axis=1)
        spread = float(np.dot(betas, rows, out=first) @ first)
        return total, -float(betas @ steps), float(squares @ steps) - spread

    return edge_log_likelihood
