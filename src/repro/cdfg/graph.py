"""Control-data flow graph (CDFG) with homogeneous-SDF semantics.

The computation model is the paper's: a hierarchical control-data flow
graph whose underlying semantics is homogeneous synchronous data flow —
every node consumes and produces exactly one sample per firing, so nodes
can be scheduled statically into control steps.

Three edge kinds coexist:

* **data** edges — value flow; always precedence constraints;
* **control** edges — explicit sequencing from the behavioral spec;
* **temporal** edges — the *watermark* constraints added by the local
  watermarking protocol ("a temporal edge enforces that its source
  operation is scheduled before its destination operation").

All three kinds act as precedence constraints for scheduling; they are
distinguished so watermarks can be added, listed, and stripped without
touching the original specification.

Periodic (streaming) workloads add one more dimension: an edge may
carry an iteration ``distance >= 0``.  A distance-``d`` edge constrains
iteration ``k`` of its source against iteration ``k + d`` of its
destination — the homogeneous-SDF "initial tokens" of Millo & de
Simone's marked graphs.  Distance-0 edges are ordinary combinational
precedences and must stay acyclic; positive-distance (back) edges may
close cycles, including self-loops, because the constraint they carry
is resolved by the initiation interval, not by within-iteration order.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import networkx as nx

from repro.cdfg.ops import OpType
from repro.errors import CDFGError, CycleError, UnknownNodeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.timing.kernel import CDFGView


@unique
class EdgeKind(str, Enum):
    """Kind of a CDFG edge."""

    DATA = "data"
    CONTROL = "control"
    TEMPORAL = "temporal"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeKind.{self.name}"


#: Edge kinds a watermark locality follows: the original specification,
#: never previously added temporal (watermark) constraints.
_LOCALITY_KINDS = frozenset((EdgeKind.DATA, EdgeKind.CONTROL))


class LocalityIndex:
    """Integer adjacency of a design's locality skeleton.

    Watermark localities — fanin cones, the canonical C1–C3 ordering,
    the structural (WL) hashes — follow only distance-0 data/control
    edges.  This index holds exactly that adjacency once per design
    skeleton, so those walks run over integer lists instead of
    filtering networkx edge attributes node by node.

    Node ``i`` is the ``i``-th operation in insertion order; ``preds``
    and ``succs`` list neighbors in networkx iteration order.  The index
    is immutable: :meth:`CDFG.locality_index` builds a new one when the
    skeleton changes.
    """

    __slots__ = ("nodes", "index", "ops", "preds", "succs", "schedulable")

    def __init__(self, g: nx.DiGraph) -> None:
        self.nodes: List[str] = list(g.nodes)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
        index = self.index
        data = g.nodes
        self.ops: List[OpType] = [data[n]["op"] for n in self.nodes]
        self.schedulable: List[bool] = [op.is_schedulable for op in self.ops]

        def skeleton(adjacency) -> List[List[int]]:
            return [
                [
                    index[m]
                    for m, attrs in adjacency[n].items()
                    if attrs["kind"] in _LOCALITY_KINDS
                    and not attrs.get("distance", 0)
                ]
                for n in self.nodes
            ]

        # The raw adjacency dicts: the read-only views cost an ABC
        # iterator per node, most of the build on the 6k-node LEC.
        self.preds: List[List[int]] = skeleton(g._pred)
        self.succs: List[List[int]] = skeleton(g._succ)

    def ids(self, names: Iterable[str]) -> Set[int]:
        """Node ids of *names*; unknown names raise."""
        index = self.index
        try:
            return {index[n] for n in names}
        except KeyError as exc:
            raise UnknownNodeError(f"unknown operation: {exc.args[0]!r}") from None

    def fanin(
        self,
        root: int,
        max_distance: Optional[int] = None,
        within: Optional[Set[int]] = None,
    ) -> Iterator[int]:
        """*root*, then its fanin breadth-first within *max_distance*
        hops (``None``: all), optionally clipped to the id set *within*.

        A generator, so a caller that has seen enough stops the walk.
        """
        preds = self.preds
        yield root
        seen = {root}
        frontier = [root]
        hops = 0
        while frontier and (max_distance is None or hops < max_distance):
            nxt: List[int] = []
            for node in frontier:
                for pred in preds[node]:
                    if pred not in seen and (within is None or pred in within):
                        seen.add(pred)
                        nxt.append(pred)
                        yield pred
            frontier = nxt
            hops += 1

    def cone(self, root: int, tau: int) -> Set[int]:
        """Schedulable fanin of *root* within *tau* hops (the ``T_o``)."""
        schedulable = self.schedulable
        return {i for i in self.fanin(root, tau) if schedulable[i]}

    def cone_reaches(self, root: int, tau: int, size: int) -> bool:
        """Whether :meth:`cone` has at least *size* nodes; stops as soon
        as it has found them."""
        schedulable = self.schedulable
        count = 0
        for node in self.fanin(root, tau):
            if schedulable[node]:
                count += 1
                if count >= size:
                    return True
        return False


class CDFG:
    """A control-data flow graph.

    Nodes are identified by string names and carry an :class:`OpType`
    plus an integer latency (control steps).  The graph must stay acyclic
    over the union of all edge kinds.

    Examples
    --------
    >>> g = CDFG("demo")
    >>> g.add_operation("a", OpType.ADD)
    >>> g.add_operation("b", OpType.MUL)
    >>> g.add_data_edge("a", "b")
    >>> g.num_operations
    2
    >>> list(g.successors("a"))
    ['b']
    """

    def __init__(self, name: str = "cdfg") -> None:
        self.name = name
        self._g = nx.DiGraph()
        #: Mutation counter: bumped by every structural mutation so the
        #: cached :class:`~repro.timing.kernel.CDFGView` (and everything
        #: derived from it) knows when it is stale.
        self._version = 0
        self._view: Optional["CDFGView"] = None
        #: Lazy (version, back-edge tuple) memo; dropped on pickle.
        self._periodic_cache: Optional[Tuple[int, Tuple[Tuple[str, str, int], ...]]] = None
        #: Skeleton counter: bumped only by mutations a locality can see
        #: (nodes, op types, data/control edges) — temporal edges leave
        #: it alone, so watermark insertion keeps the locality index.
        self._skeleton = 0
        #: Lazy (skeleton counter, LocalityIndex) memo; dropped on pickle.
        self._locality: Optional[Tuple[int, LocalityIndex]] = None

    @property
    def mutation_count(self) -> int:
        """Monotonic mutation counter (cache-invalidation token)."""
        return self._version

    def _bump(self, skeleton: bool = True) -> None:
        self._version += 1
        if skeleton:
            self._skeleton += 1

    def locality_index(self) -> LocalityIndex:
        """The :class:`LocalityIndex` of the current skeleton.

        Built lazily and rebuilt only when the skeleton counter has
        moved; copies and :meth:`without_temporal_edges` share it.
        """
        cache = self._locality
        if cache is None or cache[0] != self._skeleton:
            cache = self._locality = (self._skeleton, LocalityIndex(self._g))
        return cache[1]

    def view(self) -> "CDFGView":
        """The cached :class:`~repro.timing.kernel.CDFGView`.

        Rebuilt lazily whenever the mutation counter has moved since the
        cached view was constructed; all timing analyses and the cached
        node-set properties are served from it.
        """
        from repro.timing.kernel import CDFGView

        view = self._view
        if view is None or view.version != self._version:
            view = CDFGView(self)
            self._view = view
        return view

    def _adopt_view(self, view: "CDFGView") -> None:
        """Install a view kept in sync incrementally (kernel internal)."""
        self._view = view

    def __getstate__(self):
        # The cached view holds derived arrays plus a back-reference;
        # drop it so pickled designs (campaign worker processes) stay
        # small and rebuild the cache on first use.
        state = self.__dict__.copy()
        state["_view"] = None
        # The RTL emitter caches its identifier table on the instance;
        # it is derived and cheap to rebuild, so drop it too.
        state.pop("_rtl_names", None)
        # Same deal for the periodic back-edge and locality memos.
        state["_periodic_cache"] = None
        state["_locality"] = None
        return state

    def __setstate__(self, state) -> None:
        # Designs pickled before the periodic subsystem or the locality
        # index lack their slots; restore with empty memos either way.
        self.__dict__.update(state)
        self._periodic_cache = None
        self._locality = None
        self.__dict__.setdefault("_skeleton", 0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operation(
        self,
        name: str,
        op: OpType,
        latency: Optional[int] = None,
        ppo: bool = False,
    ) -> None:
        """Add an operation node.

        Parameters
        ----------
        name:
            Unique node name.
        op:
            Operation type.
        latency:
            Latency in control steps; defaults to the op type's latency.
        ppo:
            Whether the node's output variable is a pseudo-primary output
            (must remain visible in any template covering).
        """
        if name in self._g:
            raise CDFGError(f"duplicate operation name: {name!r}")
        if latency is None:
            latency = op.latency
        if latency < 0:
            raise CDFGError(f"negative latency for {name!r}")
        self._g.add_node(name, op=op, latency=latency, ppo=bool(ppo))
        self._bump()

    def add_edge(
        self, src: str, dst: str, kind: EdgeKind, distance: int = 0
    ) -> None:
        """Add an edge of the given kind; rejects cycles and duplicates.

        ``distance`` is the inter-iteration distance: 0 for ordinary
        combinational precedence (must stay acyclic), ``d >= 1`` for a
        back edge constraining iteration ``k`` of *src* against
        iteration ``k + d`` of *dst* (may close cycles, including
        self-loops).
        """
        self._require(src)
        self._require(dst)
        if distance < 0:
            raise CDFGError(
                f"negative distance on edge {src!r}->{dst!r}: {distance}"
            )
        if src == dst and distance == 0:
            raise CDFGError(f"self-loop on {src!r}")
        if self._g.has_edge(src, dst):
            existing = self._g.edges[src, dst]["kind"]
            if existing == kind:
                raise CDFGError(f"duplicate {kind.value} edge {src!r}->{dst!r}")
            # A temporal edge that parallels an existing data/control edge
            # is redundant (the precedence already holds); keep the
            # stronger original kind but remember the temporal overlay.
            raise CDFGError(
                f"edge {src!r}->{dst!r} already exists with kind {existing}"
            )
        self._g.add_edge(src, dst, kind=kind, distance=int(distance))
        if distance == 0 and self._creates_cycle(src, dst):
            self._g.remove_edge(src, dst)
            raise CycleError(f"edge {src!r}->{dst!r} would create a cycle")
        self._bump(skeleton=kind is not EdgeKind.TEMPORAL)

    def add_data_edge(self, src: str, dst: str, distance: int = 0) -> None:
        """Add a value-flow edge (``distance >= 1`` for loop feedback)."""
        self.add_edge(src, dst, EdgeKind.DATA, distance=distance)

    def add_control_edge(self, src: str, dst: str) -> None:
        """Add an explicit sequencing edge from the behavioral spec."""
        self.add_edge(src, dst, EdgeKind.CONTROL)

    def add_temporal_edge(self, src: str, dst: str, distance: int = 0) -> None:
        """Add a watermark temporal edge (source before destination).

        With ``distance >= 1`` the constraint spans iteration
        boundaries: *src* of iteration ``k`` before *dst* of iteration
        ``k + distance`` in the steady-state schedule.
        """
        self.add_edge(src, dst, EdgeKind.TEMPORAL, distance=distance)

    def remove_edge(self, src: str, dst: str) -> None:
        """Remove the edge src->dst (any kind)."""
        if not self._g.has_edge(src, dst):
            raise CDFGError(f"no edge {src!r}->{dst!r}")
        kind = self._g.edges[src, dst]["kind"]
        self._g.remove_edge(src, dst)
        self._bump(skeleton=kind is not EdgeKind.TEMPORAL)

    def remove_operation(self, name: str) -> None:
        """Remove an operation node and every edge touching it."""
        self._require(name)
        self._g.remove_node(name)
        self._bump()

    def set_op(self, name: str, op: OpType) -> None:
        """Replace a node's operation type (latency is left untouched)."""
        self._require(name)
        self._g.nodes[name]["op"] = op
        self._bump()

    def set_latency(self, name: str, latency: int) -> None:
        """Replace a node's latency in control steps."""
        self._require(name)
        if latency < 0:
            raise CDFGError(f"negative latency for {name!r}")
        self._g.nodes[name]["latency"] = latency
        self._bump(skeleton=False)

    def _creates_cycle(self, src: str, dst: str) -> bool:
        # A new distance-0 edge src->dst closes a combinational cycle
        # iff src is reachable from dst over distance-0 edges alone:
        # positive-distance edges break strongly-connected chains at the
        # iteration boundary, so a path through one is not a cycle.  The
        # hand-rolled DFS (instead of ``nx.has_path``) keeps the
        # acyclic fast path O(out-degree): graphs built in topological
        # order give dst no distance-0 successors yet, so the stack
        # drains immediately.
        succ = self._g.succ
        stack = [dst]
        seen = {dst}
        while stack:
            node = stack.pop()
            if node == src:
                return True
            for nxt, attrs in succ[node].items():
                if attrs.get("distance", 0):
                    continue
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _require(self, name: str) -> None:
        if name not in self._g:
            raise UnknownNodeError(f"unknown operation: {name!r}")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """The underlying networkx graph (read-only by convention)."""
        return self._g

    @property
    def operations(self) -> List[str]:
        """All operation names, in insertion order."""
        return list(self._g.nodes)

    @property
    def num_operations(self) -> int:
        """Total number of operation nodes (including IO placeholders)."""
        return self._g.number_of_nodes()

    @property
    def schedulable_operations(self) -> List[str]:
        """Names of operations that occupy a control step (non-IO)."""
        return list(self.view().schedulable_operations)

    def __contains__(self, name: str) -> bool:
        return name in self._g

    def __len__(self) -> int:
        return self._g.number_of_nodes()

    def __iter__(self) -> Iterator[str]:
        return iter(self._g.nodes)

    def op(self, name: str) -> OpType:
        """Operation type of a node."""
        self._require(name)
        return self._g.nodes[name]["op"]

    def latency(self, name: str) -> int:
        """Latency of a node in control steps."""
        self._require(name)
        return self._g.nodes[name]["latency"]

    def is_ppo(self, name: str) -> bool:
        """Whether a node's output variable is a pseudo-primary output."""
        self._require(name)
        return self._g.nodes[name]["ppo"]

    def set_ppo(self, name: str, value: bool = True) -> None:
        """Mark/unmark a node's output variable as pseudo-primary output."""
        self._require(name)
        self._g.nodes[name]["ppo"] = bool(value)
        self._bump(skeleton=False)

    @property
    def ppo_nodes(self) -> List[str]:
        """All nodes currently marked as pseudo-primary outputs."""
        return [n for n in self._g.nodes if self._g.nodes[n]["ppo"]]

    def edge_kind(self, src: str, dst: str) -> EdgeKind:
        """Kind of the edge src->dst."""
        if not self._g.has_edge(src, dst):
            raise CDFGError(f"no edge {src!r}->{dst!r}")
        return self._g.edges[src, dst]["kind"]

    def edge_distance(self, src: str, dst: str) -> int:
        """Inter-iteration distance of the edge src->dst (0 = same iter)."""
        if not self._g.has_edge(src, dst):
            raise CDFGError(f"no edge {src!r}->{dst!r}")
        return self._g.edges[src, dst].get("distance", 0)

    @property
    def back_edges(self) -> List[Tuple[str, str, int]]:
        """All positive-distance edges as ``(src, dst, distance)``.

        Memoized per mutation-counter value: scheduling dispatch and
        view construction consult this on hot paths, and most designs
        are acyclic so the common answer is the empty list.
        """
        cache = self._periodic_cache
        if cache is None or cache[0] != self._version:
            found = tuple(
                (u, v, d)
                for u, v, d in self._g.edges(data="distance", default=0)
                if d
            )
            self._periodic_cache = cache = (self._version, found)
        return list(cache[1])

    @property
    def has_back_edges(self) -> bool:
        """Whether any edge carries a positive inter-iteration distance."""
        return bool(self.back_edges)

    def edges(self, kind: Optional[EdgeKind] = None) -> List[Tuple[str, str]]:
        """All edges, optionally filtered by kind."""
        if kind is None:
            return list(self._g.edges)
        return [
            (u, v) for u, v, k in self._g.edges(data="kind") if k == kind
        ]

    @property
    def data_edges(self) -> List[Tuple[str, str]]:
        """All data edges."""
        return self.edges(EdgeKind.DATA)

    @property
    def temporal_edges(self) -> List[Tuple[str, str]]:
        """All watermark temporal edges."""
        return self.edges(EdgeKind.TEMPORAL)

    def predecessors(
        self,
        name: str,
        kinds: Optional[Iterable[EdgeKind]] = None,
        skeleton: bool = False,
    ) -> List[str]:
        """Predecessors of a node, optionally restricted to edge kinds.

        With ``skeleton=True`` only distance-0 (intra-iteration) edges
        are followed — the traversal watermark localities and canonical
        node identification use, since cross-iteration edges constrain
        iterations against each other, not structure within one.
        """
        self._require(name)
        edges = self._g.edges
        wanted = None if kinds is None else set(kinds)
        return [
            u
            for u in self._g.predecessors(name)
            if (wanted is None or edges[u, name]["kind"] in wanted)
            and not (skeleton and edges[u, name].get("distance", 0))
        ]

    def successors(
        self,
        name: str,
        kinds: Optional[Iterable[EdgeKind]] = None,
        skeleton: bool = False,
    ) -> List[str]:
        """Successors of a node, optionally restricted to edge kinds.

        ``skeleton=True`` mirrors :meth:`predecessors`: positive-distance
        edges are skipped.
        """
        self._require(name)
        edges = self._g.edges
        wanted = None if kinds is None else set(kinds)
        return [
            v
            for v in self._g.successors(name)
            if (wanted is None or edges[name, v]["kind"] in wanted)
            and not (skeleton and edges[name, v].get("distance", 0))
        ]

    def data_predecessors(self, name: str) -> List[str]:
        """Predecessors over data edges only."""
        return self.predecessors(name, kinds=(EdgeKind.DATA,))

    def data_successors(self, name: str) -> List[str]:
        """Successors over data edges only."""
        return self.successors(name, kinds=(EdgeKind.DATA,))

    @property
    def primary_inputs(self) -> List[str]:
        """Nodes with no data predecessors (graph sources)."""
        return list(self.view().primary_inputs)

    @property
    def primary_outputs(self) -> List[str]:
        """Nodes with no data successors (graph sinks)."""
        return list(self.view().primary_outputs)

    @property
    def num_variables(self) -> int:
        """Number of distinct data values flowing through the design.

        Every node that produces a value (every non-OUTPUT node)
        contributes one variable; this is the "variables" metric of the
        paper's Table II.
        """
        return sum(1 for n in self._g.nodes if self.op(n) is not OpType.OUTPUT)

    def _skeleton_view(self) -> nx.DiGraph:
        """Read-only view of the distance-0 (combinational) subgraph."""
        edges = self._g.edges
        return nx.subgraph_view(
            self._g,
            filter_edge=lambda u, v: not edges[u, v].get("distance", 0),
        )

    def skeleton_graph(self) -> nx.DiGraph:
        """The distance-0 subgraph as a read-only networkx view.

        Always a DAG (enforced by :meth:`add_edge`); reachability over it
        is what decides whether one within-iteration ordering implies
        another, regardless of any cross-iteration edges present.
        """
        return self._skeleton_view()

    def topological_order(self) -> List[str]:
        """Nodes in a deterministic topological order (all edge kinds).

        Periodic designs are ordered over the distance-0 skeleton —
        back edges constrain iterations against each other, not nodes
        within one iteration, so they carry no intra-iteration order.
        """
        if self.has_back_edges:
            return list(nx.lexicographical_topological_sort(self._skeleton_view()))
        return list(nx.lexicographical_topological_sort(self._g))

    def validate(self) -> None:
        """Raise :class:`CDFGError` if structural invariants are broken."""
        if not nx.is_directed_acyclic_graph(self._skeleton_view()):
            raise CycleError(f"CDFG {self.name!r} contains a combinational cycle")
        for name in self._g.nodes:
            if self.latency(name) < 0:
                raise CDFGError(f"negative latency on {name!r}")
        for u, v, d in self._g.edges(data="distance", default=0):
            if d < 0:
                raise CDFGError(f"negative distance on edge {u!r}->{v!r}")

    # ------------------------------------------------------------------
    # watermark-oriented queries
    # ------------------------------------------------------------------
    def fanin_tree(self, root: str, max_distance: int) -> Set[str]:
        """The transitive fanin set of *root* within *max_distance* hops.

        Distance counts data/control edges traversed in reverse; the root
        itself is at distance zero and always included.  Temporal edges
        are *not* followed: the locality of a watermark is defined on the
        original specification, not on previously added constraints.
        Cross-iteration (positive-distance) edges are not followed
        either — a locality lives within one iteration.
        """
        self._require(root)
        if max_distance < 0:
            raise CDFGError("max_distance must be non-negative")
        index = self.locality_index()
        nodes = index.nodes
        return {nodes[i] for i in index.fanin(index.index[root], max_distance)}

    def fanin_distance(self, root: str) -> Dict[str, int]:
        """Shortest reverse-edge distance from *root* to each fanin node."""
        self._require(root)
        index = self.locality_index()
        nodes, preds = index.nodes, index.preds
        start = index.index[root]
        distances = {start: 0}
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for pred in preds[node]:
                    if pred not in distances:
                        distances[pred] = distances[node] + 1
                        nxt.append(pred)
            frontier = nxt
        return {nodes[i]: d for i, d in distances.items()}

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "CDFG":
        """Deep copy; optionally renamed."""
        clone = CDFG(name or self.name)
        clone._g = self._g.copy()
        clone._skeleton = self._skeleton
        clone._locality = self._locality
        return clone

    def without_temporal_edges(self) -> "CDFG":
        """A copy with every watermark temporal edge removed."""
        clone = self.copy()
        for src, dst in clone.temporal_edges:
            clone.remove_edge(src, dst)
        return clone

    def subgraph(self, nodes: Iterable[str], name: Optional[str] = None) -> "CDFG":
        """Induced subgraph copy on the given node set."""
        node_set = set(nodes)
        for node in node_set:
            self._require(node)
        clone = CDFG(name or f"{self.name}.sub")
        clone._g = self._g.subgraph(node_set).copy()
        return clone

    def renamed(self, mapping: Dict[str, str], name: Optional[str] = None) -> "CDFG":
        """A copy with node names replaced per *mapping*.

        Used by attack models and embedded-IP tests: a canonical
        watermark must survive arbitrary renaming because node
        identification is structural (criteria C1–C3), never name-based.
        """
        missing = set(mapping) - set(self._g.nodes)
        if missing:
            raise UnknownNodeError(f"unknown operations in mapping: {missing}")
        targets = [mapping.get(n, n) for n in self._g.nodes]
        if len(set(targets)) != len(targets):
            raise CDFGError("renaming would merge distinct operations")
        clone = CDFG(name or self.name)
        clone._g = nx.relabel_nodes(self._g, mapping, copy=True)
        return clone

    def merged_with(
        self,
        other: "CDFG",
        connections: Iterable[Tuple[str, str]] = (),
        prefix: str = "",
        name: Optional[str] = None,
    ) -> "CDFG":
        """Embed *other* into a copy of this graph.

        Parameters
        ----------
        other:
            The CDFG to embed (e.g. a misappropriated core dropped into a
            larger host system).
        connections:
            Pairs ``(host_node, core_node)`` or ``(core_node, host_node)``
            of data edges to add between the two graphs; names referring
            to *other* must already carry *prefix*.
        prefix:
            Prefix applied to every node of *other* to avoid collisions.
        """
        renamed = other.renamed({n: prefix + n for n in other.operations})
        clone = self.copy(name or f"{self.name}+{other.name}")
        for node in renamed.operations:
            if node in clone:
                raise CDFGError(f"name collision while merging: {node!r}")
        clone._g = nx.compose(clone._g, renamed._g)
        clone._bump()
        for src, dst in connections:
            clone.add_data_edge(src, dst)
        return clone

    # ------------------------------------------------------------------
    # equality / hashing helpers
    # ------------------------------------------------------------------
    def structure_signature(self) -> FrozenSet[Tuple[str, str, str, str]]:
        """A name-independent-ish summary used in tests.

        Returns the multiset of edges as (src_op, dst_op, kind) triples
        plus node degrees; two isomorphic graphs share it (the converse
        does not hold — this is a cheap test helper, not an isomorphism
        certificate).
        """
        items = set()
        for u, v, k in self._g.edges(data="kind"):
            items.add(
                (
                    self.op(u).name,
                    self.op(v).name,
                    k.value if isinstance(k, EdgeKind) else str(k),
                    f"{self._g.in_degree(u)}-{self._g.out_degree(v)}",
                )
            )
        return frozenset(items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CDFG({self.name!r}, ops={self.num_operations}, "
            f"edges={self._g.number_of_edges()})"
        )
