"""In-memory model of the domain and task ontologies.

An ontology bundles four collections: concepts (flat labels tagged with the
kind of ontology they belong to), taxonomy edges (child -> parent subclass
links), instances (surface forms mapped to one or more concepts) and semantic
relations (lexically triggered links between a source and a target concept).
Everything is immutable after construction; queries are read-only and safe to
share across threads.

Surface forms are Buckwalter-transliterated ASCII throughout (see
`ontosem.buckwalter`), already normalized the same way utterances are.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Iterator, KeysView, NamedTuple, Sequence

DOMAIN = "domain"
TASK = "task"
KINDS = (DOMAIN, TASK)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# the one empty set every lookup miss returns and every token without labels
# or relations holds, so a miss allocates nothing
EMPTY: frozenset[str] = frozenset()


class UnknownRelationError(KeyError):
    """Raised when a relation id does not resolve; signals a corrupted reference."""


class Concept(NamedTuple):
    name: str
    kind: str
    gloss: str | None = None


class TaxonomyEdge(NamedTuple):
    child: str
    parent: str


class Instance(NamedTuple):
    surface: str
    concepts: frozenset[str]


class Relation(NamedTuple):
    id: str
    triggers: frozenset[str]
    source: str
    target: str


class Finding(NamedTuple):
    """One violated invariant reported by validate()."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class Instances:
    """An ontology's instance records, derived on demand, sorted by surface
    with ties in file order, from its surface index (each surface's concept
    set) and the claims of each surface claimed more than once. Any other
    surface's index entry is its one record: each instance is held once."""

    __slots__ = ("_index", "_claims")

    def __init__(self, pairs: Iterable[tuple[str, frozenset[str]]]):
        self._index, self._claims = index, claims = {}, {}
        for surface, concepts in pairs:
            if surface in index:
                claims.setdefault(surface, [index[surface]]).append(concepts)
                concepts = index[surface] | concepts
            index[surface] = concepts

    @property
    def surfaces(self) -> KeysView[str]:
        """Each surface once, unsorted: a read-only view of the index keys."""
        return self._index.keys()

    def __iter__(self) -> Iterator[Instance]:
        index, claims = self._index, self._claims
        return (Instance(s, c) for s in sorted(index) for c in claims.get(s, (index[s],)))

    def __len__(self) -> int:
        return len(self._index) + sum(len(c) - 1 for c in self._claims.values())

    def __eq__(self, other: object) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, Instances) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _Collections(NamedTuple):
    concepts: tuple[Concept, ...]
    taxonomy: tuple[TaxonomyEdge, ...]
    instances: Instances
    relations: tuple[Relation, ...]


class Ontology(_Collections):
    """Immutable ontology; collections are stored in canonical sorted order,
    the instances as their surface index (see `Instances`).

    Construction normalizes ordering so that structural equality and
    serialization are independent of the order records were supplied in.
    Query helpers assume a validated ontology (see validate()); on malformed
    data they still terminate but results follow first-declaration-wins rules.
    The other indexes are built on first use and kept in the instance `__dict__`.
    """

    def __new__(cls, concepts=(), taxonomy=(), instances=(), relations=()):
        return super().__new__(
            cls,
            tuple(sorted(concepts, key=lambda c: (c.name, c.kind, c.gloss or ""))),
            tuple(sorted(taxonomy)),
            instances if isinstance(instances, Instances) else Instances(instances),
            tuple(sorted(relations, key=lambda r: r.id)),
        )

    @classmethod
    def _make(cls, iterable) -> "Ontology":  # `_replace` calls it: sort there too
        return cls(*iterable)

    # -- indexes -----------------------------------------------------------

    @cached_property
    def concept_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.concepts)

    @cached_property
    def _relations_by_trigger(self) -> dict[str, frozenset[str]]:
        index: dict[str, frozenset[str]] = {}
        for relation in self.relations:
            for trigger in relation.triggers:
                index[trigger] = index.get(trigger, EMPTY) | {relation.id}
        return index

    @cached_property
    def _relation_by_id(self) -> dict[str, Relation]:
        index: dict[str, Relation] = {}
        for relation in self.relations:
            index.setdefault(relation.id, relation)
        return index


def lookup(
    surface: str, ontologies: Iterable[Ontology]
) -> tuple[frozenset[str], frozenset[str]]:
    """The concept labels and relation ids a normalized surface form has in
    `ontologies`: the answer `merge(*ontologies)` gives, without building the
    merged ontology. Each set is an ontology's own index entry, or EMPTY; a
    new set is built only when two ontologies both know the surface."""
    labels = relation_ids = EMPTY
    for ontology in ontologies:
        if found := ontology.instances._index.get(surface):
            labels = labels | found if labels else found
        if found := ontology._relations_by_trigger.get(surface):
            relation_ids = relation_ids | found if relation_ids else found
    return labels, relation_ids


def relation_target(relation_id: str, ontologies: Iterable[Ontology]) -> str:
    """The target of `relation_id` in the first of `ontologies` that declares
    it, as in the first record of that id in `merge(*ontologies).relations`.
    Raises UnknownRelationError when none declares it."""
    for ontology in ontologies:
        relation = ontology._relation_by_id.get(relation_id)
        if relation is not None:
            return relation.target
    raise UnknownRelationError(relation_id)


def merge(*ontologies: Ontology) -> Ontology:
    """Union several ontologies (typically the domain/task pair) into one.

    Identical concept declarations collapse to a single record (a gloss-less
    redeclaration adopts the gloss of its counterpart). Instances sharing a
    surface form union their concept sets, as `lookup` does. Conflicting
    records (same concept name with a different kind, same relation id with
    different content) are kept side by side so validate() reports them.
    """
    concepts: dict[tuple[str, str], Concept] = {}
    edges: set[TaxonomyEdge] = set()
    instance_concepts: dict[str, frozenset[str]] = {}
    relations: dict[str, Relation] = {}
    conflicting_relations: list[Relation] = []

    for ontology in ontologies:
        for concept in ontology.concepts:
            key = (concept.name, concept.kind)
            known = concepts.get(key)
            if known is None or (known.gloss is None and concept.gloss is not None):
                concepts[key] = concept
        edges.update(ontology.taxonomy)
        for surface, members in ontology.instances._index.items():
            instance_concepts[surface] = instance_concepts.get(surface, EMPTY) | members
        for relation in ontology.relations:
            known = relations.get(relation.id)
            if known is None:
                relations[relation.id] = relation
            elif known != relation:
                conflicting_relations.append(relation)

    return Ontology(
        concepts=tuple(concepts.values()),
        taxonomy=tuple(edges),
        instances=instance_concepts.items(),
        relations=tuple(relations.values()) + tuple(conflicting_relations),
    )


def validate(ontology: Ontology) -> list[Finding]:
    """Check every structural invariant; never raises.

    Returns one Finding per violation: malformed or duplicate names, unknown
    kinds, dangling references, taxonomy cycles or multiple parents, duplicate
    surface claims, empty collections where content is required, and surface
    forms claimed both as an instance and as a relation trigger. An empty list
    means the ontology is well-formed.
    The instances are checked as a whole, through the claims and per distinct
    concept set, and one by one, to list each finding in order, only if that fails.
    """
    findings: list[Finding] = []
    add = findings.append

    names_seen: set[str] = set()
    for concept in ontology.concepts:
        if not _IDENT_RE.match(concept.name):
            add(Finding("bad-concept-name", f"concept name {concept.name!r} is not an identifier"))
        if concept.kind not in KINDS:
            add(Finding("unknown-kind", f"concept {concept.name!r} has kind {concept.kind!r}"))
        if concept.name in names_seen:
            add(Finding("duplicate-concept", f"concept name {concept.name!r} declared more than once"))
        names_seen.add(concept.name)

    known = ontology.concept_names

    parents_of: dict[str, list[str]] = {}
    for edge in ontology.taxonomy:
        for endpoint in (edge.child, edge.parent):
            if endpoint not in known:
                add(Finding("dangling-taxonomy", f"taxonomy edge {edge.child!r} < {edge.parent!r} references unknown concept {endpoint!r}"))
        parents_of.setdefault(edge.child, []).append(edge.parent)
    for child, parents in parents_of.items():
        if len(set(parents)) > 1:
            add(Finding("multiple-parents", f"concept {child!r} has parents {sorted(set(parents))}"))
    for node in _cycle_nodes(parents_of):
        add(Finding("taxonomy-cycle", f"concept {node!r} is its own ancestor"))

    index = ontology.instances._index
    if ontology.instances._claims or "" in index or not all(c and c <= known for c in set(index.values())):
        surfaces_seen: set[str] = set()
        for instance in ontology.instances:
            if not instance.surface:
                add(Finding("bad-surface", "instance with empty surface form"))
            if not instance.concepts:
                add(Finding("empty-instance", f"instance {instance.surface!r} maps to no concept"))
            for name in sorted(instance.concepts - known):
                add(Finding("dangling-instance-concept", f"instance {instance.surface!r} references unknown concept {name!r}"))
            if instance.surface in surfaces_seen:
                add(Finding("duplicate-surface", f"surface {instance.surface!r} claimed by more than one instance record"))
            surfaces_seen.add(instance.surface)

    relation_ids_seen: set[str] = set()
    for relation in ontology.relations:
        if not _IDENT_RE.match(relation.id):
            add(Finding("bad-relation-id", f"relation id {relation.id!r} is not an identifier"))
        if relation.id in relation_ids_seen:
            add(Finding("duplicate-relation", f"relation id {relation.id!r} declared more than once"))
        relation_ids_seen.add(relation.id)
        if not relation.triggers:
            add(Finding("empty-triggers", f"relation {relation.id!r} has no trigger forms"))
        for endpoint, role in ((relation.source, "source"), (relation.target, "target")):
            if endpoint not in known:
                add(Finding("dangling-relation-concept", f"relation {relation.id!r} {role} {endpoint!r} is not a declared concept"))
        if "" in relation.triggers:
            add(Finding("bad-surface", f"relation {relation.id!r} has an empty trigger form"))

    findings.extend(trigger_instance_overlap([ontology]))
    return findings


def trigger_instance_overlap(ontologies: Sequence[Ontology]) -> list[Finding]:
    """A surface form is either a concept instance or a relation marker, never
    both: one finding per surface that is an instance in one of `ontologies`
    and a trigger in one of them, naming the least relation id `lookup` gives
    it. For a pair these are the overlap findings of `validate(merge(*pair))`,
    found without the merge from each ontology's own trigger index."""
    triggers = set().union(*(ontology._relations_by_trigger for ontology in ontologies))
    return [
        Finding("trigger-instance-overlap", f"surface {surface!r} is both an instance and a trigger of relation {min(lookup(surface, ontologies)[1])!r}")
        for surface in sorted(triggers)
        if any(surface in ontology.instances._index for ontology in ontologies)
    ]


def pair_findings(ontologies: Sequence[Ontology]) -> list[Finding]:
    """The one check of `ontologies` as a whole: `validate` of their merge
    without instances, then `trigger_instance_overlap`. For valid files this
    is `validate(merge(*ontologies))`; for any files, the two agree on every
    finding that no single file has. No instance set is merged."""
    declared = merge(*(o._replace(instances=()) for o in ontologies))
    return validate(declared) + trigger_instance_overlap(ontologies)


def _cycle_nodes(parents_of: dict[str, list[str]]) -> list[str]:
    """The nodes that are their own ancestors, sorted: those in a strongly
    connected component of two or more nodes or with a self-loop. Iterative
    Tarjan, linear in the edges, from a root (None) whose parents are all the
    nodes; `low` is the least `component` position a node reaches, inf once done."""
    low: dict[str | None, float] = {None: 0}
    component: list[str | None] = [None]
    work: list[tuple[str | None, Iterator[str], int]] = [(None, iter(parents_of), 0)]
    on_cycle: list[str] = []
    while work:
        node, parents, position = work[-1]
        for parent in parents:
            if parent not in low:
                low[parent] = len(component)
                work.append((parent, iter(parents_of.get(parent, ())), len(component)))
                component.append(parent)
                break
            low[node] = min(low[node], low[parent])
        else:
            work.pop()
            if low[node] == position:
                members = component[position:]
                del component[position:]
                if len(members) > 1 or node in parents_of.get(node, ()):
                    on_cycle += members
                low.update(dict.fromkeys(members, float("inf")))
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
    return sorted(on_cycle)
