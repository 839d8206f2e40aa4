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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

DOMAIN = "domain"
TASK = "task"
KINDS = (DOMAIN, TASK)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# the one empty set every lookup miss returns and every token without labels
# or relations holds, so a miss allocates nothing
EMPTY: frozenset[str] = frozenset()


class UnknownConceptError(KeyError):
    """Raised when a concept name is not declared in the ontology."""


class UnknownRelationError(KeyError):
    """Raised when a relation id does not resolve; signals a corrupted reference."""


@dataclass(frozen=True, slots=True)
class Concept:
    name: str
    kind: str
    gloss: str | None = None


@dataclass(frozen=True, order=True, slots=True)
class TaxonomyEdge:
    child: str
    parent: str


@dataclass(frozen=True, slots=True)
class Instance:
    surface: str
    concepts: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "concepts", frozenset(self.concepts))


@dataclass(frozen=True, slots=True)
class Relation:
    id: str
    triggers: frozenset[str]
    source: str
    target: str

    def __post_init__(self):
        object.__setattr__(self, "triggers", frozenset(self.triggers))


@dataclass(frozen=True, slots=True)
class Finding:
    """One violated invariant reported by validate()."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class Ontology:
    """Immutable ontology; collections are stored in canonical sorted order.

    Construction normalizes ordering so that structural equality and
    serialization are independent of the order records were supplied in.
    Query helpers assume a validated ontology (see validate()); on malformed
    data they still terminate but results follow first-declaration-wins rules.
    """

    concepts: tuple[Concept, ...] = ()
    taxonomy: tuple[TaxonomyEdge, ...] = ()
    instances: tuple[Instance, ...] = ()
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "concepts",
            tuple(sorted(self.concepts, key=lambda c: (c.name, c.kind, c.gloss or ""))),
        )
        object.__setattr__(self, "taxonomy", tuple(sorted(self.taxonomy)))
        object.__setattr__(
            self, "instances", tuple(sorted(self.instances, key=lambda i: i.surface))
        )
        object.__setattr__(
            self, "relations", tuple(sorted(self.relations, key=lambda r: r.id))
        )

    # -- indexes -----------------------------------------------------------

    @cached_property
    def concept_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.concepts)

    @cached_property
    def _concept_by_name(self) -> dict[str, Concept]:
        index: dict[str, Concept] = {}
        for concept in self.concepts:
            index.setdefault(concept.name, concept)
        return index

    @cached_property
    def _parent_of(self) -> dict[str, str]:
        # first declared edge wins; extra parents are validation findings
        index: dict[str, str] = {}
        for edge in self.taxonomy:
            index.setdefault(edge.child, edge.parent)
        return index

    @cached_property
    def _instances_by_surface(self) -> dict[str, frozenset[str]]:
        index: dict[str, frozenset[str]] = {}
        for instance in self.instances:
            index[instance.surface] = index.get(instance.surface, frozenset()) | instance.concepts
        return index

    @cached_property
    def _relations_by_trigger(self) -> dict[str, frozenset[str]]:
        index: dict[str, frozenset[str]] = {}
        for relation in self.relations:
            for trigger in relation.triggers:
                index[trigger] = index.get(trigger, frozenset()) | {relation.id}
        return index

    @cached_property
    def _relation_by_id(self) -> dict[str, Relation]:
        index: dict[str, Relation] = {}
        for relation in self.relations:
            index.setdefault(relation.id, relation)
        return index

    # -- queries -----------------------------------------------------------

    def concept(self, name: str) -> Concept:
        try:
            return self._concept_by_name[name]
        except KeyError:
            raise UnknownConceptError(name) from None

    def lookup_concepts(self, surface: str) -> frozenset[str]:
        """Concept labels instantiated by a normalized surface form (may be empty)."""
        return self._instances_by_surface.get(surface, EMPTY)

    def lookup_relations(self, surface: str) -> frozenset[str]:
        """Ids of relations triggered by a normalized surface form (may be empty)."""
        return self._relations_by_trigger.get(surface, EMPTY)

    def relation(self, relation_id: str) -> Relation:
        try:
            return self._relation_by_id[relation_id]
        except KeyError:
            raise UnknownRelationError(relation_id) from None

    def relation_source(self, relation_id: str) -> str:
        return self.relation(relation_id).source

    def relation_target(self, relation_id: str) -> str:
        return self.relation(relation_id).target

    def ancestors(self, name: str) -> list[str]:
        """Transitive parents of a concept, nearest first; [] for roots."""
        if name not in self._concept_by_name:
            raise UnknownConceptError(name)
        chain: list[str] = []
        seen = {name}
        current = self._parent_of.get(name)
        while current is not None and current not in seen:
            chain.append(current)
            seen.add(current)
            current = self._parent_of.get(current)
        return chain

    def knows_surface(self, surface: str) -> bool:
        """Whether a normalized surface form is an instance or a relation trigger:
        membership in surface_vocabulary() without building it."""
        return surface in self._instances_by_surface or surface in self._relations_by_trigger

    def surface_vocabulary(self) -> frozenset[str]:
        """All surface forms the ontology knows: instances plus relation triggers."""
        vocab = set(self._instances_by_surface)
        vocab.update(self._relations_by_trigger)
        return frozenset(vocab)


def merge(*ontologies: Ontology) -> Ontology:
    """Union several ontologies (typically the domain/task pair) into one.

    Identical concept declarations collapse to a single record (a gloss-less
    redeclaration adopts the gloss of its counterpart). Instances sharing a
    surface form union their concept sets, matching how annotation queries
    both ontologies. Conflicting records (same concept name with a different
    kind, same relation id with different content) are kept side by side so
    validate() reports them.
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
        for instance in ontology.instances:
            merged = instance_concepts.get(instance.surface, frozenset())
            instance_concepts[instance.surface] = merged | instance.concepts
        for relation in ontology.relations:
            known = relations.get(relation.id)
            if known is None:
                relations[relation.id] = relation
            elif known != relation:
                conflicting_relations.append(relation)

    return Ontology(
        concepts=tuple(concepts.values()),
        taxonomy=tuple(edges),
        instances=tuple(
            Instance(surface, members) for surface, members in instance_concepts.items()
        ),
        relations=tuple(relations.values()) + tuple(conflicting_relations),
    )


def validate(ontology: Ontology) -> list[Finding]:
    """Check every structural invariant; never raises.

    Returns one Finding per violation: malformed or duplicate names, unknown
    kinds, dangling references, taxonomy cycles or multiple parents, duplicate
    surface claims, empty collections where content is required, and surface
    forms claimed both as an instance and as a relation trigger. An empty list
    means the ontology is well-formed.
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

    surfaces_seen: set[str] = set()
    for instance in ontology.instances:
        if not instance.surface:
            add(Finding("bad-surface", "instance with empty surface form"))
        if not instance.concepts:
            add(Finding("empty-instance", f"instance {instance.surface!r} maps to no concept"))
        for name in sorted(instance.concepts):
            if name not in known:
                add(Finding("dangling-instance-concept", f"instance {instance.surface!r} references unknown concept {name!r}"))
        if instance.surface in surfaces_seen:
            add(Finding("duplicate-surface", f"surface {instance.surface!r} claimed by more than one instance record"))
        surfaces_seen.add(instance.surface)

    relation_ids_seen: set[str] = set()
    trigger_claims: dict[str, str] = {}
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
        for trigger in sorted(relation.triggers):
            if not trigger:
                add(Finding("bad-surface", f"relation {relation.id!r} has an empty trigger form"))
            trigger_claims.setdefault(trigger, relation.id)

    # a surface form is either a concept instance or a relation marker, never both
    for surface in sorted(surfaces_seen & set(trigger_claims)):
        add(Finding("trigger-instance-overlap", f"surface {surface!r} is both an instance and a trigger of relation {trigger_claims[surface]!r}"))

    return findings


def _cycle_nodes(parents_of: dict[str, list[str]]) -> list[str]:
    """Nodes on a child->parent cycle, via iterative three-color DFS."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    on_cycle: set[str] = set()

    for start in parents_of:
        if color.get(start, WHITE) != WHITE:
            continue
        stack: list[tuple[str, Iterable[str]]] = [(start, iter(parents_of.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, parents = stack[-1]
            advanced = False
            for parent in parents:
                state = color.get(parent, WHITE)
                if state == GRAY:
                    on_cycle.add(parent)
                elif state == WHITE:
                    color[parent] = GRAY
                    stack.append((parent, iter(parents_of.get(parent, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return sorted(on_cycle)
