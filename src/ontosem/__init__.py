"""Ontology-based semantic annotation and interpretation of transcribed
utterances in a restricted domain (railway information, Buckwalter ASCII).

Pipeline: normalize -> annotate (ontology instance lookup) -> interpret
(disambiguation via semantic relations) -> evaluate (precision / f-measure).
"""

from .annotate import (
    AnnotatedUtterance,
    SEMANTIC_RELATION_LABEL,
    Status,
    TokenAnnotation,
    annotate,
    annotate_all,
)
from .buckwalter import transliterate
from .corpus import (
    CorpusFormatError,
    CorpusStats,
    GoldToken,
    GoldUtterance,
    OOV_LABEL,
    load_gold,
    load_utterances,
    stats,
)
from .evaluate import (
    AlignmentError,
    EvaluationCounts,
    EvaluationReport,
    Metrics,
    metrics,
    render_report,
    report,
    report_to_document,
)
from .interpret import (
    InterpretedUtterance,
    RESOLVED,
    Resolution,
    UNCHANGED,
    UNRESOLVED,
    interpret,
    interpret_all,
    resolve_token,
)
from .normalize import (
    NormalizationTables,
    NormalizedUtterance,
    RawUtterance,
    TablesError,
    Token,
    expand_clitics,
    load_tables,
    merge_compounds,
    normalize,
    normalize_all,
    radicalize,
    tokenize,
)
from .ontology import (
    Concept,
    Finding,
    Instance,
    Ontology,
    Relation,
    TaxonomyEdge,
    UnknownRelationError,
    lookup,
    merge,
    relation_target,
    trigger_instance_overlap,
    validate,
)
from .ontology_io import (
    OntologyFormatError,
    OntologyValidationError,
    export_owl,
    load_ontology,
    save_ontology,
)

__version__ = "0.1.0"
