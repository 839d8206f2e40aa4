"""Ontology-based semantic annotation and interpretation of transcribed
utterances in a restricted domain (railway information, Buckwalter ASCII).

Pipeline: normalize -> annotate (ontology instance lookup) -> interpret
(disambiguation via semantic relations) -> evaluate (precision / f-measure).
"""
