"""Seeded benchmark inputs built from the bundled railway sample.

Every workload is a shuffled set of copies of the 25 bundled utterances with
unique ids (`<base id>.<copy>`), a gold file that matches it, and the
ontology/tables files the program loads. The `large-lexicon` workload also
appends OOV noise words to each utterance and inflates the lexicon with
filler instances, compounds and variants.

All generated surfaces are drawn from letters that no clitic prefix starts
with, and `generate` asserts that none of them collides with
a corpus token, a corpus token minus a clitic prefix, a compound part or a
variant key, so the filler cannot change the label of any corpus token.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

OOV_LABEL = "OOV"
# Characters the tokenizer drops; mirrors the program's documented punctuation set.
PUNCTUATION = "؟?!.,"
# No clitic prefix of the sample tables ("l", "mn") starts with one of these.
FILLER_ALPHABET = "bcdfgjkqvxz"


@dataclass(frozen=True)
class Workload:
    name: str
    copies: int
    filler_instances: int = 0
    filler_compounds: int = 0
    filler_variants: int = 0
    noise_words: tuple[int, ...] = (0,)  # per-utterance counts, balanced over the corpus
    noise_pool: int = 0
    # share of the measured seconds for the batch, CLI and per-call phases
    shares: tuple[float, float, float] = (0.45, 0.4, 0.15)
    # what one pass of the traced run is: "batch" (whole corpus) or "calls" (per utterance)
    traced: str = "batch"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-sample", copies=160),
        Workload(
            "large-lexicon",
            copies=1,
            filler_instances=20_000,
            filler_compounds=2_000,
            filler_variants=500,
            noise_words=(1, 2, 3),
            noise_pool=5_000,
            shares=(0.15, 0.25, 0.6),
        ),
        Workload(
            "dialogue",
            copies=40,
            shares=(0.2, 0.2, 0.6),
            traced="calls",
        ),
    )
}


@dataclass
class Inputs:
    """Generated files plus what the benchmark expects the program to produce."""

    workload: Workload
    seed: int
    directory: Path
    domain: Path
    task: Path
    tables: Path
    corpus: Path
    gold: Path
    utterances: list[tuple[str, str]]  # (id, text) in corpus order
    base_of: dict[str, str]  # utterance id -> bundled utterance id
    gold_of: dict[str, tuple[tuple[str, str], ...]]  # utterance id -> (surface, label) per token
    gold_tokens: int
    instances: int
    compounds: int
    expected: dict = field(default_factory=dict)  # report document subset: counts, per_concept


def _read_tsv(path: Path) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            rows.append(line.split("\t"))
    return rows


def corpus_surfaces(data: Path, tables_doc: dict) -> set[str]:
    """Every surface that may appear in or be derived from the bundled corpus."""
    surfaces = set()
    for _, text in _read_tsv(data / "mini_corpus.tsv"):
        for ch in PUNCTUATION:
            text = text.replace(ch, " ")
        surfaces.update(text.split())
    surfaces.update(row[2] for row in _read_tsv(data / "mini_corpus_gold.tsv"))
    prefixes = [rule["prefix"] for rule in tables_doc.get("clitics", [])]
    stripped = {s[len(p):] for s in surfaces for p in prefixes if s.startswith(p)}
    parts = {part for rule in tables_doc.get("compounds", []) for part in rule["parts"]}
    return surfaces | stripped | parts | set(tables_doc.get("variants", {}))


def _fresh_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        word = "".join(rng.choice(FILLER_ALPHABET) for _ in range(rng.randint(6, 9)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def generate(workload: Workload, seed: int, data: Path, directory: Path) -> Inputs:
    """Write the workload's files under `directory`; same seed, same bytes."""
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    domain_doc = json.loads((data / "railway_domain.json").read_text(encoding="utf-8"))
    task_doc = json.loads((data / "railway_task.json").read_text(encoding="utf-8"))
    tables_doc = json.loads((data / "railway_tables.json").read_text(encoding="utf-8"))
    guarded = corpus_surfaces(data, tables_doc)
    prefixes = [rule["prefix"] for rule in tables_doc.get("clitics", [])]
    if any(p[:1] in FILLER_ALPHABET for p in prefixes):
        raise ValueError(f"a clitic prefix in {prefixes} could match generated surfaces")

    taken = set(guarded)
    for doc in (domain_doc, task_doc):
        taken.update(i["surface"] for i in doc["instances"])
        taken.update(t for r in doc["relations"] for t in r["triggers"])
    fillers = _fresh_words(rng, workload.filler_instances, taken)
    compound_parts = _fresh_words(rng, 2 * workload.filler_compounds, taken)
    variant_keys = _fresh_words(rng, workload.filler_variants, taken)
    noise_pool = _fresh_words(rng, workload.noise_pool, taken)
    generated = fillers + compound_parts + variant_keys + noise_pool
    collisions = guarded.intersection(generated)
    if collisions:
        raise ValueError(f"generated surfaces collide with the corpus: {sorted(collisions)[:5]}")

    concepts = sorted(c["name"] for c in domain_doc["concepts"])
    domain_doc["instances"] += [
        {"surface": s, "concepts": [rng.choice(concepts)]} for s in fillers
    ]
    tables_doc["compounds"] += [
        {"parts": compound_parts[2 * i:2 * i + 2]} for i in range(workload.filler_compounds)
    ]
    if fillers:
        tables_doc["variants"].update({k: rng.choice(fillers) for k in variant_keys})

    paths = {}
    for name, doc in (("domain", domain_doc), ("task", task_doc), ("tables", tables_doc)):
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")

    base_texts = _read_tsv(data / "mini_corpus.tsv")
    base_gold: dict[str, list[tuple[str, str]]] = {}
    for uid, _, surface, label in _read_tsv(data / "mini_corpus_gold.tsv"):
        base_gold.setdefault(uid, []).append((surface, label))

    order = [(copy, uid, text) for copy in range(workload.copies) for uid, text in base_texts]
    rng.shuffle(order)
    counts = list(workload.noise_words) * (len(order) // len(workload.noise_words) + 1)
    counts = counts[:len(order)]
    rng.shuffle(counts)

    utterances, base_of, gold_of = [], {}, {}
    corpus_lines = ["# ontosem raw corpus v1: id<TAB>text"]
    gold_lines = ["# ontosem gold corpus v1: utterance_id<TAB>token_index<TAB>surface<TAB>gold_label"]
    for (copy, base, text), n_noise in zip(order, counts):
        uid = f"{base}.{copy:04d}"
        noise = [rng.choice(noise_pool) for _ in range(n_noise)]
        text = " ".join([text, *noise])
        utterances.append((uid, text))
        corpus_lines.append(f"{uid}\t{text}")
        tokens = tuple(base_gold[base]) + tuple((w, OOV_LABEL) for w in noise)
        base_of[uid], gold_of[uid] = base, tokens
        gold_lines.extend(f"{uid}\t{i}\t{s}\t{label}" for i, (s, label) in enumerate(tokens))
        gold_lines.append("")
    corpus, gold = directory / "corpus.tsv", directory / "gold.tsv"
    corpus.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    gold.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")

    frozen = json.loads((data / "mini_corpus_report.json").read_text(encoding="utf-8"))
    noise_total = sum(counts)
    expected = {
        "counts": {k: v * workload.copies for k, v in frozen["counts"].items()},
        "per_concept": {
            label: {k: v * workload.copies for k, v in c.items()}
            for label, c in frozen["per_concept"].items()
        },
    }
    for record in (expected["counts"], expected["per_concept"][OOV_LABEL]):
        record["not_recognized"] += noise_total
        record["total"] += noise_total

    return Inputs(
        workload=workload,
        seed=seed,
        directory=directory,
        domain=paths["domain"],
        task=paths["task"],
        tables=paths["tables"],
        corpus=corpus,
        gold=gold,
        utterances=utterances,
        base_of=base_of,
        gold_of=gold_of,
        gold_tokens=expected["counts"]["total"],
        instances=len(domain_doc["instances"]) + len(task_doc["instances"]),
        compounds=len(tables_doc["compounds"]),
        expected=expected,
    )
