"""Seeded synthetic questionnaire corpus for the benchmark.

`write_corpus(directory, seed, rows)` writes three files that the package
reads the way a user would hand them over:

- responses.csv: id, Q1..Q22 (choice letters), sloc:C/Java/Python, duration,
  developers, defects;
- schema.json: a level override that makes NOMINAL_ITEMS nominal;
- gearing.json: source lines per function point for the three languages.

Ln(Defect) carries planted signal on ln(FP), ln(Duration) and PLANTED_ITEMS;
every other item is noise. About 1% of the cells are blank: blank sloc cells
mean "language unused" and keep the row, a blank answer or metric cell gets
the row removed at ingest, and so does a row whose three sloc cells are all
blank. The generator knows which rows those are and returns the expected
kept and removed counts. The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

# choice-set sizes of the fixed 22-item questionnaire
CHOICES = {
    "Q1": 3, "Q2": 6, "Q3": 4, "Q4": 5, "Q5": 3, "Q6": 3, "Q7": 3, "Q8": 4,
    "Q9": 5, "Q10": 5, "Q11": 5, "Q12": 3, "Q13": 3, "Q14": 2, "Q15": 5,
    "Q16": 2, "Q17": 2, "Q18": 5, "Q19": 5, "Q20": 5, "Q21": 3, "Q22": 4,
}
NOMINAL_ITEMS = ("Q1", "Q4", "Q6", "Q7", "Q12", "Q15", "Q19", "Q21")
# additive effect on Ln(Defect) per choice; Q7 is nominal and non-monotone
PLANTED_ITEMS = {
    "Q2": (0.0, 0.08, 0.16, 0.24, 0.32, 0.40),
    "Q7": (0.0, 0.30, -0.20),
    "Q9": (0.0, 0.0, 0.15, 0.25, 0.30),
    "Q18": (0.20, 0.10, 0.0, -0.10, -0.20),
}
PLANTED_PREDICTORS = tuple(PLANTED_ITEMS) + ("Ln(FP)", "Ln(Duration)")
GEARING = {"C": 100, "Java": 50, "Python": 40}

SLOC_BLANK = 0.08  # per sloc cell: the project does not use that language
CELL_BLANK = 0.0004  # per answer or metric cell: a missing response


def generate(seed: int, rows: int) -> tuple[str, dict]:
    """Return (responses CSV text, expected ingest counts) for one seed."""
    rng = np.random.default_rng(seed)
    letters = "ABCDEF"
    answers = {q: rng.integers(0, c, size=rows) for q, c in CHOICES.items()}

    sloc = {lang: np.rint(np.exp(rng.normal(8.8, 0.7, size=rows))).astype(int) + 100
            for lang in GEARING}
    sloc_blank = {lang: rng.random(rows) < SLOC_BLANK for lang in GEARING}
    fp = sum(np.where(sloc_blank[lang], 0, sloc[lang]) / GEARING[lang] for lang in GEARING)
    all_blank = np.all([sloc_blank[lang] for lang in GEARING], axis=0)
    ln_fp = np.log(np.where(all_blank, 1.0, fp))

    duration = np.round(np.exp(0.3 * ln_fp + rng.normal(0.4, 0.5, size=rows)), 1)
    duration = np.maximum(duration, 0.5)
    developers = np.maximum(1, np.rint(np.exp(0.4 * ln_fp + rng.normal(-0.5, 0.4, size=rows)))).astype(int)
    ln_defect = -1.0 + 0.55 * ln_fp + 0.35 * np.log(duration) + rng.normal(0.0, 0.35, size=rows)
    for q, effect in PLANTED_ITEMS.items():
        ln_defect += np.asarray(effect)[answers[q]]
    defects = np.maximum(1, np.rint(np.exp(ln_defect))).astype(int)

    cell_blank = {name: rng.random(rows) < CELL_BLANK
                  for name in (*CHOICES, "duration", "developers", "defects")}
    removed = all_blank | np.any(list(cell_blank.values()), axis=0)

    header = ["id", *CHOICES, *(f"sloc:{lang}" for lang in GEARING),
              "duration", "developers", "defects"]
    columns = [[str(i + 1) for i in range(rows)]]
    for q in CHOICES:
        col = [letters[a] for a in answers[q]]
        columns.append(_blank(col, cell_blank[q]))
    for lang in GEARING:
        columns.append(_blank([str(v) for v in sloc[lang]], sloc_blank[lang]))
    columns.append(_blank([f"{v:.1f}" for v in duration], cell_blank["duration"]))
    columns.append(_blank([str(v) for v in developers], cell_blank["developers"]))
    columns.append(_blank([str(v) for v in defects], cell_blank["defects"]))
    lines = [",".join(header)] + [",".join(cells) for cells in zip(*columns)]
    expected = {"rows": rows, "rows_removed": int(removed.sum()),
                "rows_kept": int(rows - removed.sum())}
    return "\n".join(lines) + "\n", expected


def _blank(cells: list, mask) -> list:
    return ["" if m else c for c, m in zip(cells, mask)]


def write_corpus(directory, seed: int, rows: int) -> dict:
    """Write responses.csv, schema.json and gearing.json; return paths and counts."""
    text, expected = generate(seed, rows)
    paths = {name: os.path.join(directory, name)
             for name in ("responses.csv", "schema.json", "gearing.json")}
    with open(paths["responses.csv"], "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with open(paths["schema.json"], "w", encoding="utf-8") as fh:
        json.dump({"levels": {q: "nominal" for q in NOMINAL_ITEMS}}, fh, indent=2)
    with open(paths["gearing.json"], "w", encoding="utf-8") as fh:
        json.dump({"factors": GEARING}, fh, indent=2)
    return {**paths, **expected}
