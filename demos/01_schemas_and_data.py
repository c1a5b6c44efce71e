"""
Declaring schemas and loading cohort data
=========================================

Every column of a cohort is described by a VariableSchema: a name, one of
four kinds (real, nonnegative, ordinal, categorical), a domain for the
finite kinds, and a role (input or outcome). Cells may be MISSING, and
missingness is part of the data model rather than something to impute away.
"""

import tempfile
from pathlib import Path

from hetmix import (MISSING, OUTCOME, Dataset, VariableSchema,
                    missingness_profile, validate_dataset)
from hetmix.io import load_dataset, save_schemas, write_data_csv

# ------------------------------------------------------------------
# A four-column study: two lab values, a severity grade, and a site label.
schemas = (
    VariableSchema("crp", "nonnegative"),
    VariableSchema("temp", "real"),
    VariableSchema("grade", "ordinal", (1, 2, 3, 4), role=OUTCOME),
    VariableSchema("site", "categorical", ("north", "south", "west")),
)

rows = [
    (12.4, 37.9, 3, "north"),
    (0.0, 36.8, 1, "south"),
    (MISSING, 38.4, 4, "north"),
    (5.1, MISSING, 2, "west"),
    (3.3, 37.1, MISSING, "south"),
]
cohort = Dataset(schemas, rows)

print("subjects:", cohort.n_subjects)
print("inputs:", [schemas[v].name for v in cohort.input_columns])
print("outcomes:", [schemas[v].name for v in cohort.outcome_columns])

# validate_dataset returns one Violation per offending cell or column;
# an empty list means the cohort is usable for training.
problems = validate_dataset(cohort)
print("violations:", problems or "none")

# Per-variable observed counts, and the cohort-level missingness curve:
# subjects_with_at_least[m] counts subjects with m or more MISSING cells.
for j, schema in enumerate(schemas):
    observed = cohort.n_subjects - int(cohort.missing_mask(j).sum())
    print(f"  {schema.name}: {observed}/{cohort.n_subjects} observed")
profile = missingness_profile(cohort)
print("subjects with >= 1 missing cell:", profile.subjects_with_at_least[1])

# ------------------------------------------------------------------
# CSV round trip. Empty cells mean MISSING by default; schemas travel as
# a small JSON file next to the data.
with tempfile.TemporaryDirectory() as tmp:
    data_path = Path(tmp) / "cohort.csv"
    schema_path = Path(tmp) / "schema.json"
    write_data_csv(cohort, data_path)
    save_schemas(schemas, schema_path)
    print("\ncohort.csv:")
    print(data_path.read_text())

    reloaded, dropped = load_dataset(data_path, schema_path)
    assert all(reloaded.row(i) == cohort.row(i) for i in range(cohort.n_subjects))
    print("round trip ok, dropped columns:", dropped or "none")
