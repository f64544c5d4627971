"""EXPERIMENTS.md is exactly what ``tables.experiments_md`` renders from the
committed ``results/tables.json`` (no Spark session needed)."""
import json
from pathlib import Path

from repro import tables

ROOT = Path(__file__).resolve().parent.parent


def test_experiments_md_renders_committed_results():
    results = json.loads((ROOT / "results" / "tables.json").read_text(encoding="utf-8"))
    committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert tables.experiments_md(results) == committed
