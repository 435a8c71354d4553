"""Shared helpers for the experiment benchmarks (E1-E13).

Every benchmark prints its experiment table (visible with ``-s``) and saves
it under ``benchmarks/out/`` (gitignored scratch: no table is kept in the
repository).  Since the sweep-engine refactor the *source of truth* is
machine-readable:
benches either run their grids through :mod:`repro.runtime` and render the
tables from the JSON records (``save_sweep``), or dump their bespoke row
data as JSON next to the text table (``save_json``).

Persistence is idempotent: tables are keyed by title and JSON payloads by
key, and a re-run *replaces* its own sections in place.  Re-running can
never accumulate duplicates, and re-running a single parametrization keeps
the other cells' saved output intact.
"""

from __future__ import annotations

import json
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


def _sections(text: str) -> dict[str, str]:
    """Split a saved tables file into {title: rendered table} (order kept)."""
    out: dict[str, str] = {}
    title, lines = None, []
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            if title is not None:
                out[title] = "\n".join(lines).rstrip()
            title, lines = line[3:-3], [line]
        elif title is not None:
            lines.append(line)
    if title is not None:
        out[title] = "\n".join(lines).rstrip()
    return out


@pytest.fixture(scope="session")
def save_table():
    """Print a Table and persist its rendering to benchmarks/out/<name>.txt.

    Sections are replaced by table title, so re-runs update in place
    instead of appending duplicates.
    """

    def _save(table, name: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        text = table.render()
        print("\n" + text)
        path = OUT_DIR / f"{name}.txt"
        sections = _sections(path.read_text()) if path.exists() else {}
        sections[table.title] = text
        path.write_text("\n\n".join(sections.values()) + "\n")

    return _save


@pytest.fixture(scope="session")
def save_json():
    """Merge a JSON-serializable payload into benchmarks/out/<name>.json.

    Each benchmark name maps to one JSON document ``{key: payload, ...}``;
    saving an existing key replaces it.
    """

    def _save(payload, name: str, key: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[key] = payload
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    return _save


@pytest.fixture(scope="session")
def save_sweep(save_json):
    """Persist sweep-engine results as the JSON document for a benchmark."""

    def _save(results, name: str, key: str, grid=None, timing: bool = False) -> None:
        from repro.runtime import results_to_dict

        save_json(results_to_dict(results, grid=grid, timing=timing), name, key)

    return _save
