"""docs/config.md keeps up with the parser: the key table of each section
lists exactly the keys the parser reads, and the [data] text names every
[data] key."""

import re
from pathlib import Path

from sibsim.config import _KNOWN_KEYS

CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "config.md"


def _sections() -> dict[str, str]:
    parts = re.split(r"^## \[(\w+)\]$", CONFIG_DOC.read_text(encoding="utf-8"), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _table_keys(text: str) -> set[str]:
    """Backquoted names in the first cell of each table row."""
    return {
        key
        for line in text.splitlines()
        if line.startswith("| `")
        for key in re.findall(r"`(\w+)`", line.split("|")[1])
    }


def test_config_doc_tables_list_the_parsed_keys():
    sections = _sections()
    assert set(sections) == set(_KNOWN_KEYS)
    for name in ("grid", "run", "output", "sweep"):
        assert _table_keys(sections[name]) == _KNOWN_KEYS[name], name


def test_config_doc_names_every_data_key():
    text = _sections()["data"]
    missing = {key for key in _KNOWN_KEYS["data"] if not re.search(rf"\b{key}\b", text)}
    assert not missing
