"""The values behind the passing reports are pinned, not only their counts.

tests/data/make_value_digest.py hashes every closed and oracle product on
the schur-oracle grid (n = 2, 3; r <= 3) and every hecke-assoc product at
r = 2, 3.  A refactor must leave the digest unchanged.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_value_digest", DATA / "make_value_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_value_digest_is_unchanged():
    want = json.loads((DATA / "value_digest.json").read_text())
    assert _generator().value_digest() == want
