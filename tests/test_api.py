import inspect
import re
from functools import reduce
from pathlib import Path

import msum

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_section() -> str:
    text = README.read_text()
    start = text.index("## Library API\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def test_root_exports_match_the_readme_api_section():
    section = _api_section()
    rows = [line for line in section.splitlines()
            if line.startswith("|") and not line.startswith(("| topic", "| ---"))]
    listed = {name for row in rows for name in re.findall(r"`([A-Za-z_]\w*)`", row)}
    public = {name for name, value in vars(msum).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert listed == public
    # the qualified names the section points to resolve too
    for dotted in re.findall(r"`([a-z_]\w*(?:\.\w+)+)`", section):
        reduce(getattr, dotted.split("."), msum)
