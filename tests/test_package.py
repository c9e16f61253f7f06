"""The package's exports and the README's "Library layout" agree."""

import os
import re

import qhd

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_exports() -> dict:
    """module -> names, from the export list under "## Library layout"."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library layout", 1)[1].split("Implementation notes:", 1)[0]
    out = {}
    for item in re.findall(r"^- `(qhd\.\w+)`:(.*?)(?=^- |\Z)", section, re.M | re.S):
        out[item[0]] = re.findall(r"`(\w+)`", item[1])
    return out


def test_readme_lists_every_export_under_its_module():
    listed = readme_exports()
    assert sorted(n for names in listed.values() for n in names) == qhd.__all__
    for module, names in listed.items():
        for name in names:
            assert getattr(qhd, name).__module__ == module, name
