"""README checks: the library quickstart runs as printed, and the package
root exports exactly the library names the README documents."""

from __future__ import annotations

import os
import re
import types

import heavyroots

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(_README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_quickstart_runs(capsys):
    section = _readme().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, "README.md quickstart", "exec"), scope)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and set(printed) <= {"True", "False"}
    # the prose after the block quotes the largest modulus, exp(2.7e240)
    assert f"{scope['vec'].lm.max():.1e}" == "2.7e+240"
    assert "exp(2.7e240)" in section


def test_package_root_exports_the_documented_names():
    listing = re.search(r"The package root re-exports (.*?);", _readme(), re.S)
    documented = re.findall(r"`(\w+)`", listing.group(1))
    public = [
        name
        for name, value in vars(heavyroots).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(heavyroots.__all__) == sorted(public) == sorted(documented)
