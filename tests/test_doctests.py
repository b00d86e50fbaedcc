import doctest
import importlib

import pytest


@pytest.mark.parametrize("module", ["words", "polygon", "moves", "rays", "subword", "exactla", "cli"])
def test_doctests(module):
    result = doctest.testmod(importlib.import_module(f"multifan.{module}"))
    assert result.failed == 0 and result.attempted > 0
