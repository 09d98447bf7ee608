"""conftest.assert_golden, the one way the suite pins an output."""

import os
import re

import pytest

from conftest import DATA, assert_golden


def test_assert_golden_passes_the_same_bytes_and_fails_on_any_other():
    name = "sl21_ell3_nondeg.json"
    text = (DATA / name).read_bytes().decode()
    assert_golden(name, text)
    lines = text.splitlines(keepends=True)
    flipped = "".join(lines[:4]) + lines[4].replace('"', "'", 1) + "".join(lines[5:])
    assert len(flipped) == len(text)
    for changed, line in ((flipped, 5), (text[:-1], len(lines))):
        with pytest.raises(AssertionError) as failure:
            assert_golden(name, changed)
        message = str(failure.value)
        assert f"differs from its golden file at line {line};" in message
        assert "\n-" in message and "\n+" in message
        actual = re.search(r"the actual text is in (\S+)", message).group(1)
        try:
            with open(actual, "rb") as f:
                assert f.read() == changed.encode()
        finally:
            os.remove(actual)
