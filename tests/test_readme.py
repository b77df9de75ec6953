"""The README quick start runs as written."""

import doctest
import os

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_python_block_passes_doctest():
    with open(README) as fh:
        text = fh.read()
    fence = "```python\n"
    start = text.index(fence) + len(fence)
    # only the block itself: doctest would read the closing fence as output
    block = text[start:text.index("```", start)]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", README, text.count("\n", 0, start))
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.tries > 0
    assert runner.failures == 0
