"""Every test starts and ends with empty per-process tables.

So no test depends on what an earlier test sampled or wrote, and no test
leaves warm tables to a test of another directory run in the same process.
Emptying the band memo also empties outputs._bands_csv, whose entries live
only as long as the band structures they were written from.
"""

import pytest

from bandrec import cli, symbols


def _empty_tables():
    symbols._band_memo.clear()
    cli.build_parser.cache_clear()


@pytest.fixture(autouse=True)
def empty_tables():
    _empty_tables()
    yield
    _empty_tables()
