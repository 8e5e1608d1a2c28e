"""Byte-for-byte `lrcav curves` CSVs at grid 200.

One table for each of the 12 (r, t) pairs that the curves benchmark
tabulates.  The digests were recorded with the plain gamma bisection, so
a faster expansion solver keeps this test passing as it stands only if it
returns the same floats at every grid point.
"""

import contextlib
import hashlib
import io

import pytest

from lrcav import cli

DIGESTS = {
    (2, 2): "07cca771f3fa6aa8e58f8803ed9d120852f6636bebccb6c540434c98765336bb",
    (3, 2): "82e8c76a1ade010bd7659bc2b41b1d18f78effd3791a133367cc586288319924",
    (4, 2): "f986befea82b1cf1f672f8c9d25b772dca8cb8e38ba92979a2a8d91bc3337f82",
    (5, 2): "790bac1a4bbb86469f7a03ad18e4d316083067de29e3c0c5a7ba0da2ff225c19",
    (6, 2): "fe3fc7a0bd675f3caaf5d2b748be17748247d09f1a7cf1bdf3bf3c3a50ca9a55",
    (3, 3): "6338a4a114793938cd8c93954a392f47b7713b363e8005044e0ea6184c23ae84",
    (4, 3): "c1d2fe7853a77b59e33d3639a331668f65c0686859e3911cd9cff879e4e9bdda",
    (5, 3): "1327a845d19ed5a4e2cc6f9a37541b8d81a26abf08690b0a7f5163f968f5f7a2",
    (6, 3): "4542c10d9a752e443c7df10c3adda441d33d2737dc833a9c0d11a79f272d1db0",
    (4, 4): "107bb18a34b76dbabb3da125ff0726311a6d00f932e512e17da7c794efae66f0",
    (5, 4): "14b66742f7e3696adbdd5871b824468e9b7a62e33b7f16b57cd0183efa470b96",
    (6, 4): "4a943379856d5636727ab2ac5edad3dc4d0be223de1b985e5577702032cf8fb9",
}


@pytest.mark.parametrize("r, t", sorted(DIGESTS))
def test_curves_csv_at_grid_200_is_unchanged(tmp_path, r, t):
    out = tmp_path / "curves.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["curves", "--r", str(r), "--t", str(t), "--grid", "200",
                         "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[(r, t)]
