"""One test per headline criterion, each printing its own verdict line."""

import pytest

from deltoid.acceptance import CRITERIA, run_criterion

_IDS = [name for _, name, _ in CRITERIA]


@pytest.mark.parametrize(
    "number,name", [(num, name) for num, name, _ in CRITERIA], ids=_IDS
)
def test_criterion(number, name, capsys):
    res = run_criterion(number)
    with capsys.disabled():
        print()
        print(res.line())
    assert res.passed, f"criterion {number} {name}: {res.summary}"


def test_eigen_system_summary_counts_each_check_once():
    # residuals: three lam, every (p, q) with p + q <= 20, 231 each;
    # products: the 91 modes of degree <= 12 give 91 * 90 / 2 = 4095
    # distinct pairs per lam; norms: <P, P> = norm2 for those 91 modes
    res = run_criterion(4)
    assert res.summary == (f"{3 * 231} exact eigen residuals, {3 * 4095} zero products, "
                           f"{3 * 91} exact norms")
