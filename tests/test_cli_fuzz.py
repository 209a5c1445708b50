"""CLI fuzz: no small argument vector ends in a traceback.

Every `cli.main` call returns 0, returns 1 with the JSON error object on
stderr, or exits 2 (an argparse usage error).  hypothesis draws the
vectors with derandomize=True, so every run tries the same ones.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bchlab import cli

# prime powers, odd non-prime-powers and values below the domain, a
# third each
QS = st.one_of(st.sampled_from([3, 5, 7, 9, 11, 25, 27]),
               st.sampled_from([15, 21]), st.sampled_from([0, 1, 2, -3]))
MS = st.one_of(st.sampled_from([2, 3]), st.sampled_from([-1, 0, 1]))
FAMILIES = ["cyclic", "negacyclic"]

q = QS.map(str)
m = MS.map(str)
family = st.sampled_from(FAMILIES)
delta = st.one_of(st.integers(2, 12), st.integers(-2, 40)).map(str)
fmt = st.sampled_from([[], ["--format", "text"]])
flag = st.sampled_from


def command(*parts):
    """A strategy for argv: the parts concatenated (each a list of str)."""
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def one(strategy):
    return strategy.map(lambda a: [a])


ARGV = st.one_of(
    command(st.just(["cosets"]), one(q), one(st.integers(-2, 40).map(str)),
            flag([[], ["--odd"]]), fmt),
    command(st.just(["leaders"]), one(q), one(m), flag([[], ["--odd"]]),
            st.one_of(st.just([]), one(st.integers(-1, 5).map(str)).map(
                lambda c: ["--count"] + c)), fmt),
    command(st.just(["code-info"]), one(q), one(m), one(family), one(delta),
            flag([[], ["0"], ["2"]]), fmt),
    command(st.just(["bound"]), one(q), one(m), one(family), one(delta),
            flag([[], ["--no-oracle"]]), fmt),
    command(st.just(["dually"]), one(q), one(m), one(family),
            st.tuples(st.integers(-2, 30), st.integers(-2, 30)).map(
                lambda r: [f"--delta-range={r[0]}..{r[1]}"]),
            flag([[], ["--no-oracle"]]), fmt),
    command(st.just(["sweep"]),
            one(st.lists(QS, min_size=1, max_size=2).map(
                lambda qs: ",".join(map(str, qs)))),
            one(st.lists(MS, min_size=1, max_size=2).map(
                lambda ms: ",".join(map(str, ms)))),
            one(st.sampled_from(FAMILIES + ["both"]))),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
# non-prime-power q that once ended in a ValueError traceback
@example(["code-info", "15", "2", "cyclic", "2"])
@example(["code-info", "21", "2", "cyclic", "3"])
@example(["code-info", "35", "2", "negacyclic", "2"])
def test_cli_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, (argv, err.getvalue())
            return
    assert code in (0, 1), argv
    if code == 1:
        assert json.loads(err.getvalue())["error"]["type"], argv
