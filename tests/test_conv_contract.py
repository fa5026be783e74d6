"""Property-based contract of `hyperex conv` over the whole float range.

Every input the parser accepts ends either in exit 0 with a six-key JSON
report that parses without NaN or infinity and reruns byte-identically, or
in exit 2 with empty stdout and one `hyperex:` line on stderr.  Numpy and
Python warnings are raised as errors, so a warning fails the property too.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperex.cli import main

REPORT_KEYS = {"command", "inputs", "outputs", "error_estimates", "seed", "wall_time_ms"}

# Magnitudes log-uniform from the subnormals to the edge of the float range,
# next to hypothesis' own float draws, which favour simple and extreme values.
MAGNITUDES = st.floats(-323.0, 308.2).map(lambda e: 10.0**e)
SCALES = st.one_of(st.floats(0.1, 10.0), MAGNITUDES,
                   st.floats(min_value=5e-324, max_value=1.7e308))
COMPONENTS = st.one_of(
    st.floats(-10.0, 10.0),
    st.tuples(st.sampled_from([1.0, -1.0]), MAGNITUDES).map(lambda p: p[0] * p[1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def conv_argv(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([2, 3]))
    s = draw(SCALES)
    xi = draw(st.lists(COMPONENTS, min_size=d, max_size=d))
    if draw(st.booleans()):
        # |xi| on the scale of s, where m is not lost to rounding in tau.
        xi = [s * c for c in xi]
    if draw(st.booleans()):
        # m = n s (1 + 10^-k): inside, near, or within rounding of the support
        # boundary, where the oracle loses its chord.
        k = draw(st.integers(-3, 17))
        tau = math.hypot(n * s * (1.0 + 10.0**-k), *xi)
    else:
        tau = draw(COMPONENTS)
    assume(math.isfinite(tau) and all(map(math.isfinite, xi)))
    method = draw(st.sampled_from(["closed", "oracle"]))
    # --flag=value, so that argparse reads a negative value as a value.
    return ["conv", f"--d={d}", f"--n={n}", f"--s={s!r}",
            "--xi=" + ",".join(map(repr, xi)), f"--tau={tau!r}",
            f"--method={method}", "--json", "--no-meta"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(conv_argv())
def test_conv_exits_with_a_report_or_one_refusal_line(argv):
    rc, out, err = run(argv)
    assert rc in (0, 2)
    if rc == 2:
        assert out == ""
        assert err.startswith("hyperex: ") and err.count("\n") == 1
        return
    assert err == ""
    report = json.loads(out, parse_constant=refuse_constant)
    assert set(report) == REPORT_KEYS
    assert run(argv) == (rc, out, err)
