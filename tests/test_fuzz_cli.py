"""Hypothesis fuzzers through `cli.main`, in process: ring specs, poset text,
`multiply` element JSON and `reconstruct` table JSON; and the report writer,
whose bytes must be `json.dumps`' whatever the report.

Whatever the input, `main` returns 0, 1 or 2 and no exception escapes it;
exit 2 leaves exactly one `error:` line on stderr.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from flagalg import cli
from flagalg.algebra import AlgebraContext, structure_constants
from flagalg.posets import enumerate_posets
from flagalg.rings import ring_from_spec

CHAIN2 = "elements: a b\ncovers:\na b\n"
UNIT = '[[[0,0,1],"1"]]'

RINGS = ["Q", "Z", "Fp:2", "Fp:3", "Fp:262139", "Zm:6", "R"]
FIELDS = ["Q", "Fp:2", "Fp:3"]


def mostly(good, bad):
    """`good` three times in four, else `bad`: most inputs should get past
    the parsers into the pipeline."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
scalars = mostly(
    st.sampled_from(["1", "-2", "1/3", "2", "0"]),
    st.sampled_from(["1/0", "2.5", "1e5", "nan", "0x10", " 3 ", ""]) | st.text(max_size=6),
)


def run_main(command, data, *options):
    """cli.main([command, FILE, *options]) with `data` in FILE, held to the
    exit-code contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), *options])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from(RINGS)
    | st.text(max_size=12)
    | st.builds(
        "{}{}".format,
        st.sampled_from(["Fp:", "Zm:", " Fp:", "fp:", "Fp:+", "Fp:-", "Zm:0x", "Fp:٣"]),
        st.integers(-3, 40).map(str) | st.integers(-(10**30), 10**30).map(str) | st.text(max_size=5),
    )
)
def test_ring_specs(spec):
    run_main("multiply", CHAIN2.encode(), f"--ring={spec}", f"--lhs={UNIT}", f"--rhs={UNIT}")


@st.composite
def poset_files(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
    names = draw(
        mostly(
            st.lists(st.sampled_from(["a", "b", "c", "d", "é"]), unique=True, max_size=4),
            st.lists(st.text(alphabet="ab#: é", max_size=3), max_size=5),
        )
    )
    head = draw(mostly(st.just("elements:"), st.sampled_from(["elements", "# elements:", ""])))
    lines = [f"{head} {' '.join(names)}"]
    lines += draw(mostly(st.just(["covers:"]), st.sampled_from([[], ["covers"], ["# note", "covers:"]])))
    tokens = st.sampled_from(names) if names else st.text(max_size=2)
    pairs = mostly(st.lists(tokens, min_size=2, max_size=2), st.lists(tokens, max_size=3))
    lines += draw(st.lists(pairs.map(" ".join), max_size=5))
    return "\n".join(lines).encode()


@settings(max_examples=150, deadline=None)
@given(
    poset=poset_files(),
    ring=st.sampled_from(RINGS),
    n=mostly(st.integers(2, 4), st.integers(-1, 1) | st.integers(cli.MAX_FLAG_ORDER + 1, 10**6)),
)
def test_poset_text(poset, ring, n):
    run_main("multiply", poset, f"--ring={ring}", f"--n={n}", "--lhs=[]", "--rhs=[]")


BASIS = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]]  # of the 2-chain's third flag algebra
terms = st.tuples(st.sampled_from(BASIS), scalars).map(list)
elements = mostly(
    st.lists(terms, unique_by=lambda t: tuple(t[0]), max_size=4).map(json.dumps),
    st.lists(st.tuples(st.lists(st.integers(-1, 2), max_size=4), scalars).map(list), max_size=4).map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=30),
)


@settings(max_examples=150, deadline=None)
@given(lhs=elements, rhs=elements, ring=st.sampled_from(RINGS))
def test_multiply_elements(lhs, rhs, ring):
    run_main("multiply", CHAIN2.encode(), f"--ring={ring}", f"--lhs={lhs}", f"--rhs={rhs}")


PLAIN = [
    json.loads(structure_constants(AlgebraContext(p, 3, ring_from_spec(ring))).to_json())
    for ring in FIELDS
    for m in (1, 2, 3)
    for p in enumerate_posets(m)
]


@st.composite
def redrawn_flag_tables(draw):
    """A flag-algebra table with the product of one basis pair redrawn."""
    data = draw(st.sampled_from(PLAIN))
    dim = data["dim"]
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    entry = draw(st.lists(st.tuples(st.integers(0, dim - 1), scalars).map(list), unique_by=lambda t: t[0], max_size=2))
    table = [e for e in data["table"] if e[:2] != [i, j]] + [[i, j, entry]]
    return json.dumps(dict(data, table=table)), data["ring"]


@st.composite
def tables(draw):
    """Small random tables, and anything else."""
    if draw(st.integers(0, 3)) == 0:
        return draw(json_values.map(json.dumps) | st.text(max_size=40)), draw(st.sampled_from(RINGS))
    ring = draw(mostly(st.sampled_from(FIELDS), st.sampled_from(RINGS)))
    dim = draw(mostly(st.integers(1, 5), st.sampled_from([-1, 0, 10**6, "2", None, 2.0, True])))
    index = mostly(st.integers(0, dim - 1), st.integers(-1, 6)) if type(dim) is int and dim > 0 else st.integers(-1, 6)
    entry = st.tuples(index, index, st.lists(st.tuples(index, scalars).map(list), max_size=3)).map(list)
    data = {
        "dim": dim,
        "ring": draw(mostly(st.just(ring), st.sampled_from(RINGS) | json_values)),
        "table": draw(
            mostly(
                st.lists(entry, unique_by=lambda e: tuple(e[:2]), min_size=3, max_size=12),
                st.lists(entry | json_values, max_size=4),
            )
        ),
    }
    return json.dumps(data), ring


@settings(max_examples=150, deadline=None)
@given(table=redrawn_flag_tables() | tables())
def test_reconstruct_tables(table):
    text, ring = table
    run_main("reconstruct", text.encode(), f"--ring={ring}")


report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7fé€😀')),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(body=st.dictionaries(st.text(max_size=4), report_values, max_size=4), pad=st.integers(0, 3 * 4096))
def test_emit_writes_the_bytes_of_dumps(body, pad):
    # a list of pad ints spans several 4096-chunk writes, with drawn values
    # on both sides of it
    report = {"head": body, "pad": list(range(pad)), "tail": body}
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(report, None)
    assert out.getvalue() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "report.json"
        cli._emit(report, str(path))
        assert path.read_bytes() == expected.encode()
