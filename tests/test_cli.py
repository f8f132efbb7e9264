"""Command line harness: exit codes, determinism, report shapes."""

import contextlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from isomorphism_oracle import enumerate_isomorphisms_exhaustive

from flagalg import cli, derivations, reconstruction, suites
from flagalg.algebra import AlgebraContext, StructureConstants, structure_constants
from flagalg.lattice import SplittingError
from flagalg.linalg import span
from flagalg.posets import MAX_POSET_SIZE, Poset, chain, enumerate_posets
from flagalg.reconstruction import ReconstructionError, reconstruct_poset, scramble
from flagalg.rings import PrimeField, Rationals, ring_from_spec

DATA = pathlib.Path(__file__).parent / "data"

CHAIN2 = "elements: a b\ncovers:\na b\n"
WRITE_ERRORS = {"/dev/full": "[Errno 28] No space left on device", "pipe": "[Errno 32] Broken pipe"}
ZERO_TABLE = '{"dim":2,"ring":"Q","table":[]}'


def full_associativity_scan(table):
    """(ab)c == a(bc) on all d^3 triples of basis vectors of a table."""
    e = [{i: table.ring.one()} for i in range(table.dim)]
    mul = table.multiply
    return all(mul(mul(a, b), c) == mul(a, mul(b, c)) for a in e for b in e for c in e)


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "flagalg.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def chain_file(tmp_path, m):
    """The path of a new file holding the m-chain x0 < x1 < ... under tmp_path."""
    names = [f"x{i}" for i in range(m)]
    f = tmp_path / f"chain{m}.poset"
    f.write_text(f"elements: {' '.join(names)}\ncovers:\n" + "".join(f"{x} {y}\n" for x, y in zip(names, names[1:])))
    return str(f)


@pytest.fixture
def chain2(tmp_path):
    f = tmp_path / "chain2.poset"
    f.write_text(CHAIN2)
    return str(f)


@pytest.fixture
def zero_table(tmp_path):
    f = tmp_path / "zero.json"
    f.write_text(ZERO_TABLE)
    return str(f)


class TestCheck:
    def test_passes_on_chain(self, chain2):
        r = run_cli("check", chain2)
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert all(t["status"] == "pass" for p in report["posets"] for t in p["theorems"])

    def test_all_up_to(self):
        r = run_cli("check", "--all-up-to", "2")
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert len(report["posets"]) == 3  # sizes 1 and 2

    def test_empty_poset_passes(self, tmp_path, capsys):
        f = tmp_path / "empty.poset"
        f.write_text("elements:\ncovers:\n")
        assert cli.main(["check", str(f)]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["posets"]
        assert entry["size"] == 0
        assert [t["status"] for t in entry["theorems"]] == ["pass"] * 9

    def test_deterministic_reports(self):
        runs = [run_cli("check", "--all-up-to", "3", "--ring", "Q", "--seed", "7") for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    def test_out_file(self, chain2, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("check", chain2, "--out", str(out))
        assert r.returncode == 0
        plain = run_cli("check", chain2)
        assert json.loads(out.read_text()) == json.loads(plain.stdout)

    @pytest.mark.parametrize(
        "args, golden, code, summary",
        [
            (["--ring", "Z"], "check_all3_z.json", 2, "over Z: 48/72"),
            (["--ring", "Fp:3", "--seed", "2"], "check_all3_fp3_seed2.json", 0, "over Fp:3: 72/72"),
            (["--ring", "Q"], "check_all3_q.json", 0, "over Q: 72/72"),
            (["--ring", "Fp:2"], "check_all3_fp2.json", 0, "over Fp:2: 72/72"),
        ],
        ids=["Z", "Fp3-seed2", "Q", "Fp2"],
    )
    def test_report_is_pinned(self, args, golden, code, summary):
        # the Z and Fp:3 golden reports were written by the code before the
        # suites shared one context and one plain-table reconstruction, the Q
        # and Fp:2 ones by the code before the oracle became a table; over
        # F_2 a product coefficient of 2 would vanish
        r = run_cli("check", "--all-up-to", "3", *args)
        assert r.returncode == code
        assert r.stdout == (DATA / golden).read_text()
        assert r.stderr == f"check: 8 poset(s) {summary} theorem checks passed\n"

    def test_f2_antichain_of_40_splits(self, tmp_path):
        # F2^40 needs 39 binary splits: over F_2 an element has at most two eigenvalues
        f = tmp_path / "antichain40.poset"
        f.write_text("elements: " + " ".join(f"a{i}" for i in range(40)) + "\ncovers:\n")
        start = time.perf_counter()
        r = run_cli("check", str(f), "--ring", "Fp:2")
        assert time.perf_counter() - start < 10
        assert r.returncode == 0
        statuses = [t["status"] for t in json.loads(r.stdout)["posets"][0]["theorems"]]
        assert statuses == ["pass"] * 9

    def test_three_chain_over_a_31_bit_prime(self, tmp_path):
        # a scan of all p residues per minimal polynomial ran past 60 s here
        f = tmp_path / "chain3.poset"
        f.write_text("elements: a b c\ncovers:\na b\nb c\n")
        start = time.perf_counter()
        r = run_cli("check", str(f), "--ring", "Fp:2147483647")
        assert time.perf_counter() - start < 10
        assert r.returncode == 0
        statuses = [t["status"] for t in json.loads(r.stdout)["posets"][0]["theorems"]]
        assert statuses == ["pass"] * 9

    def test_splitting_failure_is_reported(self, monkeypatch):
        # a flag algebra always splits, so a splitting failure is a fail
        def broken(sc):
            raise SplittingError("probe has a repeated root")

        monkeypatch.setattr(reconstruction, "primitive_idempotents", broken)
        failed = {"diagnostic": "element quotient did not split: probe has a repeated root"}
        assert suites.suite_reconstruction(AlgebraContext(chain(2), 3, Rationals()), 0) == [
            {"theorem": "idempotent-counts", "status": "fail", "counterexample": failed},
            {"theorem": "reconstruction-roundtrip", "status": "fail", "counterexample": failed},
        ]

    def test_closed_form_mismatch_is_reported(self):
        # an extra term where the oracle product is zero, then a changed
        # coefficient at a later pair: the first pair in (i, j) order is named
        ctx = AlgebraContext(chain(2), 3, Rationals())
        i = ctx.index
        table = dict(structure_constants(ctx).table)
        table[(i[(0, 1, 1)], i[(1, 1, 1)])] = [(i[(0, 1, 1)], Fraction(2))]
        table[(i[(0, 1, 1)], i[(0, 0, 1)])] = [(i[(0, 0, 1)], Fraction(1))]
        ctx._sc = StructureConstants(ctx.dim, ctx.ring, table)
        entry = suites.suite_flag_algebra(ctx)[0]
        assert entry == {
            "theorem": "product-closed-form",
            "status": "fail",
            "counterexample": [[0, 1, 1], [0, 0, 1]],
        }

    def test_reconstruction_failure_is_reported(self, monkeypatch):
        def broken(algebra):
            raise ReconstructionError("C1*C2 is not contained in C2")

        monkeypatch.setattr(suites, "reconstruct_poset", broken)
        failed = {"diagnostic": "C1*C2 is not contained in C2"}
        assert suites.suite_reconstruction(AlgebraContext(chain(2), 3, Rationals()), 0) == [
            {"theorem": "idempotent-counts", "status": "fail", "counterexample": failed},
            {"theorem": "reconstruction-roundtrip", "status": "fail", "counterexample": failed},
        ]

    def test_one_reconstruction_per_poset(self, monkeypatch):
        # both theorems read the reconstruction of the scrambled table; the
        # plain table is not reconstructed as well
        tables = []

        def counted(algebra):
            tables.append(algebra.sc)
            return reconstruct_poset(algebra)

        monkeypatch.setattr(suites, "reconstruct_poset", counted)
        ctx = AlgebraContext(chain(3), 3, Rationals())
        assert [e["status"] for e in suites.suite_reconstruction(ctx, 0)] == ["pass", "pass"]
        assert len(tables) == 1
        assert tables[0].table != structure_constants(ctx).table

    def test_power_associativity_failure_is_reported(self, chain2, monkeypatch, capsys):
        monkeypatch.setattr(suites, "power_assoc_witness", lambda ctx: None)
        entry = suites.suite_flag_algebra(AlgebraContext(chain(2), 3, Rationals()))[1]
        assert entry == {
            "theorem": "power-associativity",
            "status": "fail",
            "counterexample": "third-power associativity held unexpectedly",
        }
        assert cli.main(["check", chain2]) == 1
        assert capsys.readouterr().err == "check: 1 poset(s) over Q: 8/9 theorem checks passed\n"

    def test_antichain_nonassociativity_is_reported(self):
        # e0 e0 = e1 and e1 e0 = e0, so (e0 e0) e0 = e0 but e0 (e0 e0) = 0
        ctx = AlgebraContext(Poset.from_covers(2, []), 3, Rationals())
        ctx._oracle = StructureConstants(2, ctx.ring, {(0, 0): [(1, 1)], (1, 0): [(0, 1)]})
        entry = suites.suite_flag_algebra(ctx)[1]
        assert entry == {"theorem": "power-associativity", "status": "fail"}

    def test_sparse_antichain_scan_matches_the_full_scan(self):
        # the suite multiplies only the triples with ab != 0 or bc != 0; on
        # seeded changes of one or two products of the 3-antichain's oracle
        # table it must agree with the full d^3 scan, and among them are
        # failures that only a triple with ab = 0, or with bc = 0, shows
        rng = random.Random(0)
        ring = Rationals()
        verdicts = []
        for _ in range(200):
            ctx = AlgebraContext(Poset.from_covers(3, []), 3, ring)
            table = dict(ctx.oracle_table().table)
            for _ in range(rng.randint(1, 2)):
                table[rng.randrange(3), rng.randrange(3)] = [(rng.randrange(3), ring.coerce(rng.choice([-1, 1, 2])))]
            ctx._oracle = StructureConstants(3, ring, table)
            full = "pass" if full_associativity_scan(ctx._oracle) else "fail"
            assert suites.suite_flag_algebra(ctx)[1] == {"theorem": "power-associativity", "status": full}
            verdicts.append(full)
        assert set(verdicts) == {"pass", "fail"}

    def test_one_sided_identity_is_reported(self, monkeypatch):
        def identity(sc, side):
            return {0: sc.ring.one()} if side == "left" else None

        monkeypatch.setattr(StructureConstants, "identity", identity)
        entry = suites.suite_flag_algebra(AlgebraContext(chain(2), 3, Rationals()))[2]
        assert entry == {
            "theorem": "no-one-sided-identity",
            "status": "fail",
            "counterexample": {"left": True, "right": False},
        }

    def test_wrong_commutator_chain_is_reported(self, monkeypatch):
        # C1 = C2 = C3 = A, against rank J1 = 2, J2 = 0 and
        # span{e_001 + e_011} + J2 of rank 1 in the 2-chain's algebra
        def whole_algebra(ctx):
            whole = span([{i: ctx.ring.one()} for i in range(ctx.dim)], ctx.ring, ctx.dim)
            return whole, whole, whole

        monkeypatch.setattr(suites, "z_chain", whole_algebra)
        assert suites.suite_submodules(AlgebraContext(chain(2), 3, Rationals())) == [
            {"theorem": "commutator-is-J1", "status": "fail", "counterexample": {"rank_C1": 4, "rank_J1": 2}},
            {
                "theorem": "zchain-C2-span",
                "status": "fail",
                "counterexample": {"rank_C2": 4, "rank_span": 1, "rank_C1sq": 4},
            },
            {"theorem": "zchain-C3-is-J2", "status": "fail", "counterexample": {"rank_C3": 4, "rank_J2": 0}},
        ]

    def test_wrong_idempotent_counts_are_reported(self, monkeypatch):
        # the recovered poset is right, but no lifts came with it
        monkeypatch.setattr(suites, "reconstruct_poset", lambda algebra: (chain(2), [], []))
        assert suites.suite_reconstruction(AlgebraContext(chain(2), 3, Rationals()), 0) == [
            {
                "theorem": "idempotent-counts",
                "status": "fail",
                "counterexample": {"elements": 0, "expected_elements": 2, "covers": 0, "expected_covers": 1},
            },
            {"theorem": "reconstruction-roundtrip", "status": "pass"},
        ]

    def test_roundtrip_mismatch_is_reported(self, monkeypatch):
        # the V with 0 < 1 and 0 < 2; seed 1 relabels it as 1 < 0, 1 < 2
        monkeypatch.setattr(suites, "find_isomorphism", lambda p, q: None)
        ctx = AlgebraContext(Poset.from_covers(3, [(0, 1), (0, 2)]), 3, Rationals())
        assert suites.suite_reconstruction(ctx, 1) == [
            {"theorem": "idempotent-counts", "status": "pass"},
            {
                "theorem": "reconstruction-roundtrip",
                "status": "fail",
                "counterexample": {"scrambled_covers": [(1, 0), (1, 2)], "expected_covers": [(0, 1), (0, 2)]},
            },
        ]


class TestExitCodes:
    def test_missing_file(self):
        r = run_cli("check", "/nonexistent/file.poset")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_bad_ring_spec(self, chain2):
        assert run_cli("check", chain2, "--ring", "R").returncode == 2
        assert run_cli("check", chain2, "--ring", "Fp:4").returncode == 2

    def test_capability_limited_rings(self, chain2):
        # Z and Zm:6 cannot run the full battery (idempotent splitting and
        # reconstruction need a field); the harness reports and exits 2
        assert run_cli("check", chain2, "--ring", "Z").returncode == 2
        assert run_cli("check", chain2, "--ring", "Zm:6").returncode == 2

    def test_theorem_violation_exit(self, zero_table):
        # a table that is not a flag algebra must fail reconstruction loudly
        r = run_cli("reconstruct", zero_table)
        assert r.returncode == 1
        assert json.loads(r.stdout)["status"] == "fail"

    def test_huge_dim_with_short_table_fails_fast(self, tmp_path):
        # fewer nonzero products than dim means A*A != A: rejected before
        # any elimination instead of running for minutes
        f = tmp_path / "huge.json"
        f.write_text('{"dim": 300, "ring": "Q", "table": []}')
        r = run_cli("reconstruct", str(f), timeout=30)
        assert r.returncode == 1
        report = json.loads(r.stdout)
        assert report["status"] == "fail"
        assert "A*A != A" in report["diagnostic"]

    def test_antichain_check_is_fast(self, tmp_path):
        # I^3 of the 100-antichain is Q^100: a probe with 100 distinct
        # eigenvalues made its reconstruction suite take 99.6 s on a 2-core VM
        f = tmp_path / "antichain100.poset"
        f.write_text(f"elements: {' '.join(f'a{i}' for i in range(100))}\ncovers:\n")
        r = run_cli("check", str(f), timeout=30)
        assert r.returncode == 0
        assert r.stderr == "check: 1 poset(s) over Q: 9/9 theorem checks passed\n"

    def test_diagonal_table_reconstructs_fast(self, tmp_path):
        # b_i b_i = b_i, the unscrambled I^3 of the 200-antichain, took more
        # than 120 s on a 2-core VM when split by a probe with 200 eigenvalues
        f = tmp_path / "diagonal200.json"
        f.write_text(json.dumps({"dim": 200, "ring": "Q", "table": [[i, i, [[i, "1"]]] for i in range(200)]}))
        r = run_cli("reconstruct", str(f), timeout=30)
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert (report["size"], report["covers"]) == (200, [])

    def test_non_split_table_names_its_minimal_polynomial(self, tmp_path):
        # Q(sqrt 2) over Q: commutative and unital but not a product of
        # copies of Q, so the element quotient cannot split
        f = tmp_path / "sqrt2.json"
        f.write_text(
            '{"dim": 2, "ring": "Q", "table": [[0, 0, [[0, "1"]]], [0, 1, [[1, "1"]]],'
            ' [1, 0, [[1, "1"]]], [1, 1, [[0, "2"]]]]}'
        )
        r = run_cli("reconstruct", str(f))
        assert r.returncode == 1
        diagnostic = json.loads(r.stdout)["diagnostic"]
        assert diagnostic.startswith("element quotient did not split")
        # b_0 is the identity, so b_1, whose square is 2 b_0, fails first
        assert "minimal polynomial x^2 + (-2)*x^0" in diagnostic
        assert "retry budget" not in diagnostic

    def test_table_of_the_wrong_dimension_fails(self, tmp_path):
        # b_0, b_1 idempotent with b_0 b_1 = b_1: the element and cover
        # stages see one element, whose third flag algebra has dim 1, not 2
        f = tmp_path / "dim2.json"
        f.write_text('{"dim":2,"ring":"Q","table":[[0,0,[[0,"1"]]],[1,1,[[1,"1"]]],[0,1,[[1,"1"]]]]}')
        r = run_cli("reconstruct", str(f))
        assert r.returncode == 1
        report = json.loads(r.stdout)
        assert report["status"] == "fail"
        assert report["diagnostic"] == (
            "the recovered poset has 1 3-multichain(s), so its third flag algebra has dim 1, not the table's 2"
        )
        assert r.stderr == f"reconstruct: FAILED: {report['diagnostic']}\n"

    def test_oversized_modulus_is_refused(self, chain2):
        # 2^61 - 1 is proven prime at once; the bound is where the
        # 13-base Miller-Rabin test stops being a proof
        r = run_cli("check", chain2, "--ring", "Fp:2305843009213693951", timeout=60)
        assert json.loads(r.stdout)["ring"] == "Fp:2305843009213693951"
        r = run_cli("check", chain2, "--ring", "Fp:3317044064679887385961981", timeout=60)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == (
            "error: modulus 3317044064679887385961981 is too large: primality is proven only below "
            "3317044064679887385961981\n"
        )

    def test_zm_takes_any_modulus(self, chain2):
        # Z/m runs no primality test, so F_p's bound does not apply: a
        # modulus at or above it gives Zm:6's report and exit code
        small = run_cli("check", chain2, "--ring", "Zm:6")
        for m in (3317044064679887385961981, 2**89 - 1):
            r = run_cli("check", chain2, "--ring", f"Zm:{m}", timeout=60)
            assert r.returncode == small.returncode
            assert r.stdout == small.stdout.replace("Zm:6", f"Zm:{m}")
            assert r.stderr == small.stderr.replace("Zm:6", f"Zm:{m}")

    def test_ring_mismatch_is_input_error(self, zero_table):
        assert run_cli("reconstruct", zero_table, "--ring", "Fp:2").returncode == 2

    @pytest.mark.parametrize("ring", ["Z", "Zm:6", "Zm:9"])
    def test_reconstruct_unsupported_ring_is_input_error(self, tmp_path, ring):
        # AbstractAlgebra's one ring check: a field, whether or not the ring
        # is indecomposable (Z and Zm:9 are, Zm:6 is not)
        f = tmp_path / "table.json"
        f.write_text(structure_constants(AlgebraContext(chain(2), 3, ring_from_spec(ring))).to_json())
        r = run_cli("reconstruct", str(f), "--ring", ring)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: reconstruction requires a field (got {ring}); re-run over Q\n"

    @pytest.mark.parametrize(
        "table",
        [
            '{"dim":2,"ring":"Q","table":[[0,0,5]]}',
            "[[0, 0, [[1, \"1\"]]]]",
            '{"dim":2,"ring":"Q","table":[[0,0,[[1,"1/0"]]]]}',
            '{"dim":-1,"ring":"Q","table":[]}',
            '{"dim":1,"ring":"Fp:2","table":[[0,0,[[0,"1 mod 7"]]]]}',
            '{"dim":1,"ring":"Q","table":[[0,0,[[0,"1e800000"]]]]}',
        ],
        ids=[
            "entry-not-a-list",
            "top-level-list",
            "zero-denominator",
            "negative-dim",
            "wrong-modulus",
            "exponent-scalar",
        ],
    )
    def test_malformed_table_is_input_error(self, tmp_path, table):
        f = tmp_path / "bad.json"
        f.write_text(table)
        r = run_cli("reconstruct", str(f))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: malformed structure constants JSON")
        assert r.stderr.count("\n") == 1

    def test_unwritable_out_is_input_error(self, chain2):
        r = run_cli("check", chain2, "--out", "/nonexistent/x.json")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: cannot write report") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", WRITE_ERRORS)
    def test_unwritable_stdout_is_input_error(self, tmp_path, sink, unbuffered):
        # buffered, a small report fails only at the flush, and the
        # interpreter's own flush at exit must not fail after it; the 10-chain's
        # --n 2 report (about 2 MB) outgrows the pipe once the reader is gone
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "flagalg.cli"]
        if sink == "/dev/full":
            with open(sink, "w") as full:
                r = subprocess.run([*argv, "enumerate-posets", "1"], stdout=full, stderr=subprocess.PIPE, env=env)
            code, err = r.returncode, r.stderr
        else:
            argv += ["derivations", chain_file(tmp_path, 10), "--n", "2"]
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as p:
                assert p.stdout.read(1) == b"{"
                p.stdout.close()
                err = p.stderr.read()
            code = p.returncode
        assert (code, err.decode()) == (2, f"error: cannot write report: {WRITE_ERRORS[sink]}\n")

    def test_multiply_names_an_unknown_tuple(self, chain2):
        r = run_cli("multiply", chain2, "--lhs", '[[[0,0,1],"1"]]', "--rhs", '[[[0,0,9],"1"]]')
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "(0, 0, 9) is not a weakly increasing tuple (multichain) of this poset" in r.stderr
        assert r.stderr.startswith("error: malformed element") and r.stderr.count("\n") == 1

    def test_multiply_refuses_an_exponent_scalar(self, chain2):
        # "1e800000" would parse to a 2.66-million-bit integer
        r = run_cli("multiply", chain2, "--lhs", '[[[0,0,1],"1e800000"]]', "--rhs", "[]")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: malformed element") and r.stderr.count("\n") == 1
        assert "exponent notation" in r.stderr

    @pytest.mark.parametrize("command", ["multiply", "derivations"])
    def test_flag_order_is_bounded(self, chain2, capsys, command):
        # the 2-chain's basis has n + 1 tuples, but building it is about
        # cubic in n: without the bound, --n 1000 took 6 s on a 2-core VM
        empty = ["--lhs", "[]", "--rhs", "[]"] if command == "multiply" else []
        start = time.perf_counter()
        assert cli.main([command, chain2, "--n", "100000", *empty]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: --n must be at most {cli.MAX_FLAG_ORDER}\n")
        assert cli.main([command, chain2, "--n", str(cli.MAX_FLAG_ORDER), *empty]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == cli.MAX_FLAG_ORDER

    def test_derivations_dimension_is_bounded(self, tmp_path, capsys):
        # I^5 of the 7-chain has dim C(11, 5) = 462: its Leibniz system took
        # 13.5 s on a 2-core VM, against 3.7 s for I^4 (dim 210, the bound)
        f = tmp_path / "chain7.poset"
        f.write_text("elements: a b c d e f g\ncovers:\n" + "".join(f"{x} {y}\n" for x, y in zip("abcdef", "bcdefg")))
        start = time.perf_counter()
        assert cli.main(["derivations", str(f), "--n", "5"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", f"error: derivations need dim at most {cli.MAX_DERIVATION_DIM} (this algebra has dim 462)\n"
        )

    def test_check_dimension_is_bounded(self, tmp_path, capsys):
        # check always builds I^3 and its Leibniz system: I^3 of the 10-chain
        # has dim C(12, 3) = 220, and its run took 3.9 s on a 2-core VM
        f = tmp_path / "chain10.poset"
        names = "abcdefghij"
        f.write_text(f"elements: {' '.join(names)}\ncovers:\n" + "".join(f"{x} {y}\n" for x, y in zip(names, names[1:])))
        start = time.perf_counter()
        assert cli.main(["check", str(f)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", f"error: check needs dim at most {cli.MAX_DERIVATION_DIM} (I^3 of this poset has dim 220)\n"
        )

    @pytest.mark.parametrize(
        "command, err",
        [
            ("check", "check needs dim at most 210 (I^3 of this poset has dim 573800)"),
            ("derivations", "derivations need dim at most 210 (this algebra has dim 573800)"),
        ],
    )
    def test_dimension_refusal_counts_without_building(self, tmp_path, capsys, command, err):
        # the 150-chain's 573,800 multichains are counted, not built: building
        # them peaked at 41 MiB for check and 79 MiB for derivations
        f = chain_file(tmp_path, 150)
        tracemalloc.start()
        try:
            code = cli.main([command, f])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert peak < 8 * 2**20

    def test_multiply_dimension_is_bounded(self, tmp_path, capsys):
        # I^8 of the 12-chain has dim C(19, 8) = 75,582: building its oracle
        # table took 11.7 s and 898 MiB on a 2-core VM; the dim is counted
        f = chain_file(tmp_path, 12)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = cli.main(["multiply", f, "--n", "8", "--lhs", "[]", "--rhs", "[]"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: multiply needs dim at most {cli.MAX_MULTIPLY_DIM} (this algebra has dim 75582)\n"
        )
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("command, kind, m", [("check", "chain", 800), ("multiply", "antichain", 2000)])
    def test_poset_size_is_bounded_before_parsing(self, tmp_path, capsys, command, kind, m):
        # parsing builds two m x m order matrices before any dim bound: on a
        # 2-core VM the 800-chain took 21.8 s to parse, and multiply on the
        # 2,000-antichain 2.8-3.5 s and 78 MiB to print its answer
        names = [f"x{i}" for i in range(m)]
        covers = zip(names, names[1:]) if kind == "chain" else []
        f = tmp_path / f"{kind}{m}.poset"
        f.write_text(f"elements: {' '.join(names)}\ncovers:\n" + "".join(f"{x} {y}\n" for x, y in covers))
        argv = [command, str(f)] + (["--lhs", "[]", "--rhs", "[]"] if command == "multiply" else [])
        err = f"error: poset parse error: the file names {m} elements; at most {MAX_POSET_SIZE} are accepted\n"
        r = run_cli(*argv, timeout=10)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", err)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert code == 2
        assert capsys.readouterr() == ("", err)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("command", ["multiply", "derivations"])
    def test_flag_order_is_checked_after_ring_and_file(self, chain2, capsys, command):
        empty = ["--lhs", "[]", "--rhs", "[]"] if command == "multiply" else []
        for argv, err in [
            ([chain2, "--n", "100000", "--ring", "R"], "error: unknown ring spec"),
            (["/nonexistent/file.poset", "--n", "100000"], "error: cannot read poset file"),
            ([chain2, "--n", "1"], "error: flag order n must be >= 2\n"),
        ]:
            assert cli.main([command, *argv, *empty]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith(err)

    def test_deeply_nested_table_is_input_error(self, tmp_path):
        # the JSON decoder recurses once per level and gives up near 1,000
        f = tmp_path / "deep.json"
        f.write_text("[" * 5000)
        r = run_cli("reconstruct", str(f))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: malformed structure constants JSON") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("side", ["--lhs", "--rhs"])
    @pytest.mark.parametrize(
        "element",
        ["[" * 5000 + "]" * 5000, '{"a":' * 5000 + "1" + "}" * 5000],
        ids=["arrays", "objects"],
    )
    def test_deeply_nested_element_is_input_error(self, chain2, side, element):
        other = "--rhs" if side == "--lhs" else "--lhs"
        r = run_cli("multiply", chain2, side, element, other, "[]")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: malformed element") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("with_file", [False, True], ids=["neither", "both"])
    def test_check_needs_exactly_one_source(self, chain2, capsys, with_file):
        argv = ["check", chain2, "--all-up-to", "2"] if with_file else ["check"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: check: give exactly one of a poset file or --all-up-to\n"

    def test_malformed_poset(self, tmp_path):
        bad = tmp_path / "bad.poset"
        bad.write_text("covers:\na b\n")
        assert run_cli("check", str(bad)).returncode == 2

    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [["check", "--all-up-to", "x"], ["enumerate-posets"], []],
        ids=["non-integer-option", "missing-positional", "no-subcommand"],
    )
    def test_usage_error_is_one_error_line(self, capsys, argv):
        # argparse's own errors take the path of every other input error
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: flagalg")


class TestReconstruct:
    def test_roundtrip(self, chain2, tmp_path):
        # dump a real table via the library, feed it back through the CLI
        from flagalg.algebra import AlgebraContext, structure_constants
        from flagalg.posets import chain
        from flagalg.rings import Rationals

        sc = structure_constants(AlgebraContext(chain(3), 3, Rationals()))
        f = tmp_path / "sc.json"
        f.write_text(sc.to_json())
        r = run_cli("reconstruct", str(f))
        assert r.returncode == 0
        report = json.loads(r.stdout)
        assert report["status"] == "ok"
        assert report["size"] == 3
        assert report["covers"] == [[0, 1], [1, 2]]

    def test_report_order_is_pinned(self, tmp_path):
        # two element lifts of this scrambled table share a leading index,
        # so the report order comes from the tie-break on the lift vector
        ctx = AlgebraContext(enumerate_posets(4)[1], 3, PrimeField(3))
        f = tmp_path / "scrambled.json"
        f.write_text(scramble(ctx, 2).sc.to_json())
        r = run_cli("reconstruct", str(f), "--ring", "Fp:3", "--seed", "2")
        assert r.returncode == 0
        assert r.stdout == (DATA / "reconstruct_order_fp3_seed2.json").read_text()
        assert r.stderr == "reconstruct: recovered a poset on 4 elements with 1 covers\n"

    def test_q_report_is_pinned(self, tmp_path):
        # the diamond's table scrambled over Q: the pinned report holds the
        # element and cover lifts in their report order, Fractions included
        diamond = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        sc = scramble(AlgebraContext(diamond, 3, Rationals()), 0).sc
        assert sum(type(c) is Fraction for entry in sc.table.values() for _k, c in entry) == 52
        f = tmp_path / "scrambled.json"
        f.write_text(sc.to_json())
        r = run_cli("reconstruct", str(f), "--ring", "Q")
        assert r.returncode == 0
        assert r.stdout == (DATA / "reconstruct_diamond_q_seed0.json").read_text()
        assert r.stderr == "reconstruct: recovered a poset on 4 elements with 4 covers\n"

    def test_single_entry_faults(self, tmp_path, capsys):
        # flip each of the 64 structure constants c_ij^k of I^3(2-chain) over
        # F_2: reconstruct exits 1 with a one-line stage diagnostic, or 0
        ctx = AlgebraContext(chain(2), 3, PrimeField(2))
        plain = structure_constants(ctx).table
        f = tmp_path / "flipped.json"
        uncertified = []
        for i, j, k in itertools.product(range(4), repeat=3):
            entry = dict(plain.get((i, j), []))
            entry[k] = 1 - entry.get(k, 0)
            table = {key: v for key, v in plain.items() if key != (i, j)}
            if any(entry.values()):
                table[(i, j)] = sorted((col, x) for col, x in entry.items() if x)
            flipped = StructureConstants(4, PrimeField(2), table)
            f.write_text(flipped.to_json())
            code = cli.main(["reconstruct", str(f), "--ring", "Fp:2"])
            out, err = capsys.readouterr()
            report = json.loads(out)
            if code == 1:
                diagnostic = report["diagnostic"]
                assert report["status"] == "fail" and diagnostic and "\n" not in diagnostic
                assert err == f"reconstruct: FAILED: {diagnostic}\n"
            else:
                assert code == 0
                assert (report["size"], report["covers"]) == (2, [[0, 1]])
                if not enumerate_isomorphisms_exhaustive(flipped, structure_constants(ctx)):
                    uncertified.append((i, j, k))
        # reconstruct does not certify its answer: these flipped tables are
        # not isomorphic to I^3(2-chain), yet it reports the 2-chain
        assert uncertified == [(i, j, k) for i in (0, 3) for j in (0, 3) for k in (1, 2)]


class TestDerivations:
    def test_trivial_for_three_flags(self, chain2):
        r = run_cli("derivations", chain2)
        assert r.returncode == 0
        assert json.loads(r.stdout)["kernel_rank"] == 0

    def test_classical_contrast(self, chain2):
        r = run_cli("derivations", chain2, "--n", "2")
        assert r.returncode == 0
        assert json.loads(r.stdout)["kernel_rank"] == 2

    def test_nonzero_kernel_is_reported_violation(self, chain2, monkeypatch, capsys):
        # a nonzero n = 3 kernel must be reported, not crash: fake a kernel
        # holding the map with D[0][0] = 1, which moves e_(0,0,0)
        def fake_kernel(rows, width, ring):
            return span([{0: ring.one()}], ring, width)

        monkeypatch.setattr(derivations, "kernel", fake_kernel)
        assert cli.main(["derivations", chain2]) == 1
        out, err = capsys.readouterr()
        assert err == (
            "derivations: n=3, kernel rank 1 — THEOREM VIOLATION (expected 0 for n=3; "
            "a kernel map moves e(0, 0, 0))\n"
        )
        report = json.loads(out)
        assert report["status"] == "THEOREM VIOLATION"
        assert report["violation"] == {"basis_tuple": [0, 0, 0], "direct_check": "fail"}
        entries = suites.suite_derivations(AlgebraContext(chain(2), 3, Rationals()))
        assert entries == [
            {
                "theorem": "derivations-trivial-n3",
                "status": "fail",
                "counterexample": {"kernel_rank": 1, "basis_tuple": [0, 0, 0]},
            }
        ]

    def test_q_report_is_pinned(self, tmp_path):
        # the derivation matrices of I^2 of the 3-chain, rendered densely
        f = tmp_path / "chain3.poset"
        f.write_text("elements: a b c\ncovers:\na b\nb c\n")
        r = run_cli("derivations", str(f), "--n", "2", "--ring", "Q")
        assert r.returncode == 0
        assert r.stdout == (DATA / "derivations_chain3_n2_q.json").read_text()
        assert r.stderr == "derivations: n=2, kernel rank 5\n"

    def test_z_report_is_pinned(self, tmp_path):
        # the same maps over Z, whose "-1" entries go through Ring.format
        f = tmp_path / "chain3.poset"
        f.write_text("elements: a b c\ncovers:\na b\nb c\n")
        r = run_cli("derivations", str(f), "--n", "2", "--ring", "Z")
        assert r.returncode == 0
        assert r.stdout == (DATA / "derivations_chain3_n2_z.json").read_text()
        assert r.stderr == "derivations: n=2, kernel rank 5\n"

    def test_report_streams_in_small_memory(self, tmp_path):
        # the 12-chain's --n 2 basis is 77 dense 78 x 78 maps: a fresh string
        # per entry, held again by json.dumps' chunks and the joined text,
        # peaked at 80 MiB in process
        argv = ["derivations", chain_file(tmp_path, 12), "--n", "2", "--ring", "Fp:262139"]
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_higher_n_is_flagged_unverified(self, chain2):
        r = run_cli("derivations", chain2, "--n", "4")
        assert r.returncode == 0
        assert "unverified" in (r.stderr + r.stdout).lower()


class TestMultiply:
    def test_product(self, chain2):
        for lhs, rhs in (
            ('[[[0,0,1],"1/2"]]', '[[[0,1,1],"3"]]'),
            # e_000 e_000 = e_000, so only a dropped zero keeps e_000 out
            ('[[[0,0,1],"1/2"],[[0,0,0],"0"]]', '[[[0,1,1],"3"],[[0,0,0],"7"]]'),
        ):
            r = run_cli("multiply", chain2, "--lhs", lhs, "--rhs", rhs)
            assert r.returncode == 0
            report = json.loads(r.stdout)
            assert report["product"] == [[[0, 0, 1], "3/2"], [[0, 1, 1], "3/2"]]

    def test_diamond_report_is_pinned(self, tmp_path):
        f = tmp_path / "diamond.poset"
        f.write_text("elements: a b c d\ncovers:\na b\na c\nb d\nc d\n")
        lhs, rhs = '[[[0,0,1],"1/2"],[[0,1,3],"2"]]', '[[[0,1,1],"3"],[[1,3,3],"5"]]'
        r = run_cli("multiply", str(f), "--lhs", lhs, "--rhs", rhs)
        assert r.returncode == 0
        assert r.stdout == (DATA / "multiply_diamond_n3_q.json").read_text()
        assert r.stderr == "multiply: product has 4 nonzero coefficients\n"

    def test_bad_element_json(self, chain2):
        r = run_cli("multiply", chain2, "--lhs", "not json", "--rhs", "[]")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "ring, rhs",
        [
            ("Fp:3", "[[[0,0,0],1]]"),
            ("Q", "[[[0,0,0],0.1]]"),
            ("Z", "[[[0,0,0],true]]"),
            ("Q", '[[[0,0,0],"1"],[[0,0,0],"-1"]]'),
        ],
        ids=["int-scalar", "float-scalar", "bool-scalar", "repeated-tuple"],
    )
    def test_malformed_element_is_input_error(self, chain2, capsys, ring, rhs):
        argv = ["multiply", chain2, "--ring", ring, "--lhs", '[[[0,0,0],"1"]]', "--rhs", rhs]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed element") and captured.err.count("\n") == 1


class TestEnumerate:
    def test_counts(self):
        for size, count in ((1, 1), (3, 5), (4, 16)):
            r = run_cli("enumerate-posets", str(size))
            assert r.returncode == 0
            report = json.loads(r.stdout)
            assert report["count"] == count
            assert len(report["posets"]) == count

    def test_size_4_report_is_pinned(self):
        r = run_cli("enumerate-posets", "4")
        assert r.returncode == 0
        assert r.stdout == (DATA / "enumerate_posets_4.json").read_text()
        assert r.stderr == "enumerate-posets: 16 classes of size 4\n"

    def test_out_of_range(self):
        assert run_cli("enumerate-posets", "7").returncode == 2
        assert run_cli("enumerate-posets", "0").returncode == 2
