import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from importlib import resources
from itertools import islice

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sigcalc.cli import main

PY = [sys.executable, "-m", "sigcalc"]


def run_cli(*args):
    return subprocess.run([*PY, *args], capture_output=True, text=True)


class TestDlog:
    def test_bsgs(self):
        r = run_cli("dlog", "--p", "31", "--ell", "5", "--g", "3", "--a", "17",
                    "--method", "bsgs", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["outputs"]["m"] == "7"

    @pytest.mark.parametrize("g, a, m, modulus", [
        (2, 4, 2, 5),     # 2 has order 5 mod 31: m = 2, 7, 12, ... all fit
        (3, 4, 18, 30),   # 3 generates F_31^*
    ])
    def test_bsgs_modulus_is_the_order_of_g(self, g, a, m, modulus):
        code, doc = main_json(["dlog", "--p", "31", "--ell", "5", "--g", str(g),
                               "--a", str(a), "--method", "bsgs"])
        assert code == 0
        assert doc["outputs"] == {"m": str(m), "modulus": str(modulus)}
        assert pow(g, m, 31) == a and pow(g, modulus, 31) == 1

    def test_trivial_target(self):
        r = run_cli("dlog", "--p", "31", "--ell", "5", "--g", "3", "--a", "1",
                    "--method", "index", "--json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["outputs"]["m"] == "0"

    def test_index_cross_checked(self):
        r = run_cli("dlog", "--p", "31", "--ell", "5", "--g", "3", "--a", "17",
                    "--method", "index", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["outputs"]["m"] == "2"
        assert doc["cross_check"]["agree"] is True

    def test_index_cross_checked_at_p_near_1e12(self):
        # the check runs in the order-3 subgroup, so its cost does not
        # grow with p
        code, doc = main_json(["dlog", "--p", "1000000000039", "--ell", "3", "--g", "3",
                               "--a", "5", "--method", "index"])
        assert code == 0
        assert doc["outputs"]["m"] == "2"
        assert doc["cross_check"] == {"bsgs_m": "2", "agree": True}

    def test_index_counters_in_the_report(self):
        # the relation outcomes of every round sum to the attempts that one
        # search for as many relations makes; the rounds and the descent's
        # rejections ride along.  B = 15 leaves some draws with no smooth
        # split among the three convergents (at B = 30 every draw has one)
        from sigcalc.indexcalc import RelationSearch, collect_relations

        code, doc = main_json(["dlog", "--p", "10007", "--ell", "5003", "--g", "5",
                               "--a", "3", "--method", "index", "--B", "15",
                               "--seed", "0"])
        assert code == 0
        counters = {k: int(v) for k, v in doc["attempts"].items()}
        outcomes = ("not_smooth", "trivial", "duplicate", "accepted")
        assert set(counters) == {*outcomes, "theta_rounds", "descent_not_smooth",
                                 "descent_undetermined"}
        assert counters["theta_rounds"] >= 2 and counters["not_smooth"] > 0
        search = RelationSearch()
        collect_relations(10007, 5003, 5, 15, counters["accepted"], 0, search=search)
        assert sum(counters[k] for k in outcomes) == search.next_index

    def test_failed_cross_check_reports_and_exits_invariant(self, monkeypatch):
        # 3^7 = 17 mod 31, so an index calculus answering 3 != 7 mod 5 is caught
        import sigcalc.cli as cli

        monkeypatch.setattr(cli, "index_calculus_dlog", lambda *args, **kwargs: 3)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["dlog", "--p", "31", "--ell", "5", "--g", "3", "--a", "17",
                         "--method", "index", "--json"])
        assert code == 1  # the invariant category
        doc = json.loads(out.getvalue())
        assert doc["outputs"]["m"] == "3"
        assert doc["cross_check"] == {"bsgs_m": "2", "agree": False}

    def test_precondition_exit_code(self):
        r = run_cli("dlog", "--p", "31", "--ell", "7", "--g", "3", "--a", "17",
                    "--method", "index", "--json")
        assert r.returncode == 2

    def test_no_verify_skips_cross_check(self):
        r = run_cli("dlog", "--p", "31", "--ell", "5", "--g", "3", "--a", "17",
                    "--method", "index", "--no-verify", "--json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["cross_check"] is None

    def test_budget_exit_code(self):
        # B = 2 at p ~ 1e7: about 46 of the 1e7 units split as +-2^i/2^j,
        # so the 10,000 attempts of the first round, which asks for one
        # relation on this one-prime base, find none, and the collector
        # exits with the budget code and its full counters
        r = run_cli("dlog", "--p", "10000019", "--ell", "7", "--g", "6", "--a", "7",
                    "--method", "index", "--B", "2", "--json")
        assert r.returncode == 3
        doc = json.loads(r.stderr)
        assert doc["error"] == "BudgetExhausted"
        assert sum(int(v) for v in doc["counters"].values()) == 10_000

    def test_composite_modulus_exit_code(self):
        r = run_cli("dlog", "--p", "1001", "--ell", "5", "--g", "3", "--a", "7",
                    "--method", "index", "--json")
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "BadInput"


def main_json(argv):
    """(exit code, the --json report on stdout) of one in-process call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--json"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("argv", [
    ["dlog", "--p", "1021", "--ell", "5", "--g", "0", "--a", "800", "--method", "index"],
    ["dlog", "--p", "1021", "--ell", "5", "--g", "1", "--a", "800", "--method", "index"],
    ["dlog", "--p", "1021", "--ell", "5", "--g", "0", "--a", "800", "--method", "bsgs"],
    ["dlog", "--p", "1001", "--ell", "5", "--g", "3", "--a", "7", "--method", "bsgs"],
    ["verify", "--suite", "reciprocity", "--ell", "0"],
    ["verify", "--suite", "reciprocity", "--p", "2", "--ell", "1"],
    ["verify", "--suite", "reciprocity", "--trials", "0"],
    ["verify", "--suite", "all", "--trials", "-3"],
    # an option that no selected suite reads, or a given --trials above the
    # 40 fields that rayrank checks
    ["verify", "--suite", "lemma1", "--ell", "0", "--p", "4"],
    ["verify", "--suite", "lemma1", "--trials", "5"],
    ["verify", "--suite", "rayrank", "--p", "31"],
    ["verify", "--suite", "rayrank", "--trials", "41"],
    ["verify", "--suite", "all", "--trials", "50"],
])
def test_degenerate_arguments_exit_as_bad_input(argv):
    # the timeout catches a hang: with g = 0 every split has u = 0, and
    # smooth_cofactor(0, B) never returns
    r = subprocess.run([*PY, *argv], capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stderr)["error"] == "BadInput"


@pytest.mark.parametrize("argv, ell", [
    (["signature", "--lift", "1021,5,10,800", "--method", "both", "--B", "80"], 5),
    (["dlog", "--p", "1021", "--ell", "5", "--g", "10", "--a", "800", "--method", "index"], 5),
    (["verify", "--suite", "all"], 13),  # the largest ell of the rayrank fields
])
def test_every_dlog_in_f_p_runs_in_the_order_ell_subgroup(monkeypatch, argv, ell):
    """No baby-step giant-step over F_p^* (int elements; the elliptic
    ones step over points) searches a group larger than ell."""
    import sigcalc.arith

    orders, real = [], sigcalc.arith.bsgs_dlog

    def recorded(generator, target, group_order, **ops):
        if isinstance(generator, int):
            orders.append(group_order)
        return real(generator, target, group_order, **ops)

    for name, module in list(sys.modules.items()):
        if name.startswith("sigcalc") and vars(module).get("bsgs_dlog") is real:
            monkeypatch.setattr(module, "bsgs_dlog", recorded)
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert orders and max(orders) <= ell


class TestSignature:
    def test_unknown_class_numbers_are_counted_apart(self):
        # every field of the 64 lifts has a discriminant past the
        # exhaustive class-number bound: h is unknown, not divisible by 7
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["signature", "--lift", "100003,7,2,12346", "--json"])
        assert code == 3
        assert json.loads(err.getvalue())["counters"] == {
            "condition_class_number_unknown": "28", "ell_not_split": "36"}

    def test_lift_dl_oracle(self):
        r = run_cli("signature", "--lift", "31,5,3,17", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["outputs"]["s_dl_oracle"] == "1"

    def test_both_methods_agree(self):
        r = run_cli("signature", "--lift", "31,5,3,17", "--method", "both",
                    "--B", "60", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["cross_check"]["agree"] is True

    def test_failed_cross_check_reports_and_exits_invariant(self, monkeypatch):
        import sigcalc.cli as cli

        real = cli.signature_index_calculus

        def off_by_one(instance, *args, **kwargs):
            sig = real(instance, *args, **kwargs)
            return replace(sig, s=(sig.s + 1) % instance.ell)

        monkeypatch.setattr(cli, "signature_index_calculus", off_by_one)
        code, doc = main_json(["signature", "--lift", "31,5,3,17", "--method", "both",
                               "--B", "60"])
        assert code == 1
        assert doc["outputs"]["s_dl_oracle"] == "1" and doc["outputs"]["s_index"] == "2"
        assert doc["cross_check"] == {"agree": False}

    @pytest.mark.parametrize("method", ["index", "both"])
    def test_index_search_counters_in_the_report(self, method):
        # one counter per outcome, summing to the N attempts the search
        # made: replaying attempts 0..N-1 tallies them, and the search
        # stopped at the first relation that pins s
        from sympy import GF
        from sympy.polys.matrices import DomainMatrix

        from sigcalc.charsig import SIGNATURE_COLUMN, _BetaSearch, lift_unit

        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["signature", "--lift", "1021,5,10,800", "--method", method,
                         "--B", "80", "--json", "--seed", "11"])
        assert code == 0
        counters = {k: int(v) for k, v in json.loads(out.getvalue())["attempts"].items()}
        assert set(counters) == {"not_unit_at_u", "not_smooth", "outside_base",
                                 "duplicate", "accepted"}
        search = _BetaSearch.start(lift_unit(800, 1021, 5, 11, g=10), 80, 11)
        replay = dict.fromkeys(counters, 0)
        relations = []
        for x0, x1 in islice(search.walk(), sum(counters.values())):
            rel = search.read(x0, x1)
            outcome = rel if isinstance(rel, str) else (
                "duplicate" if rel in relations else "accepted")
            replay[outcome] += 1
            if outcome == "accepted":
                relations.append(rel)
        assert replay == counters and counters["accepted"] > 0

        def pins_s(rels):
            # s is pinned when e_s lies in the row space of the relations
            cols = sorted({SIGNATURE_COLUMN, *(col for rel in rels for col, _ in rel.coeffs)})
            F = GF(5)
            rows = [[F(dict(rel.coeffs).get(col, 0)) for col in cols] for rel in rels]
            unit = [F(int(col == SIGNATURE_COLUMN)) for col in cols]

            def rank(rows):
                return DomainMatrix(rows, (len(rows), len(cols)), F).rank()

            return rank(rows + [unit]) == rank(rows)

        assert pins_s(relations) and not pins_s(relations[:-1])

    def test_instance_file_round_trip(self, tmp_path):
        path = tmp_path / "instance.json"
        r = run_cli("signature", "--lift", "31,5,3,17", "--json",
                    "--save-instance", str(path))
        assert r.returncode == 0
        r2 = run_cli("signature", "--instance", str(path), "--json")
        assert r2.returncode == 0
        assert json.loads(r2.stdout)["outputs"]["s_dl_oracle"] == "1"

    def test_condition_failure_exit_code(self, tmp_path):
        # Q(sqrt 229) has class number 3: an ell = 3 condition-(1) fixture.
        # alpha = (15 + sqrt 229)/2 = 7 + omega has norm -1; 3 and 19 split
        from sigcalc.quadfield import RealQuadField, embed, split_places

        K = RealQuadField(229)
        alpha = K.element(7, 1)
        u = split_places(3, K)[0]
        v = split_places(19, K)[0]
        doc = {
            "p": "19", "ell": "3", "g": "2", "a": str(embed(alpha, v, 1)),
            "D": "229", "alpha": ["7", "1"], "u_root_label": str(u.root_label),
            "v_root_label": str(v.root_label), "seed": "0",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        r = run_cli("signature", "--instance", str(path), "--json")
        assert r.returncode == 4
        assert "class_number_ok" in r.stderr

    def test_degenerate_target_exit_code(self):
        r = run_cli("signature", "--lift", "31,5,3,30", "--json")
        assert r.returncode == 2

    @pytest.mark.parametrize("lift", ["31,5", "31,5,3,x", "1001,5,3,7"])
    def test_malformed_lift_exit_code(self, lift):
        r = run_cli("signature", "--lift", lift, "--method", "dl-oracle")
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "BadInput"


    def test_instance_file_re_saves_byte_identically(self, tmp_path):
        path, again = tmp_path / "instance.json", tmp_path / "again.json"
        assert run_cli("signature", "--lift", "31,5,3,17",
                       "--save-instance", str(path)).returncode == 0
        r = run_cli("signature", "--instance", str(path), "--save-instance", str(again))
        assert r.returncode == 0
        assert again.read_bytes() == path.read_bytes()

    def test_instance_file_with_a_wrong_target_is_rejected(self, tmp_path):
        path = tmp_path / "instance.json"
        assert run_cli("signature", "--lift", "31,5,3,17",
                       "--save-instance", str(path)).returncode == 0
        doc = json.loads(path.read_text())
        assert doc["a"] == "17"
        doc["a"] = "18"
        path.write_text(json.dumps(doc))
        r = run_cli("signature", "--instance", str(path), "--json")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert json.loads(r.stderr)["error"] == "BadInput"


class TestEc:
    def test_roundtrip(self):
        r = run_cli("ec", "roundtrip", "--fixture", "f7l13", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["outputs"]["m"] == "2"
        assert doc["cross_check"]["agree"] is True

    def test_roundtrip_runs_the_ecdl_oracle_once(self, monkeypatch):
        # the signature and the cross-check share one baby-step giant-step
        import sigcalc.cli as cli

        calls, bsgs_dlog = [], cli.bsgs_dlog

        def counted(*args, **kwargs):
            calls.append(args)
            return bsgs_dlog(*args, **kwargs)

        monkeypatch.setattr(cli, "bsgs_dlog", counted)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["ec", "roundtrip", "--fixture", "f251l271", "--json"])
        assert code == 0 and len(calls) == 1
        doc = json.loads(out.getvalue())
        assert doc["cross_check"] == {"bsgs_m": "5", "agree": True}

    def test_coker_table(self):
        r = run_cli("ec", "coker", "--fixture", "f7l13", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["outputs"]["dims"] == {"u,u'": "0", "u,u',v": "1",
                                          "u,u',v,v'": "2"}

    def test_failed_roundtrip_reports_and_exits_invariant(self, monkeypatch):
        import sigcalc.cli as cli

        real = cli.ecdl_from_signature
        monkeypatch.setattr(cli, "ecdl_from_signature",
                            lambda instance, oracle: (real(instance, oracle) + 1) % instance.ell)
        code, doc = main_json(["ec", "roundtrip", "--fixture", "f7l13"])
        assert code == 1
        assert doc["outputs"]["m"] == "3"
        assert doc["cross_check"] == {"bsgs_m": "2", "agree": False}

    def test_failed_coker_table_reports_and_exits_invariant(self, monkeypatch):
        import sigcalc.cli as cli

        monkeypatch.setattr(cli, "coker_dim", lambda instance, extra_places=(): 0)
        code, doc = main_json(["ec", "coker", "--fixture", "f7l13"])
        assert code == 1
        assert doc["outputs"]["dims"] == {"u,u'": "0", "u,u',v": "0", "u,u',v,v'": "0"}
        assert doc["cross_check"] == {"agree": False}

    def test_scan(self):
        r = run_cli("ec", "scan", "--fixture", "f7l13", "--B", "100", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        qs = {hit["q"] for hit in doc["outputs"]["hits"]}
        assert "7" in qs  # the reduction at p has order ell = 13

    def test_unknown_fixture(self):
        r = run_cli("ec", "roundtrip", "--fixture", "nope", "--json")
        assert r.returncode == 2

    def test_a_fixture_name_is_only_a_shipped_stem(self, tmp_path):
        # a path that reaches a JSON file outside the package is no fixture
        (tmp_path / "empty.json").write_text("{}")
        fixtures = str(resources.files("sigcalc.fixtures"))
        for name in (os.path.relpath(tmp_path / "empty", fixtures), str(tmp_path / "empty"),
                     "f7l13.json", "../fixtures/f7l13"):
            r = run_cli("ec", "roundtrip", "--fixture", name)
            assert r.returncode == 2 and json.loads(r.stderr) == {
                "error": "BadInput", "detail": f"unknown fixture {name!r}"}

    @pytest.mark.parametrize("doc", [{}, {"a": "x"}, {"a": None},
                                     {"a": 0, "b": 3, "p": 7, "ell": 13, "Qt": [1]}])
    def test_a_malformed_fixture_document_is_bad_input(self, monkeypatch, doc):
        import sigcalc.cli as cli

        monkeypatch.setattr(cli, "load_fixture", lambda name: doc)
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(["ec", "roundtrip", "--fixture", "f7l13"]) == 2
        report = json.loads(err.getvalue())
        assert report["error"] == "BadInput"
        assert report["detail"].startswith("malformed fixture 'f7l13': ")

    def test_instance_file(self, tmp_path):
        path = tmp_path / "ec.json"
        r = run_cli("ec", "roundtrip", "--fixture", "f7l13", "--json",
                    "--save-instance", str(path))
        assert r.returncode == 0
        r2 = run_cli("ec", "coker", "--instance", str(path), "--json")
        assert r2.returncode == 0


    def test_instance_file_re_saves_byte_identically(self, tmp_path):
        path, again = tmp_path / "ec.json", tmp_path / "again.json"
        assert run_cli("ec", "coker", "--fixture", "f7l13",
                       "--save-instance", str(path)).returncode == 0
        r = run_cli("ec", "coker", "--instance", str(path), "--save-instance", str(again))
        assert r.returncode == 0
        assert again.read_bytes() == path.read_bytes()

    def test_instance_file_with_a_point_off_the_curve_is_rejected(self, tmp_path):
        # 455 = 5*7*13 keeps the curve mod p = 7 and mod ell = 13, so only
        # the check that Q and R lie on the curve can catch it
        path = tmp_path / "ec.json"
        assert run_cli("ec", "coker", "--fixture", "f7l13",
                       "--save-instance", str(path)).returncode == 0
        doc = json.loads(path.read_text())
        doc["b_r"] = str(int(doc["b_r"]) + 455)
        path.write_text(json.dumps(doc))
        r = run_cli("ec", "coker", "--instance", str(path), "--json")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert json.loads(r.stderr)["error"] == "BadInput"

    def test_instance_file_with_a_d_past_the_rho_cap_is_too_large(self, tmp_path):
        # D = two 36-bit primes: the loader gives its factorisation up after
        # the lifts' rho cap, before anything else is read
        path = tmp_path / "ec.json"
        assert run_cli("ec", "coker", "--fixture", "f7l13",
                       "--save-instance", str(path)).returncode == 0
        doc = json.loads(path.read_text())
        doc["D"] = str(42389895973 * 55701562349)
        path.write_text(json.dumps(doc))
        r = run_cli("ec", "coker", "--instance", str(path), "--json")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert json.loads(r.stderr)["error"] == "TooLarge"


class TestMalformedInstanceFile:
    """Every broken instance file exits 2 through BadInput, never a traceback."""

    SAVE = {
        "signature": ("signature", "--lift", "31,5,3,17"),
        "ec": ("ec", "coker", "--fixture", "f7l13"),
    }
    LOAD = {"signature": ("signature",), "ec": ("ec", "roundtrip")}

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        docs = {}
        for kind, argv in self.SAVE.items():
            path = tmp_path_factory.mktemp(kind) / "instance.json"
            assert run_cli(*argv, "--save-instance", str(path)).returncode == 0
            docs[kind] = json.loads(path.read_text())
        return docs

    def _load(self, kind, path):
        r = run_cli(*self.LOAD[kind], "--instance", str(path), "--json")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert json.loads(r.stderr)["error"] == "BadInput"

    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_missing_key(self, kind, saved, tmp_path):
        doc = dict(saved[kind])
        del doc["p"]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        self._load(kind, path)

    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_bad_number(self, kind, saved, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**saved[kind], "D": "x"}))
        self._load(kind, path)

    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_unknown_key(self, kind, saved, tmp_path):
        # a key the loader does not know would be dropped on re-save
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**saved[kind], "extra": "1"}))
        self._load(kind, path)

    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_bad_json(self, kind, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text("{")
        self._load(kind, path)

    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_missing_file(self, kind, tmp_path):
        self._load(kind, tmp_path / "absent.json")

    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_empty_path(self, kind):
        self._load(kind, "")

    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_file_not_utf8(self, kind, saved, tmp_path):
        path = tmp_path / "instance.json"
        path.write_bytes(json.dumps(saved[kind]).encode() + b"\xff")
        self._load(kind, path)

    @pytest.mark.parametrize("key, value", [("a", "48"), ("g", "34")])
    def test_residue_outside_zero_to_p(self, key, value, saved, tmp_path):
        # 48 = 17 and 34 = 3 mod 31 pass every other check of the loader
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({**saved["signature"], key: value}))
        self._load("signature", path)

    @pytest.mark.parametrize("target", ["missing_directory", "directory", "empty"])
    @pytest.mark.parametrize("kind", ["signature", "ec"])
    def test_unwritable_save_path(self, kind, target, tmp_path):
        path = {"missing_directory": tmp_path / "absent" / "x.json",
                "directory": tmp_path, "empty": ""}[target]
        r = run_cli(*self.SAVE[kind], "--save-instance", str(path))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert json.loads(r.stderr)["error"] == "BadInput"


DELETE = object()  # a mutation that removes the field

# every field of a saved instance file, nested list entries included
INSTANCE_FIELDS = {
    "signature": [("D",), ("a",), ("alpha",), ("alpha", 0), ("alpha", 1), ("ell",),
                  ("g",), ("p",), ("seed",), ("u_root_label",), ("v_root_label",)],
    "ec": [("D",), ("Q",), ("Q", 0), ("Q", 1), ("R",), ("R", 0), ("R", 0, 0),
           ("R", 0, 1), ("R", 1), ("R", 1, 0), ("R", 1, 1), ("a",), ("b_r",),
           ("ell",), ("p",), ("seed",), ("sha_assumption",), ("u_root_label",),
           ("v_root_label",)],
}
MUTANTS = st.one_of(
    st.integers(-3, 3).map(lambda k: ("offset", k)),  # from the saved number
    st.integers(-10**6, 10**6).map(str),
    st.text(max_size=6),
    st.sampled_from([None, True, False, 7, [], ["1"], ["1", "2"], {}]),
    st.just(DELETE),
)


def _leaves(doc, path=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


class TestInstanceMutations:
    """A saved instance with one field mutated either loads and re-saves
    byte for byte, or exits through a typed error with JSON on stderr."""

    SAVE = {
        "signature": ["signature", "--lift", "31,5,3,17"],
        "ec": ["ec", "roundtrip", "--fixture", "f7l13"],
    }

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("mutations")
        docs = {}
        for kind, argv in self.SAVE.items():
            path = work / f"{kind}.json"
            assert self._main([*argv, "--save-instance", str(path)])[0] == 0
            docs[kind] = path.read_text()
        return work, docs

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue()

    def test_fields_cover_the_saved_files(self, saved):
        _, docs = saved
        for kind, text in docs.items():
            assert sorted(_leaves(json.loads(text))) == INSTANCE_FIELDS[kind]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # each pins a mutant the loaders once accepted without re-saving it
    # byte for byte: a non-canonical or non-string number, a non-boolean
    # flag, or a two-character string unpacked as a pair
    @example(field=("signature", ("seed",)), value="05")
    @example(field=("signature", ("ell",)), value=" 5")
    @example(field=("signature", ("alpha", 1)), value=True)
    @example(field=("ec", ("Q",)), value="12")
    @example(field=("ec", ("seed",)), value=5)
    @example(field=("ec", ("Q", 0)), value=True)
    @example(field=("ec", ("sha_assumption",)), value="1")
    @example(field=("ec", ("p",)), value="+7")
    @given(field=st.sampled_from([(kind, path) for kind, paths in INSTANCE_FIELDS.items()
                                  for path in paths]),
           value=MUTANTS)
    def test_mutated_field(self, saved, field, value):
        work, docs = saved
        kind, path = field
        doc = json.loads(docs[kind])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        if value is DELETE:
            del parent[path[-1]]
        elif isinstance(value, tuple):
            if not isinstance(old, str):
                return  # offsets apply to numbers only
            parent[path[-1]] = str(int(old) + value[1])
        else:
            parent[path[-1]] = value
        text = json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"
        mutant, again = work / "mutant.json", work / "again.json"
        mutant.write_text(text)
        again.unlink(missing_ok=True)
        load = self.SAVE[kind][:-2]
        code, err = self._main([*load, "--instance", str(mutant),
                                "--save-instance", str(again)])
        if code == 0:
            assert again.read_text() == text
        else:
            assert code in range(1, 6)
            assert "error" in json.loads(err)


class TestVerify:
    def test_reciprocity(self):
        r = run_cli("verify", "--suite", "reciprocity", "--trials", "5")
        assert r.returncode == 0
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert lines[-1]["failures"] == "0"

    def test_rayrank(self):
        r = run_cli("verify", "--suite", "rayrank", "--trials", "3")
        assert r.returncode == 0
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert lines[-1]["failures"] == "0"
        assert all(row.get("rank_one_place", "1") == "1"
                   for row in lines[:-1])

    def test_a_failing_row_exits_invariant_with_its_counterexample(self, monkeypatch):
        import sigcalc.ecurve as ecurve

        monkeypatch.setattr(ecurve, "h1_local_dim", lambda curve, place, ell: 7)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--suite", "lemma1"])
        assert code == 1
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        rows, summary = lines[:-1], lines[-1]
        assert rows and all(row["formula"] == "7" and row["ok"] is False for row in rows)
        assert summary == {"suite": "lemma1", "failures": str(len(rows))}
        assert json.loads(err.getvalue()) == {"counterexample": rows[0]}


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        pairs = [
            ("dlog", "--p", "31", "--ell", "5", "--g", "3", "--a", "17",
             "--method", "index", "--json", "--seed", "7"),
            ("signature", "--lift", "31,5,3,17", "--method", "both",
             "--B", "60", "--json", "--seed", "7"),
            ("ec", "roundtrip", "--fixture", "f7l13", "--json", "--seed", "7"),
        ]
        for args in pairs:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestErrorMapping:
    def test_every_error_has_an_exit_code(self):
        from sigcalc.errors import SigcalcError

        errors = list(_subclasses(SigcalcError))
        assert len(errors) > 20
        unmapped = [cls.__name__ for cls in errors
                    if getattr(cls, "exit_code", None) not in range(1, 6)]
        assert unmapped == []

    def test_class_number_and_denominator_errors_are_preconditions(self):
        from sigcalc.errors import (
            ClassNumberDivisible,
            NonInvertibleDenominator,
            PreconditionError,
        )

        assert PreconditionError.exit_code == 2
        assert ClassNumberDivisible.exit_code == 2
        assert NonInvertibleDenominator.exit_code == 2


def test_cli_imports_only_the_standard_library():
    code = ("import sys, sigcalc.cli; "
            "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
