"""Command-line front end: artifacts, determinism and exit codes."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from helpers import count_calls
from pomdpkit import grid
from pomdpkit.cli import load_model, main
from pomdpkit.model import model_to_json
from pomdpkit.apps import build_machine_replacement
from pomdpkit.orders import ORDER_TOL
from pomdpkit.rng import make_rng, uniform_simplex
from pomdpkit.solver import evaluate_value, solve_finite_horizon, vector_set

# stdout sha256 of the nine README commands, the social-learning stop, the
# Lovejoy bounds (once on an 8-state grid), two trajectory commands, an
# SPSA trace, a Fails report with witnesses, a Monte Carlo table, a
# discounted grid value table and a stopping grid, as recorded in
# CHANGES.md
GOLDEN = [
    ("solve --model machine-replacement --horizon 5 --method ip",
     "6d3a4fcef939db4ffceb7376c4e0ab54ef2d2e9820b49f01cc880c39f0189cde"),
    ("solve --model machine-replacement --rho 0.9 --epsilon 1e-6 "
     "--query 0.4,0.6",
     "8f850d7caac184b8b5d8334b3060b993b2ab7d96068f0000cd394633f15edc80"),
    ("check --model example1",
     "bcb40f06da2a4789bf362dfa3723495227363003ce1bc7e35a8ccdb177040adf"),
    ("myopic --table1a --samples 1000000 --seed 1",
     "5ddd16fae045075ef6492ee4e2d21f3a8b5e6c64f1d050f009df8d8b2e253d5b"),
    ("myopic --table1a --loss --paths 1000 --horizon 100 --seed 1",
     "fed26955bd960d8840f20376e4b45f7c77586299a898960136d1aa03cb53f8fa"),
    ("filter --model qd-ph --sandwich --steps 200 --seed 3",
     "cce9a6961a4260407682fa66ad2b98663a250a453c465b6fd05dc439dcc23c96"),
    ("spsa --model qd-ph --iterations 2000 --restarts 5 --seed 11",
     "35f26a3a6ce49d9a4099bac496b78683ba989629a32595cf410b9b6e65c6d399"),
    ("bandit --episodes 1000 --seed 2",
     "24e02b9e522b4bd191ebdd2552dc1baf265077c1204ae4ba17783b4c433eff1a"),
    ("compare --kind blackwell --seed 0",
     "34163f331e9fd4591a184bc1ba007f441bff041a8744269a11f3c2fadef51a08"),
    ("solve --model social",
     "ae656c6859a5c8bfba57fb3d22546e72625708c7cd63511f1bf6c04f0cc2c76f"),
    ("solve --model machine-replacement --horizon 4 --method lovejoy",
     "30dbb80bd249cb48cd9e33506d5a1781b8e6393495e65d73299b586e36af9489"),
    ("simulate --model machine-replacement --steps 200 --seed 4",
     "159dd8b642692d6162629fec80667ed2120730b8c0b1f8d9aa91ad29446dd561"),
    ("filter --model example1 --steps 300 --seed 5",
     "ad5de1233b7af9e2a7668d1e282c992901e3bbe83ae46ac92763beaa9388ada7"),
    ("myopic --model machine-replacement",
     "ea845d3c88a1bd0e3c88eb59bc71d28a464972e7198831eb6ea82368f91234d7"),
    ("spsa --model qd-ph --iterations 200 --restarts 2 --seed 11 --trace",
     "993f1e5d97b6496955d880acedaaa024c293ba679c39c8f42a2246b434969ce2"),
    ("check --model example2",
     "ea4cbaff6c4566625e3692e7d6afc69ddceec3e83bf071aa0eee95c5586d6fdc"),
    ("myopic --table1c --samples 2000 --seed 1",
     "44c48308a2348fe0eb9427e3372c227373608ff5d2b735d5313d5a509f12426c"),
    ("solve --model example1 --method grid --resolution 60 --epsilon 1e-8",
     "5cfa2f4ca2e1cfd9b2ccc4fb8f39d84b0cf64685e9a529f676b94073d086294f"),
    ("solve --model example3 --method lovejoy --horizon 3 --grid-points 40",
     "260c895b2d00d65a6d1221f17a03787db3f833d95e392cf9f118ff130256c450"),
    ("solve --model qd-ph --resolution 140",
     "713e83f3577386c5cd24e42d78ac0dae4cc196ebf5675b7d811ceb0b53e12c0b"),
]


@pytest.mark.parametrize("command, digest", GOLDEN,
                         ids=[command for command, _ in GOLDEN])
def test_golden_stdout_bytes(command, digest, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("command", [
    "solve --model transmission",
    "check --model transmission",
    "check --model social",
    "check --model bandit",
    "filter --model bandit --sandwich",
    "filter --model qd-ph",
    "myopic --model social",
    "myopic --model qd-ph",
    "myopic --model transmission",
    "myopic",
    "spsa --model example1",
    "simulate --model qd-ph",
])
def test_wrong_model_kind_exit_code(command, capsys):
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "DimensionMismatch"


REPLACEMENT_JSON = json.loads(model_to_json(build_machine_replacement(
    0.3, 0.9, 0.8, 0.5, [1.0, 0.0], rho=0.9)))

# model files that once crashed `solve` with a traceback or loaded when
# they should not; None: no file
MALFORMED_FILES = {
    "no-arrays": '{"X": 2, "U": 1}',
    "not-an-object": "[1, 2]",
    "horizon-not-an-int": json.dumps({**REPLACEMENT_JSON, "horizon": "abc"}),
    "horizon-a-float": json.dumps({**REPLACEMENT_JSON, "horizon": 2.5}),
    "horizon-a-bool": json.dumps({**REPLACEMENT_JSON, "horizon": True}),
    "horizon-a-numeric-string": json.dumps({**REPLACEMENT_JSON,
                                            "horizon": "3"}),
    "not-json": "X = 2",
    "no-such-file": None,
}


def assert_one_error_line(capsys, error):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == error
    return err


# counts and horizons that once ended in a traceback, printed NaN or a
# stage -2 set, or fell back to the model's horizon, all with no error
BAD_COUNTS = [
    "solve --model example1 --method grid --resolution 5 --horizon 0",
    "solve --model example1 --method grid --resolution 5 --horizon -3",
    "solve --model machine-replacement --horizon -2",
    "solve --model machine-replacement --method lovejoy --horizon -1",
    "solve --model machine-replacement --method lovejoy --horizon 0",
    "spsa --restarts 0",
    "spsa --iterations 2 --paths 0",
    "myopic --table1d --samples 0",
    "myopic --table1a --loss --paths 0",
    "myopic --table1a --loss --horizon 0 --paths 10",
    "solve --model machine-replacement --method lovejoy --horizon 3 "
    "--grid-points 0",
    "bandit --episodes 1",
    "bandit --steps 0",
    "bandit --steps -3",
    "filter --model qd-ph --sandwich --steps 0",
    "filter --model example1 --sandwich --steps 0",
    "spsa --iterations 0 --trace",
]


# options that once were accepted and ignored: stdout was the same bytes
# with and without them
IGNORED_OPTIONS = [
    "solve --model social --query 0.3,0.7",
    "solve --model qd-classical --resolution 4 --query 0.3,0.7",
    "solve --model example1 --method grid --resolution 4 --horizon 2 "
    "--query 0.2,0.3,0.5",
    "solve --model machine-replacement --method lovejoy --horizon 2 "
    "--query 0.3,0.7",
    "solve --model qd-classical --resolution 4 --rho 0.5",
    "spsa --model qd-classical --rho 0.5",
    "myopic --table1c --delta 0.3",
    "myopic --table1d --delta 0.3",
    "myopic --model machine-replacement --delta 0.3",
    "myopic --table1a --rho 0.5",
    "solve --model social --horizon 3",
    "solve --model social --method monahan",
    "solve --model social --epsilon 0.5",
    "solve --model qd-classical --resolution 4 --horizon 3",
    "solve --model qd-classical --resolution 4 --method monahan",
    "solve --model machine-replacement --horizon 3 --resolution 7",
    "solve --model machine-replacement --horizon 3 --grid-points 3",
    "solve --model machine-replacement --horizon 3 --epsilon 0.5",
    "solve --model example1 --method grid --resolution 4 --horizon 2 "
    "--grid-points 3",
    "solve --model machine-replacement --method lovejoy --horizon 2 "
    "--resolution 7",
    "solve --model machine-replacement --method lovejoy --horizon 2 "
    "--epsilon 0.5",
    "myopic --table1c --loss",
    "myopic --table1d --loss",
    "myopic --model machine-replacement --loss",
    "myopic --table1a --paths 10",
    "myopic --table1a --horizon 10",
    "myopic --model machine-replacement --paths 10",
    "myopic --table1a --model example3",
    "myopic --table1d --model example3",
    "myopic --table1a --table1c",
    "myopic --table1c --table1d",
    "filter --model machine-replacement --sandwich --steps 50 --seed 3 "
    "--rho 0.5",
]


@pytest.mark.parametrize("command", BAD_COUNTS + IGNORED_OPTIONS)
def test_bad_count_exit_code(command, capsys):
    # no traceback: an uncaught error would escape main(), and stderr
    # holds one JSON line
    assert main(command.split()) == 2
    assert_one_error_line(capsys, "DimensionMismatch")


# `solve --query` points that once ended in a traceback or were evaluated
# though they are not beliefs of the model
BAD_QUERIES = [
    ("0.4", "DimensionMismatch"),
    ("0.2,0.3,0.5", "DimensionMismatch"),
    ("1.5,-0.5", "NegativeEntry"),
    ("nan,nan", "NonStochasticRow"),
    ("0.4,x", "DimensionMismatch"),
]


@pytest.mark.parametrize("query, error", BAD_QUERIES)
def test_bad_query_exit_code(query, error, capsys):
    assert main(["solve", "--model", "machine-replacement",
                 "--query", query]) == 2
    assert_one_error_line(capsys, error)


@pytest.mark.parametrize("command, options", [
    ("solve", ["--horizon", "2"]), ("check", [])], ids=["solve", "check"])
def test_rho_on_model_file_exit_code(command, options, tmp_path, capsys):
    # a model file carries its own discount factor
    path = tmp_path / "model.json"
    path.write_text(json.dumps(REPLACEMENT_JSON))
    argv = [command, "--model", str(path), *options]
    assert main(argv + ["--rho", "0.5"]) == 2
    assert_one_error_line(capsys, "DimensionMismatch")
    assert main(argv) == 0
    assert load_model(str(path)).discount == 0.9


class TestSolveCommand:
    def test_preset_stagewise_json(self, capsys):
        rc = main(["solve", "--model", "machine-replacement",
                   "--horizon", "5", "--method", "ip"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        # the solve's prune counters are not part of the artifact
        assert set(doc) == {"error_bound", "discounted", "stages"}
        assert len(doc["stages"]) == 6
        assert doc["stages"][0]["stage"] == 5

    def test_serialization_round_trip(self, capsys):
        # the written sets rebuild the solve's value and policy
        assert main(["solve", "--model", "machine-replacement",
                     "--horizon", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = solve_finite_horizon(load_model("machine-replacement"), 3)
        sets = [vector_set([e["gamma"] for e in st["vectors"]],
                           [e["action"] for e in st["vectors"]],
                           stage=st["stage"])
                for st in doc["stages"]]
        assert [s.stage for s in sets] == [s.stage for s in res.stage_sets]
        for pi in uniform_simplex(make_rng(8), 20, 2):
            value, _, action = evaluate_value(sets[-1], pi)
            assert value == pytest.approx(res.value(pi))
            assert action == res.action(pi)

    def test_policy_query(self, capsys):
        rc = main(["solve", "--model", "machine-replacement",
                   "--horizon", "5", "--query", "0.4,0.6"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"value", "action"}
        assert doc["action"] in (1, 2)

    def test_model_file_round_trip(self, tmp_path, capsys):
        m = build_machine_replacement(0.3, 0.9, 0.8, 0.5, [1.0, 0.0],
                                      rho=0.9)
        path = tmp_path / "model.json"
        path.write_text(model_to_json(m))
        rc = main(["solve", "--model", str(path), "--epsilon", "1e-4"])
        assert rc == 0
        assert "stages" in capsys.readouterr().out

    def test_non_finite_cost_file_exit_code(self, tmp_path, capsys):
        doc = json.loads(model_to_json(build_machine_replacement(
            0.3, 0.9, 0.8, 0.5, [1.0, 0.0], rho=0.9)))
        doc["c"][0][1] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", "--model", str(path), "--epsilon", "1e-4"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "NegativeEntry"

    @pytest.mark.parametrize("argv", [["--horizon", "10"], []],
                             ids=["horizon-10", "discounted"])
    def test_search_preset_solves(self, argv, capsys):
        # both once died with LpNumericFailure (exit 2) in a pruning LP
        rc = main(["solve", "--model", "search"] + argv)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["discounted"] == (not argv)

    def test_unknown_preset_exit_code(self, capsys):
        rc = main(["solve", "--model", "nope", "--horizon", "2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    @pytest.mark.parametrize("model", ["machine-replacement", "qd-classical"])
    @pytest.mark.parametrize("epsilon", ["0", "-1e-6", "nan"])
    def test_nonpositive_epsilon_exit_code(self, model, epsilon, capsys):
        # --epsilon 0 once fell back to the default tolerance silently
        rc = main(["solve", "--model", model, f"--epsilon={epsilon}"])
        assert rc == 2
        assert "--epsilon" in json.loads(capsys.readouterr().err)["detail"]

    @pytest.mark.parametrize("argv", [
        ["example1", "--method", "grid", "--resolution", "0",
         "--horizon", "2"],
        ["example1", "--method", "grid", "--resolution", "-2",
         "--horizon", "2"],
        ["qd-classical", "--resolution", "0"],
        ["social", "--resolution", "0"],
        ["social", "--resolution", "-1"],
    ], ids=["grid-0", "grid-negative", "stopping-0", "social-0",
            "social-negative"])
    def test_degenerate_resolution_exit_code(self, argv, capsys):
        # resolution 0 once printed a nan grid with exit code 0, and a
        # negative one or a social grid of 0 points ended in a traceback
        assert main(["solve", "--model"] + argv) == 2
        assert "at least" in assert_one_error_line(
            capsys, "DimensionMismatch")["detail"]

    @pytest.mark.parametrize("case", list(MALFORMED_FILES))
    def test_malformed_model_file_exit_code(self, case, tmp_path, capsys):
        path = tmp_path / "model.json"
        if MALFORMED_FILES[case] is not None:
            path.write_text(MALFORMED_FILES[case])
        assert main(["solve", "--model", str(path), "--horizon", "2"]) == 2
        assert_one_error_line(capsys, "DimensionMismatch")

    def test_vector_budget_exit_code(self, tmp_path, capsys):
        # with 8 observations Monahan's third backup enumerates more
        # vectors than VECTOR_BUDGET
        rng = np.random.default_rng(0)
        doc = {"X": 3, "U": 2, "Y": 8,
               "P": rng.dirichlet(np.ones(3), size=(2, 3)).tolist(),
               "B": rng.dirichlet(np.ones(8), size=(2, 3)).tolist(),
               "c": rng.uniform(0, 1, (3, 2)).tolist(), "rho": 0.9}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--model", str(path), "--method", "monahan",
                     "--horizon", "3"]) == 4
        assert_one_error_line(capsys, "blowup")

    def test_stopping_preset_solves(self, capsys):
        assert main(["solve", "--model", "qd-classical",
                     "--resolution", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,value,stop"
        assert len(lines) == 202
        # node i has change probability i / 200: one stop threshold
        stop = [int(line.split(",")[2]) for line in lines[1:]]
        assert stop[0] == 0 and stop[-1] == 1
        assert stop == sorted(stop)

    def test_grid_method_on_three_states(self, monkeypatch, capsys):
        weights = count_calls(monkeypatch, grid, "barycentric_weights")
        assert main(["solve", "--model", "example1", "--method", "grid",
                     "--resolution", "20", "--horizon", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,value,action"
        assert len(lines) == 1 + 231     # comb(20 + 2, 2) lattice nodes
        assert weights


class TestCheckCommand:
    def test_assumption_report(self, capsys):
        rc = main(["check", "--model", "example1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("C", "F1", "F2", "F3", "F4", "S"):
            assert key in doc
        assert doc["F1"]["status"] == "Holds"

    def test_f3_decided_on_every_preset(self, capsys):
        # preset -> (action pair, Gamma index (j, y), value) when F3 fails
        table = {
            "example1": None, "example4": None, "qd-ph": None,
            "qd-classical": None,
            "example2": ((1, 2), (9, 5), -5.7288e-12),
            "example3": ((4, 5), (2, 2), -8.4e-9),
            "machine-replacement": ((1, 2), (1, 1), -0.18),
            "search": ((1, 2), (1, 1), -0.095175),
            "sampling": ((1, 2), (2, 1), -0.09),
        }
        for name, expected in table.items():
            assert main(["check", "--model", name]) == 0
            f3 = json.loads(capsys.readouterr().out)["F3"]
            if expected is None:
                assert f3 == {"status": "Holds"}
                continue
            assert f3["status"] == "Fails"
            w = f3["witness"]
            assert (tuple(w["action_pair"]), tuple(w["index"])) \
                == expected[:2]
            assert w["value"] == pytest.approx(expected[2], rel=1e-4)
            # pi' Gamma pi summed entry by entry in rationals, from the
            # preset's own float matrices
            m = load_model(name)
            (u, u1), (j, y) = w["action_pair"], w["index"]
            P, B, P1, B1 = (np.asarray(M).tolist() for M in
                            (m.P(u), m.B(u), m.P(u1), m.B(u1)))
            F = [Fraction(p) for p in w["belief"]]
            pi = [p / sum(F) for p in F]
            s = Fraction(B[j - 1][y - 1]) * Fraction(B1[j][y - 1])
            t = Fraction(B[j][y - 1]) * Fraction(B1[j - 1][y - 1])
            exact = sum(
                pi[i] * pi[k] * (s * Fraction(P[i][j - 1])
                                 * Fraction(P1[k][j])
                                 - t * Fraction(P[i][j])
                                 * Fraction(P1[k][j - 1]))
                for i in range(len(pi)) for k in range(len(pi)))
            assert exact < -ORDER_TOL
            assert float(exact) == pytest.approx(w["value"], rel=1e-14)


class TestFilterCommand:
    def test_sandwich_csv(self, capsys):
        rc = main(["filter", "--model", "qd-ph", "--sandwich",
                   "--steps", "50", "--seed", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("k,map_lower")
        assert len(lines) == 51

    def test_pomdp_sandwich_orders_the_map_states(self, capsys):
        rc = main(["filter", "--model", "machine-replacement", "--sandwich",
                   "--steps", "50", "--seed", "1"])
        assert rc == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        assert header.startswith("k,map_lower,map_exact,map_upper")
        assert len(rows) == 50
        for row in rows:
            lower, exact, upper = map(int, row.split(",")[1:4])
            assert lower <= exact <= upper


class TestMyopicCommand:
    def test_table_csv_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["myopic", "--table1a", "--samples", "20000",
                "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "rho,vol,L1,L2"

    def test_table1a_is_exact(self, capsys):
        # example1 has 3 states, so its fixed-pair volumes draw no samples
        outs = []
        for samples in ("1000", "1000000"):
            assert main(["myopic", "--table1a", "--samples", samples,
                         "--seed", "1"]) == 0
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] == outs[1]

    def test_table1c_volumes(self, capsys):
        rc = main(["myopic", "--table1c", "--samples", "2000",
                   "--seed", "0"])
        assert rc == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        assert header == "rho,vol,L1,L2"
        assert len(rows) == 6
        for row in rows:
            assert 0.0 <= float(row.split(",")[1]) <= 100.0

    def test_single_model_row(self, capsys):
        rc = main(["myopic", "--model", "example1", "--rho", "0.5",
                   "--samples", "5000", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_one_action_model_exit_code(self, tmp_path, capsys):
        doc = {"X": 2, "U": 1, "Y": 2, "P": [[[0.9, 0.1], [0.2, 0.8]]],
               "B": [[[0.7, 0.3], [0.4, 0.6]]], "c": [[1.0], [0.0]],
               "rho": 0.9}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["myopic", "--model", str(path)]) == 3
        err = assert_one_error_line(capsys, "infeasible")
        assert "overlap maximization needs U = 2" in err["detail"]

    def test_table1d_per_belief_bytes(self, capsys):
        # per-belief bounds on example3; digest recorded when each bound
        # was still decided by one simplex LP per (belief, action)
        rc = main(["myopic", "--table1d", "--samples", "300",
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "5e757d4f06c41bc5a27792ed5a4ccfd9"
            "d801a4fa7923db5de413e551e72c3a06")

    @pytest.mark.parametrize("args, samples", [
        (["--table1d", "--samples", "40000"], 40_000),
        (["--table1d"], 20_000),
        (["--model", "example3", "--rho", "0.5"], 1_000_000),
    ])
    def test_samples_reach_overlap_volume(self, monkeypatch, capsys, args,
                                          samples):
        from pomdpkit import myopic

        seen = []

        def fake_volume(model, pair=None, **kwargs):
            seen.append(kwargs["n_samples"])
            return 0.5, 0.0

        monkeypatch.setattr(myopic, "overlap_volume", fake_volume)
        assert main(["myopic", *args, "--seed", "1"]) == 0
        assert seen and set(seen) == {samples}


class TestSpsaCommand:
    def test_fit_summary(self, capsys):
        rc = main(["spsa", "--model", "qd-ph", "--iterations", "120",
                   "--restarts", "2", "--paths", "400", "--seed", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["theta"]) == 2
        assert doc["sampled_cost"] > 0

    def test_trace_csv(self, capsys):
        rc = main(["spsa", "--model", "qd-ph", "--iterations", "20",
                   "--restarts", "1", "--paths", "10", "--seed", "7",
                   "--trace"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,phi1,phi2,cost"
        assert len(lines) == 21


class TestBanditCommand:
    def test_benchmark_overlap(self, capsys):
        rc = main(["bandit", "--episodes", "300", "--steps", "30",
                   "--seed", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "ci_overlap" in doc


class TestCompareCommand:
    def test_mdp_direction(self, capsys):
        rc = main(["compare", "--kind", "mdp", "--seed", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["status"] == "Holds"

    def test_blackwell_direction(self, capsys):
        rc = main(["compare", "--kind", "blackwell", "--seed", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["status"] == "Holds"


class TestSimulateCommand:
    def test_trajectory_csv(self, capsys):
        rc = main(["simulate", "--model", "machine-replacement",
                   "--rho", "0.9", "--steps", "25", "--seed", "8"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("k,x,y,u,pi1")
        assert len(lines) == 26


class TestSocialAndLovejoyPaths:
    def test_social_preset_solves(self, capsys):
        rc = main(["solve", "--model", "social", "--resolution", "300"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "pi2,value,stop"
        assert len(lines) == 302
        # nodes k / 300, as for every other model kind
        assert lines[2].split(",")[0] == f"{1 / 300:.12g}"

    @pytest.mark.parametrize("resolution", [999, 1000, 1001])
    def test_social_explicit_resolution_is_used(self, resolution, capsys):
        rc = main(["solve", "--model", "social",
                   "--resolution", str(resolution)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == resolution + 2

    def test_lovejoy_emits_bounds(self, capsys):
        rc = main(["solve", "--model", "machine-replacement",
                   "--horizon", "4", "--method", "lovejoy",
                   "--grid-points", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for lo, hi in zip(doc["lower_values"], doc["upper_values"]):
            assert lo <= hi + 1e-9

    def test_dict_preset_outside_its_command(self, capsys):
        rc = main(["simulate", "--model", "social", "--steps", "3"])
        assert rc == 2
        err = assert_one_error_line(capsys, "DimensionMismatch")
        assert "'social' is a social model" in err["detail"]
