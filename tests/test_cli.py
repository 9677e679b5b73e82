"""Command-line front end: artifacts, determinism and exit codes."""

import hashlib
import json

import numpy as np
import pytest

from pomdpkit.cli import main
from pomdpkit.model import model_to_json
from pomdpkit.apps import build_machine_replacement

# stdout sha256 of the nine README commands, the social-learning stop and
# the Lovejoy bounds, as recorded in CHANGES.md
GOLDEN = [
    ("solve --model machine-replacement --horizon 5 --method ip",
     "6d3a4fcef939db4ffceb7376c4e0ab54ef2d2e9820b49f01cc880c39f0189cde"),
    ("solve --model machine-replacement --rho 0.9 --epsilon 1e-6 "
     "--query 0.4,0.6",
     "8f850d7caac184b8b5d8334b3060b993b2ab7d96068f0000cd394633f15edc80"),
    ("check --model example1",
     "bcb40f06da2a4789bf362dfa3723495227363003ce1bc7e35a8ccdb177040adf"),
    ("myopic --table1a --samples 1000000 --seed 1",
     "90ca8c9230bf22773edede35f69aa2cd84b2703026b7291877fb92818ff97836"),
    ("myopic --table1a --loss --paths 1000 --horizon 100 --seed 1",
     "2ca25df268910703a750f32719930f9894aa63a68df8f9c5017dadbcc4244ada"),
    ("filter --model qd-ph --sandwich --steps 200 --seed 3",
     "cce9a6961a4260407682fa66ad2b98663a250a453c465b6fd05dc439dcc23c96"),
    ("spsa --model qd-ph --iterations 2000 --restarts 5 --seed 11",
     "35f26a3a6ce49d9a4099bac496b78683ba989629a32595cf410b9b6e65c6d399"),
    ("bandit --episodes 1000 --seed 2",
     "69bb00a276ec1247041395c9b5bbd80661acd45b7927fc8a009c5ff2ff7e48a6"),
    ("compare --kind blackwell --seed 0",
     "34163f331e9fd4591a184bc1ba007f441bff041a8744269a11f3c2fadef51a08"),
    ("solve --model social",
     "ae656c6859a5c8bfba57fb3d22546e72625708c7cd63511f1bf6c04f0cc2c76f"),
    ("solve --model machine-replacement --horizon 4 --method lovejoy",
     "30dbb80bd249cb48cd9e33506d5a1781b8e6393495e65d73299b586e36af9489"),
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


class TestSolveCommand:
    def test_preset_stagewise_json(self, capsys):
        rc = main(["solve", "--model", "machine-replacement",
                   "--horizon", "5", "--method", "ip"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["stages"]) == 6
        assert doc["stages"][0]["stage"] == 5

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


class TestCheckCommand:
    def test_assumption_report(self, capsys):
        rc = main(["check", "--model", "example1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("C", "F1", "F2", "F3", "F4", "S"):
            assert key in doc
        assert doc["F1"]["status"] == "Holds"


class TestFilterCommand:
    def test_sandwich_csv(self, capsys):
        rc = main(["filter", "--model", "qd-ph", "--sandwich",
                   "--steps", "50", "--seed", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("k,map_lower")
        assert len(lines) == 51


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

    def test_single_model_row(self, capsys):
        rc = main(["myopic", "--model", "example1", "--rho", "0.5",
                   "--samples", "5000", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

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
        assert len(lines) == 26


class TestSocialAndLovejoyPaths:
    def test_social_preset_solves(self, capsys):
        rc = main(["solve", "--model", "social", "--resolution", "300"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "pi2,value,stop"
        assert len(lines) == 301

    def test_lovejoy_emits_bounds(self, capsys):
        rc = main(["solve", "--model", "machine-replacement",
                   "--horizon", "4", "--method", "lovejoy",
                   "--grid-points", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for lo, hi in zip(doc["lower_values"], doc["upper_values"]):
            assert lo <= hi + 1e-9

    def test_dict_preset_outside_its_command(self, capsys):
        rc = main(["solve", "--model", "bandit", "--horizon", "3"])
        assert rc == 2
