"""End-to-end command tests driven through cli.main with in-process capture."""
import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from nonadapt import (
    OracleString,
    QueryState,
    build_function,
    build_parity_algorithm,
    load_plan,
    save_function,
    save_state,
)
from nonadapt import algorithms, cli, learning, qstate
from nonadapt.cli import build_parser, main
from nonadapt.learning import (
    ClassicalOracle,
    amplitude_profile,
    check_pairwise_overlaps,
    classical_learn,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_concepts(tmp_path, n, words, name="concepts.txt"):
    path = tmp_path / name
    path.write_text(f"{n} {len(words)}\n" + "".join(w + "\n" for w in words))
    return str(path)


class TestVerifyBound:
    def test_parity_state_passes(self, tmp_path, capsys):
        alg = build_parity_algorithm(4)
        state = tmp_path / "state.json"
        table = tmp_path / "parity4.txt"
        save_state(alg.psi, state)
        save_function(build_function("parity", 4), table)
        code, out, _ = run_cli(capsys, "verify-bound", "--in", str(state), "--table", str(table))
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["n"] == 4 and data["n_eff"] == 4 and data["k"] == 2
        assert data["weights"] == pytest.approx([0.5] * 4)
        assert data["eps_lower_bound"] == pytest.approx(0.0)
        assert data["theorem1_rhs"] == pytest.approx(2.0)
        assert data["run_id"] == "verify-bound-state-parity4-seed0"

    def test_unqueried_relevant_variable(self, tmp_path, capsys):
        a = 1 / math.sqrt(2)
        psi = QueryState(2, 1, {((0,), 0): a, ((1,), 0): a})
        state = tmp_path / "state.json"
        table = tmp_path / "parity2.txt"
        save_state(psi, state)
        save_function(build_function("parity", 2), table)
        code, out, _ = run_cli(capsys, "verify-bound", "--in", str(state), "--table", str(table))
        assert code == 0
        data = json.loads(out)
        # variable 2 is never queried, so the error floor is a coin flip
        assert data["eps_lower_bound"] == pytest.approx(0.5)
        assert data["theorem1_rhs"] == pytest.approx(0.0)

    def test_constant_function_rejected(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        table = tmp_path / "const.txt"
        save_state(build_parity_algorithm(2).psi, state)
        table.write_text("2\n0000\n")
        code, _, err = run_cli(capsys, "verify-bound", "--in", str(state), "--table", str(table))
        assert code == 2
        assert "error:" in err

    def test_malformed_state_file(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        table = tmp_path / "parity2.txt"
        state.write_text("{not json")
        save_function(build_function("parity", 2), table)
        code, _, err = run_cli(capsys, "verify-bound", "--in", str(state), "--table", str(table))
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("entry", [
        {"tuple": [1.5], "a": 0},
        {"tuple": [1], "a": True},
        {"tuple": [1], "a": 0, "n": 2.0},  # "n" and "k" go to the record's header
        {"tuple": [1], "a": 0, "k": True},
    ])
    def test_non_integer_index_or_ancilla_rejected(self, tmp_path, capsys, entry):
        state = tmp_path / "state.json"
        table = tmp_path / "parity2.txt"
        entry = dict(entry)
        header = {key: entry.pop(key) for key in ("n", "k") if key in entry}
        record = {"n": 2, "k": 1, "ancilla_dim": 2, **header,
                  "entries": [{**entry, "re": 1.0, "im": 0.0}]}
        state.write_text(json.dumps(record))
        save_function(build_function("parity", 2), table)
        code, _, err = run_cli(capsys, "verify-bound", "--in", str(state), "--table", str(table))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("n", ["-1", "1000000000"])
    def test_table_n_out_of_range(self, tmp_path, capsys, n):
        state = tmp_path / "state.json"
        table = tmp_path / "table.txt"
        save_state(build_parity_algorithm(2).psi, state)
        table.write_text(f"{n}\n0110\n")
        code, out, err = run_cli(capsys, "verify-bound", "--in", str(state), "--table", str(table))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "n must be in [1, 20]" in err and err.count("\n") == 1

    def test_missing_flag(self, capsys):
        code, _, err = run_cli(capsys, "verify-bound")
        assert code == 2
        assert "--in" in err


class TestVandam:
    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "vandam", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,success,closed_form,match"
        assert len(lines) == 6
        closed = [line.split(",")[2] for line in lines[1:]]
        assert closed == ["0.0625", "0.3125", "0.6875", "0.9375", "1.0"]
        assert all(line.split(",")[3] == "true" for line in lines[1:])

    def test_single_k_json(self, capsys):
        code, out, _ = run_cli(capsys, "vandam", "--n", "8", "--k", "4")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 1
        row = data["rows"][0]
        assert row["closed_form"] == pytest.approx(163 / 256)
        assert row["success"] == pytest.approx(163 / 256, abs=1e-9)
        assert row["match"] is True

    def test_smallest_instance(self, capsys):
        code, out, _ = run_cli(capsys, "vandam", "--n", "1", "--k", "1")
        assert code == 0
        assert json.loads(out)["rows"][0]["success"] == pytest.approx(1.0)

    def test_refuses_large_n(self, capsys):
        code, _, err = run_cli(capsys, "vandam", "--n", "64")
        assert code == 2
        assert "63" in err

    def test_k_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "vandam", "--n", "4", "--k", "5")
        assert code == 2

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "vandam", "--n", "6", "--seed", "11")
        _, second, _ = run_cli(capsys, "vandam", "--n", "6", "--seed", "11")
        assert first == second


class TestParityCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "parity", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["k"] == 2
        assert data["worst_case_error"] <= 1e-9
        assert data["success_min"] == pytest.approx(1.0)
        assert data["theorem1_rhs"] == pytest.approx(1.5)

    def test_csv_refused(self, capsys):
        code, _, _ = run_cli(capsys, "parity", "--n", "3", "--format", "csv")
        assert code == 2

    @pytest.mark.parametrize("n, half", [(21, 11), (30, 15)])
    def test_too_large_refused_before_building(self, capsys, monkeypatch, n, half):
        monkeypatch.setattr(algorithms, "parity_registers", None)  # any build attempt fails
        code, out, err = run_cli(capsys, "parity", "--n", str(n))
        assert (code, out) == (2, "")
        assert err == (
            f"error: parity evaluator for n = {n} needs 2^{half} effects of 2^{half} "
            "entries each; refusing beyond n = 20\n"
        )

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "parity.json"
        code, out, _ = run_cli(capsys, "parity", "--n", "4", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["n"] == 4


class TestBvCommand:
    def test_b3(self, capsys):
        code, out, _ = run_cli(capsys, "bv", "--b", "3")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 7 and data["k"] == 1 and data["concepts"] == 8
        assert data["success_min"] == pytest.approx(1.0)
        assert data["min_distinguishing_size"] == 3
        assert data["pass"] is True

    def test_missing_b(self, capsys):
        code, _, _ = run_cli(capsys, "bv")
        assert code == 2


class TestLearnCommand:
    def test_bv_plan_to_file(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code, out, _ = run_cli(
            capsys, "learn", "--learner", "bv", "--b", "3", "--seed", "7",
            "--out", str(plan_path),
        )
        assert code == 0
        audit = json.loads(out)
        assert audit["m"] == 8 and audit["k"] == 1
        assert audit["bound"] == 12
        assert audit["base_query_count"] <= 12
        assert audit["exact_min"] == 3
        assert audit["verified_all_concepts"] is True
        assert audit["plan_path"] == str(plan_path)
        assert "plan" not in audit
        assert audit["pairs_checked"] == 8 * 7 // 2
        concepts, alg = algorithms.build_hadamard_instance(3)
        worst = check_pairwise_overlaps(amplitude_profile(alg.psi), concepts, 0.0).worst()
        assert audit["overlap_margins"] == [{
            "i": worst.i, "j": worst.j, "overlap_sq": worst.overlap_sq,
            "margin": audit["overlap_bound"] - worst.overlap_sq, "ok": True,
        }]
        plan = load_plan(plan_path)
        assert len(plan.base_queries) == audit["base_query_count"]
        for idx, x in enumerate(plan.concepts.concepts):
            assert classical_learn(plan, ClassicalOracle(x)).concept_index == idx

    def test_vandam_learner_inline_plan(self, capsys):
        code, out, _ = run_cli(
            capsys, "learn", "--learner", "vandam", "--n", "4", "--k", "3",
            "--eps", "0.0625", "--seed", "3",
        )
        assert code == 0
        audit = json.loads(out)
        assert audit["m"] == 16
        assert audit["bound"] == 94
        assert audit["verified_all_concepts"] is True
        assert audit["exact_min"] == 4
        assert sorted(audit["plan"]["base_queries"]) == [1, 2, 3, 4]

    def test_exact_min_null_past_search_budget(self, capsys, monkeypatch):
        # the exact search of the 16-concept class on n = 4 tests one 4-subset: 16 cells
        monkeypatch.setattr(learning, "MAX_EXACT_CELLS", 15)
        code, out, _ = run_cli(
            capsys, "learn", "--learner", "vandam", "--n", "4", "--k", "3",
            "--eps", "0.0625", "--seed", "3",
        )
        assert code == 0
        audit = json.loads(out)
        assert audit["exact_min"] is None and audit["verified_all_concepts"] is True

    def test_state_learner_single_concept(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        save_state(build_parity_algorithm(2).psi, state)
        concepts = write_concepts(tmp_path, 2, ["01"])
        code, out, _ = run_cli(
            capsys, "learn", "--learner", "state", "--in", str(state),
            "--concepts", concepts,
        )
        assert code == 0
        audit = json.loads(out)
        assert audit["m"] == 1
        assert audit["plan"]["base_queries"] == []
        assert audit["overlap_margins"] is None

    @pytest.mark.parametrize("words", [["01"], ["01", "10"]])
    @pytest.mark.parametrize("eps", ["7", "-1"])
    def test_eps_checked_for_any_class_size(self, tmp_path, capsys, words, eps):
        state = tmp_path / "state.json"
        save_state(build_parity_algorithm(2).psi, state)
        concepts = write_concepts(tmp_path, 2, words)
        code, out, err = run_cli(
            capsys, "learn", "--learner", "state", "--in", str(state),
            "--concepts", concepts, "--eps", eps,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "eps" in err and err.count("\n") == 1

    @pytest.mark.parametrize("words", [["01"], ["01", "10"]])
    def test_state_normalization_checked_for_any_class_size(self, tmp_path, capsys, words):
        state = tmp_path / "state.json"
        save_state(QueryState(2, 1, {((1,), 0): 0.5}), state)
        concepts = write_concepts(tmp_path, 2, words)
        code, out, err = run_cli(
            capsys, "learn", "--learner", "state", "--in", str(state), "--concepts", concepts,
        )
        assert (code, out) == (2, "")
        assert err == "error: state must be normalized\n"

    @pytest.mark.parametrize("n, k, bits, pairs", [(10, 5, 164915200, 523776),
                                                   (12, 2, 688128, 8386560)])
    def test_too_large_refused_before_building(self, capsys, monkeypatch, n, k, bits, pairs):
        monkeypatch.setattr(learning, "tensor_power_class", None)  # any build attempt fails
        code, out, err = run_cli(
            capsys, "learn", "--learner", "vandam", "--n", str(n), "--k", str(k)
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: plan for m = {1 << n} concepts and k = {k} queries needs a tensor class "
            f"of {bits} bits and {pairs} pair checks; refusing beyond 16777216 bits or "
            "131072 pairs\n"
        )

    def test_state_learner_requires_concepts(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        save_state(build_parity_algorithm(2).psi, state)
        code, _, err = run_cli(capsys, "learn", "--learner", "state", "--in", str(state))
        assert code == 2
        assert "--concepts" in err

    def test_duplicate_concepts_rejected(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        save_state(build_parity_algorithm(2).psi, state)
        concepts = write_concepts(tmp_path, 2, ["01", "01"])
        code, _, _ = run_cli(
            capsys, "learn", "--learner", "state", "--in", str(state),
            "--concepts", concepts,
        )
        assert code == 2

    def test_infeasible_error_rate_exits_one(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        save_state(QueryState(2, 1, {((0,), 0): 1.0}), state)
        concepts = write_concepts(tmp_path, 2, ["00", "11"])
        code, _, err = run_cli(
            capsys, "learn", "--learner", "state", "--in", str(state),
            "--concepts", concepts, "--eps", "0.1",
        )
        assert code == 1
        assert "overlap" in err

    @staticmethod
    def patch_decoder(monkeypatch, edit):
        """Make build_classical_plan return plans whose (keys, decoder) arrays went through edit."""
        make_plan = learning.make_plan

        def edited(c, base):
            plan = make_plan(c, base)
            keys, decoder = edit(plan.keys.copy(), plan.decoder.copy())
            return dataclasses.replace(plan, keys=keys, decoder=decoder)

        monkeypatch.setattr(learning, "make_plan", edited)

    def test_verification_catches_swapped_indices(self, capsys, monkeypatch):
        def swap(keys, decoder):
            a, b = np.flatnonzero(decoder < 2)  # the keys of concepts 0 and 1
            decoder[[a, b]] = decoder[[b, a]]
            return keys, decoder

        self.patch_decoder(monkeypatch, swap)
        code, out, _ = run_cli(
            capsys, "learn", "--learner", "vandam", "--n", "3", "--k", "2", "--eps", "0.0625"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verified_all_concepts"] is False
        # the printed table is the tampered one
        assert payload["plan"]["decoder_table"]["000"] == 1

    def test_verification_catches_missing_pattern(self, capsys, monkeypatch):
        def drop(keys, decoder):
            keep = keys != learning.pattern_keys(np.array([[1, 0, 1]], dtype=np.uint8))[0]
            assert keep.sum() == len(keys) - 1
            return keys[keep], decoder[keep]

        self.patch_decoder(monkeypatch, drop)
        code, out, err = run_cli(
            capsys, "learn", "--learner", "vandam", "--n", "3", "--k", "2", "--eps", "0.0625"
        )
        assert (code, out) == (2, "")
        assert err == "error: observed pattern (1, 0, 1) matches no concept in the class\n"

    @pytest.mark.parametrize("argv, want", [
        (["--learner", "vandam", "--n", "8", "--k", "4", "--eps", "0.0625"], 0),
        (["--learner", "bv", "--b", "4"], 0),
        (["--learner", "vandam", "--n", "6", "--k", "3", "--eps", "0"], 1),
    ])
    def test_no_parser_build_or_oracle_string_per_call(self, capsys, monkeypatch, argv, want):
        # learn works on bit matrices and reuses the parser built by the first call
        run_cli(capsys, "learn", "--learner", "bv", "--b", "2")

        def fail(*args, **kwargs):
            raise AssertionError("built on the learn path")

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", fail)
        monkeypatch.setattr(qstate.OracleString, "__post_init__", fail)
        code, out, err = run_cli(capsys, "learn", *argv)
        assert code == want
        if want == 0:
            assert json.loads(out)["verified_all_concepts"] is True
        else:
            assert out == "" and "cannot be correct" in err

    def test_cached_parser_keeps_no_state(self, tmp_path, capsys):
        args = ("learn", "--learner", "vandam", "--n", "3", "--k", "2", "--eps", "0.0625")
        plan_path = tmp_path / "plan.json"
        code, out, _ = run_cli(capsys, *args, "--seed", "7", "--out", str(plan_path))
        assert code == 0
        assert json.loads(out)["seed"] == 7 and plan_path.exists()
        code, out, _ = run_cli(capsys, *args)
        audit = json.loads(out)
        assert code == 0
        assert audit["seed"] == 0 and "plan" in audit and "plan_path" not in audit
        assert build_parser() is build_parser()
        assert build_parser().parse_args(list(args)) == build_parser.__wrapped__().parse_args(
            list(args)
        )

    def test_byte_identical_reruns(self, capsys):
        args = ("learn", "--learner", "bv", "--b", "2", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["--learner", "vandam", "--n", "4", "--k", "3", "--eps", "0.0625"],
        ["--learner", "bv", "--b", "3"],
    ])
    def test_plan_does_not_depend_on_seed(self, capsys, argv):
        records = []
        for seed in ("0", "7"):
            code, out, _ = run_cli(capsys, "learn", *argv, "--seed", seed)
            assert code == 0
            record = json.loads(out)
            assert record.pop("seed") == int(seed)
            assert record.pop("run_id").endswith(f"-seed{seed}")
            records.append(json.dumps(record, sort_keys=True))
        assert records[0] == records[1]


class TestExtractSet:
    def test_uniform_profile_json(self, tmp_path, capsys):
        concepts = write_concepts(tmp_path, 3, ["000", "011", "101"])
        code, out, _ = run_cli(
            capsys, "extract-set", "--concepts", concepts, "--k", "6",
            "--trials", "4", "--seed", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["trials"] == 4
        assert data["k_draws"] == 6
        assert len(data["results"]) == 4
        for res in data["results"]:
            assert len(res["draws"]) == 6
            assert res["index_set"] == sorted(set(res["index_set"]))

    def test_profile_from_state(self, tmp_path, capsys):
        concepts = write_concepts(tmp_path, 2, ["00", "01"])
        state = tmp_path / "state.json"
        a = 1 / math.sqrt(2)
        save_state(QueryState(2, 1, {((0,), 0): a, ((2,), 0): a}), state)
        code, out, _ = run_cli(
            capsys, "extract-set", "--concepts", concepts, "--k", "8",
            "--in", str(state), "--seed", "5",
        )
        assert code == 0
        data = json.loads(out)
        for res in data["results"]:
            assert set(res["draws"]) <= {0, 2}

    def test_csv_format(self, tmp_path, capsys):
        concepts = write_concepts(tmp_path, 3, ["000", "011", "101"])
        code, out, _ = run_cli(
            capsys, "extract-set", "--concepts", concepts, "--k", "5",
            "--trials", "3", "--seed", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "trial,distinguishing,set_size,index_set"
        assert len(lines) == 4

    def test_deterministic(self, tmp_path, capsys):
        concepts = write_concepts(tmp_path, 3, ["000", "011", "101"])
        args = ("extract-set", "--concepts", concepts, "--k", "7", "--trials", "5",
                "--seed", "13")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_negative_concept_count_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("2 -2\n01\n10\n11\n")
        code, out, err = run_cli(capsys, "extract-set", "--concepts", str(path), "--k", "4")
        assert (code, out) == (3, "")
        assert err == f"error: {path}: line 1: concept count m = -2 is negative\n"

    def test_trials_validated(self, tmp_path, capsys):
        concepts = write_concepts(tmp_path, 2, ["00", "01"])
        code, _, _ = run_cli(
            capsys, "extract-set", "--concepts", concepts, "--k", "5", "--trials", "0",
        )
        assert code == 2

    def test_draw_count_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a refused run drew")

        monkeypatch.setattr(cli, "sample_index_set", never)
        concepts = write_concepts(tmp_path, 2, ["00", "01"])
        limit = cli.MAX_EXTRACT_DRAWS
        code, out, err = run_cli(
            capsys, "extract-set", "--concepts", concepts, "--k", "513", "--trials", "512",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --k 513 times --trials 512 is 262656 draws; refusing beyond {limit}\n"
        assert 513 * 512 > limit

    def test_draw_count_at_the_limit_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_EXTRACT_DRAWS", 12)
        concepts = write_concepts(tmp_path, 2, ["00", "01"])
        argv = ("extract-set", "--concepts", concepts, "--k", "4")
        assert run_cli(capsys, *argv, "--trials", "3")[0] == 0
        assert run_cli(capsys, *argv, "--trials", "4")[0] == 2


class TestEntrypointPlumbing:
    def test_unknown_command_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_report_is_not_a_command(self, capsys):
        # merging run records is a job for the shell; argparse refuses the name
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["verify-bound", "--table", "parity2.txt"],
        ["extract-set", "--concepts", "concepts.txt", "--k", "2"],
    ])
    @pytest.mark.parametrize("re_im", [(1e308, 1e308), (1.5e308, 1.5e308)])
    def test_overflowing_amplitude_rejected(self, tmp_path, capsys, monkeypatch, command, re_im):
        monkeypatch.chdir(tmp_path)
        save_function(build_function("parity", 2), "parity2.txt")
        write_concepts(tmp_path, 2, ["01", "10"])
        record = {"n": 2, "k": 1, "entries": [{"tuple": [1], "a": 0, "re": re_im[0],
                                               "im": re_im[1]}]}
        (tmp_path / "state.json").write_text(json.dumps(record))
        code, out, err = run_cli(capsys, *command, "--in", "state.json")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "magnitude > 1" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["verify-bound", "--table", "parity2.txt"],
        ["extract-set", "--concepts", "concepts.txt", "--k", "2"],
    ])
    @pytest.mark.parametrize("re_im", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_amplitude_rejected(self, tmp_path, capsys, monkeypatch, command, re_im):
        # json reads NaN and Infinity; neither may pass as a magnitude above 1
        monkeypatch.chdir(tmp_path)
        save_function(build_function("parity", 2), "parity2.txt")
        write_concepts(tmp_path, 2, ["01", "10"])
        record = {"n": 2, "k": 1, "entries": [{"tuple": [1], "a": 0, "re": re_im[0],
                                               "im": re_im[1]}]}
        (tmp_path / "state.json").write_text(json.dumps(record))
        code, out, err = run_cli(capsys, *command, "--in", "state.json")
        assert (code, out) == (2, "")
        assert err.startswith("error: state entry ((1,), 0): amplitude") and err.count("\n") == 1
        assert err.rstrip().endswith("is not finite")

    @pytest.mark.parametrize("command", [
        ["learn", "--learner", "state", "--concepts", "concepts.txt"],
        ["extract-set", "--concepts", "concepts.txt", "--k", "2"],
    ])
    def test_state_with_huge_k_refused(self, tmp_path, capsys, monkeypatch, command):
        # (n+1)^k has over 4,300 decimal digits, more than Python prints by default
        monkeypatch.chdir(tmp_path)
        k = 15000
        record = {"n": 1, "k": k, "entries": [{"tuple": [1] * k, "a": 0, "re": 1.0, "im": 0.0}]}
        (tmp_path / "state.json").write_text(json.dumps(record))
        write_concepts(tmp_path, 1, ["0", "1"])
        code, out, err = run_cli(capsys, *command, "--in", "state.json")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "at least 2^15000" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, broken", [
        (["verify-bound", "--in", "state.json", "--table", "parity2.txt"], "state.json"),
        (["verify-bound", "--in", "state.json", "--table", "parity2.txt"], "parity2.txt"),
        (["extract-set", "--concepts", "concepts.txt", "--k", "2"], "concepts.txt"),
    ])
    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys, monkeypatch, command,
                                            broken):
        # one loader per file: load_state, load_function, load_concept_class
        monkeypatch.chdir(tmp_path)
        save_state(build_parity_algorithm(2).psi, "state.json")
        save_function(build_function("parity", 2), "parity2.txt")
        write_concepts(tmp_path, 2, ["01", "10"])
        text = (tmp_path / broken).read_bytes()
        (tmp_path / broken).write_bytes(text[:5] + b"\xff" + text[5:])
        code, out, err = run_cli(capsys, *command)
        assert (code, out) == (3, "")
        assert err == f"error: {broken}: byte 6 is not UTF-8 text\n"

    def test_oracle_string_round_trip_through_files(self, tmp_path, capsys):
        # states written by one command are readable by another
        alg = build_parity_algorithm(3)
        state = tmp_path / "s.json"
        table = tmp_path / "t.txt"
        save_state(alg.psi, state)
        save_function(build_function("parity", 3), table)
        code, out, _ = run_cli(capsys, "verify-bound", "--in", str(state), "--table", str(table))
        assert code == 0
        assert json.loads(out)["k"] == alg.k

