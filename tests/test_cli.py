import json

import pytest

from eqslice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlexander:
    def test_figure_eight(self, capsys):
        code, out, _ = run(capsys, "alexander", "figure_eight")
        assert code == 0
        assert "alexander = t - 3 + t^-1" in out
        assert "grk = 1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "alexander", "figure_eight", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alexander"] == "t - 3 + t^-1"
        assert payload["grk"] == 1


class TestBlanchfield:
    def test_nine46_gram(self, capsys):
        # canonical reduced representatives: -(t-1)/(t-2) = -1/(t-2) mod the ring
        code, out, _ = run(capsys, "blanchfield", "nine46")
        assert code == 0
        assert "(-1)/(t - 2)" in out
        assert "(1/4)/(t - 1/2)" in out


class TestPairAndTau:
    def test_pair_value(self, capsys):
        code, out, _ = run(capsys, "pair", "nine46", "--x", "1,0", "--y", "0,1")
        assert code == 0
        assert "pair =" in out

    def test_tau_swap(self, capsys):
        code, out, _ = run(capsys, "tau", "nine46", "--x", "t,0")
        assert code == 0
        assert "tau(x) = (0, t^-1)" in out

    def test_bad_vector_length(self, capsys):
        code, _, err = run(capsys, "pair", "nine46", "--x", "1", "--y", "0,1")
        assert code == 2
        assert "error" in err


class TestObstruct:
    def test_nine46(self, capsys):
        code, out, _ = run(capsys, "obstruct", "nine46")
        assert code == 0
        assert "NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE" in out

    def test_json_round_trip_and_determinism(self, capsys):
        code1, out1, _ = run(capsys, "obstruct", "nine46", "--json", "--seed", "3")
        code2, out2, _ = run(capsys, "obstruct", "nine46", "--json", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["verdict"] == "NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE"
        assert payload["seed"] == 3

    def test_batch_matches_sequential(self, capsys):
        code, batch_out, _ = run(capsys, "obstruct", "nine46", "figure_eight", "--json")
        assert code == 0
        batch = json.loads(batch_out)["results"]
        singles = []
        for ref in ("nine46", "figure_eight"):
            _, out, _ = run(capsys, "obstruct", ref, "--json")
            singles.append(json.loads(out))
        for got, expected in zip(batch, singles):
            assert got == expected


class TestGenusBound:
    def test_four_fold_nine46(self, capsys, tmp_path):
        target = tmp_path / "sum4.knot"
        code, _, _ = run(
            capsys, "sum", "nine46", "nine46", "nine46", "nine46", "-o", str(target)
        )
        assert code == 0
        code, out, _ = run(capsys, "genus-bound", str(target))
        assert code == 0
        assert "bound_rational = 1" in out
        assert "bound_integer = 1" in out

    def test_k_upper_flag(self, capsys):
        code, out, _ = run(capsys, "genus-bound", "swap_double:inner=trefoil", "--k-upper", "1")
        assert code == 0
        assert "k_upper = 1" in out

    @pytest.mark.parametrize("ref", ["nine46", "trefoil"])
    def test_negative_k_upper_is_a_usage_error(self, capsys, ref):
        # nine46 certifies k = 0 and used to ignore the flag; trefoil rejected it
        code, out, err = run(capsys, "genus-bound", ref, "--k-upper", "-1")
        assert code == 2
        assert out == ""
        assert "must be nonnegative" in err


class TestAmphichiral:
    def test_a3_n2(self, capsys):
        code, out, _ = run(capsys, "amphichiral", "--a", "3", "--n", "2")
        assert code == 0
        assert "NOT_EQUIVARIANTLY_SLICE" in out


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        for name in ("nine46", "figure_eight", "stevedore", "twist_ka", "swap_double"):
            assert name in out

    def test_show_round_trips(self, capsys):
        from eqslice.catalog import parse_spec, builtin

        code, out, _ = run(capsys, "catalog", "show", "nine46")
        assert code == 0
        assert parse_spec(out) == builtin("nine46")


class TestVerify:
    def test_valid_spec(self, capsys):
        code, out, _ = run(capsys, "verify", "nine46")
        assert code == 0
        assert "ok" in out

    def test_corrupted_file_names_axiom(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        bad.write_text(
            "schema=1\nname=bad\nparams=\nseifert=0,2;1,0\ninvolution=1,0;0,1\nnotes=\n"
        )
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "involution_well_defined" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        bad.write_text("schema=1\nname=bad\nseifert=0,1;1,0\ninvolution=swap\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "line" in err


class TestUsage:
    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "alexander", "nonesuch")
        assert code == 2
        assert "error" in err

    def test_missing_command(self, capsys):
        assert run(capsys, )[0] == 2
