import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eqslice.catalog import CatalogError
from eqslice.cli import EXIT_INTERNAL, build_parser, main, resolve_spec
from eqslice.matrices import DegreeCapError, inverse_qt
from cases import SINGULAR_DENSE, swap_double


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

    def test_exponent_at_the_degree_cap_is_read(self, capsys):
        code, out, err = run(capsys, "pair", "nine46", "--x", "t^512,0", "--y", "0,t^-512")
        assert (code, err) == (0, "")
        assert out.startswith("pair = (")

    @pytest.mark.parametrize("command", ["pair", "tau"])
    @pytest.mark.parametrize("x", ["t^513,0", "0,1 + t^-513"])
    def test_exponent_beyond_the_degree_cap_exit_2(self, capsys, command, x):
        extra = ["--y", "0,1"] if command == "pair" else []
        code, out, err = run(capsys, command, "nine46", "--x", x, *extra)
        assert (code, out) == (2, "")
        assert err == "error: an exponent exceeds the degree cap 512 in absolute value\n"

    def test_tau_swap(self, capsys):
        code, out, _ = run(capsys, "tau", "nine46", "--x", "t,0")
        assert code == 0
        assert "tau(x) = (0, t^-1)" in out

    def test_bad_vector_length(self, capsys):
        code, _, err = run(capsys, "pair", "nine46", "--x", "1", "--y", "0,1")
        assert code == 2
        assert "error" in err


class TestInternalErrors:
    @pytest.mark.parametrize(
        "error",
        [
            DegreeCapError("intermediate degree 600 exceeds cap 512"),
            RuntimeError("Smith normal form failed to converge"),
        ],
    )
    def test_guard_in_the_smith_form(self, capsys, monkeypatch, error):
        def failing_snf(M):
            raise error

        # alexander reads the rational model; obstruct still takes the Smith
        # form, for its RationalBasis
        monkeypatch.setattr("eqslice.modules.snf", failing_snf)
        code, out, err = run(capsys, "obstruct", "nine46")
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err == f"internal error: {type(error).__name__}: {error}\n"

    def test_certificate_self_check(self, capsys, monkeypatch):
        # the stored parts read as 1 / (t - 3) at every sample
        monkeypatch.setattr("eqslice.obstruction._certificate_value", lambda cert, v: ([1], [-3, 1]))
        code, out, err = run(capsys, "obstruct", "nine46", "--json")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("internal error: RuntimeError: quadratic certificate disagrees")


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

    def test_trefoil_is_undecided(self, capsys):
        # certify_k0's last route: no partition, combination or falsifier decides
        code, out, err = run(capsys, "obstruct", "trefoil", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["verdict"] == "INCONCLUSIVE"
        assert payload["certificate"]["verdict"] == "UNDECIDED"
        assert payload["certificate"]["evidence"] == {"falsifier_samples": 300}


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

    def test_undecided_trefoil_bounds_nothing(self, capsys):
        code, out, err = run(capsys, "genus-bound", "trefoil")
        assert (code, err) == (0, "")
        assert "bound_integer = 0" in out.splitlines()
        assert "certificate = UNDECIDED" in out.splitlines()

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

    @pytest.mark.parametrize(
        "ref, name, params",
        [
            ("genus_one_slice:m=3,l=5", "genus_one_slice", {"m": 3, "l": 5}),
            ("pretzel: a=5 , c=2/3", "pretzel", {"a": 5, "c": "2/3"}),
            ("swap_double:inner=figure_eight", "swap_double", {"inner": "figure_eight"}),
            ("nine46:", "nine46", {}),
        ],
    )
    def test_show_reads_builtin_references(self, capsys, ref, name, params):
        from eqslice.catalog import builtin, format_spec

        text = format_spec(builtin(name, **params))
        assert run(capsys, "catalog", "show", ref) == (0, text, "")
        code, out, err = run(capsys, "catalog", "show", ref, "--json")
        assert (code, json.loads(out), err) == (0, {"spec": text}, "")

    @pytest.mark.parametrize(
        "ref, message",
        [
            ("genus_one_slice:m=x,l=5", "parameter m must be an integer"),
            ("genus_one_slice:", "missing required parameter 'm'"),
            ("nine46:a=1", "unexpected parameters"),
            ("twist_ka:a", "bad parameter"),
            ("nope", "unknown builtin 'nope'"),
            ("nope:a=1", "unknown builtin 'nope'"),
        ],
    )
    def test_show_refuses_bad_references(self, capsys, ref, message):
        code, out, err = run(capsys, "catalog", "show", ref)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_show_without_a_name_exit_2(self, capsys):
        code, out, err = run(capsys, "catalog", "show")
        assert (code, out) == (2, "")
        assert err == "error: catalog show requires a builtin name\n"


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

    def test_failing_axioms_exit_1_from_obstruct(self, capsys, tmp_path):
        # the file parses, and assemble refuses the triple it builds
        bad = tmp_path / "bad.knot"
        bad.write_text("schema=1\nname=bad\nseifert=0,2;1,0\ninvolution=1,0;0,1\n")
        code, out, err = run(capsys, "obstruct", str(bad))
        assert (code, out) == (1, "")
        assert err == "validation failed: involution_well_defined, involutive, anti_isometry\n"

    def test_non_conjugate_swap_exit_2(self, capsys, tmp_path):
        # figure eight beside a trefoil: two blocks, not conjugate presentations
        bad = tmp_path / "bad.knot"
        bad.write_text(
            "schema=1\nname=bad\nseifert=1,1,0,0;0,-1,0,0;0,0,-1,1;0,0,0,-1\ninvolution=swap\n"
        )
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: blocks are not conjugate presentations; swap is not well defined\n"

    def test_non_conjugate_swap_exit_2_from_obstruct(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        bad.write_text(
            "schema=1\nname=bad\nseifert=1,1,0,0;0,-1,0,0;0,0,-1,1;0,0,0,-1\ninvolution=swap\n"
        )
        code, out, err = run(capsys, "obstruct", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: blocks are not conjugate presentations; swap is not well defined\n"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        bad.write_text("schema=1\nname=bad\nseifert=0,1;1,0\ninvolution=swap\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize("key", ["schema", "name", "seifert", "involution"])
    def test_missing_key_exit_2_without_a_line(self, capsys, tmp_path, key):
        # a missing key is a fault of the whole file, so no line is named
        lines = ["schema=1", "name=k", "seifert=0,2;1,0", "involution=0,1;1,0"]
        bad = tmp_path / "bad.knot"
        bad.write_text("".join(f"{line}\n" for line in lines if not line.startswith(f"{key}=")))
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: missing required key {key!r}\n"

    def test_repeated_parameter_exit_2(self, capsys, tmp_path):
        # the later value must not silently replace the earlier one
        bad = tmp_path / "bad.knot"
        bad.write_text("schema=1\nname=bad\nparams=a=1,a=2\nseifert=0,2;1,0\ninvolution=0,1;1,0\n")
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: line 3: duplicate parameter 'a'\n"

    def test_dangling_star_exit_2(self, capsys, tmp_path):
        # read as 2 before, this cell gave a map that fails the axioms (exit 1)
        bad = tmp_path / "bad.knot"
        bad.write_text("schema=1\nname=bad\nseifert=0,2;1,0\ninvolution=0,2*;1,0\n")
        code, out, err = run(capsys, "alexander", str(bad))
        assert (code, out) == (2, "")
        assert "line 4" in err and "expected 't' after '*'" in err

    def test_oversize_coefficient_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        big = "1" + "0" * 4300
        bad.write_text(f"schema=1\nname=bad\nseifert=0,2;1,0\ninvolution=0,{big};1,0\n")
        code, out, err = run(capsys, "alexander", str(bad))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200 and "4300" in err

    def test_oversize_seifert_entry_not_echoed(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        bad.write_text(f"schema=1\nname=bad\nseifert=0,{'1' + '0' * 4300};1,0\ninvolution=swap\n")
        code, out, err = run(capsys, "alexander", str(bad))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200 and "line 3" in err

    @pytest.mark.parametrize("entry", ["0_0", "\u0660", "1/2", "1/0", "1e0"])
    def test_seifert_entry_outside_the_integer_grammar_exit_2(self, capsys, tmp_path, entry):
        # int() reads "0_0" and the Arabic-Indic zero as 0, which made nine46
        bad = tmp_path / "bad.knot"
        bad.write_text(f"schema=1\nname=bad\nseifert=0,2;1,{entry}\ninvolution=swap\n", encoding="utf-8")
        code, out, err = run(capsys, "alexander", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: bad integer row") and err.count("\n") == 1

    def test_seifert_entries_read_as_integer_parameters(self, capsys, tmp_path):
        # the grammar of m=4/2 in a builtin reference: an integral fraction is its integer
        outs = []
        for row in ("0,2;1,0", "0,4/2;+1,-0/3"):
            spec = tmp_path / "k.knot"
            spec.write_text(f"schema=1\nname=k\nseifert={row}\ninvolution=0,1;1,0\n")
            code, out, err = run(capsys, "alexander", str(spec))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_exponent_at_the_degree_cap_is_read(self, capsys, tmp_path):
        # the involution fails the axioms (exit 1), but the entry is read
        spec = tmp_path / "k.knot"
        spec.write_text("schema=1\nname=k\nseifert=0,2;1,0\ninvolution=0,t^-512;t^512,0\n")
        code, out, err = run(capsys, "verify", str(spec))
        assert (code, err) == (1, "")
        assert out.endswith("FAILED: involutive, anti_isometry\n")

    @pytest.mark.parametrize("exponent", ["513", "-513"])
    def test_exponent_beyond_the_degree_cap_exit_2(self, capsys, tmp_path, exponent):
        # an exponent just past the cap, so that without the bound the run
        # ends at once with another code instead of exhausting memory
        bad = tmp_path / "bad.knot"
        bad.write_text(f"schema=1\nname=bad\nseifert=0,2;1,0\ninvolution=0,t^{exponent};1,0\n")
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            f"error: line 4: bad polynomial 't^{exponent}': "
            "an exponent exceeds the degree cap 512 in absolute value\n"
        )

    def test_oversize_exponent_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        big = "1" + "0" * 5000
        bad.write_text(f"schema=1\nname=bad\nseifert=0,2;1,0\ninvolution=0,t^{big};1,0\n")
        code, out, err = run(capsys, "alexander", str(bad))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200
        assert "line 4" in err and "exponent" in err and "4300" in err


# Each builtin with parameters gets a missing, a non-integer, an unknown and
# an out-of-range one; genus_one_slice also a bad rational c, swap_double a
# bad inner; nine46 a parameter it does not take and malformed references.
# Numbers outside the coefficient grammar (exponents, decimals) and repeated
# parameters are refused.
BAD_PARAMETERS = [
    "genus_one_slice:l=1",
    "genus_one_slice:m=1/2,l=1",
    "genus_one_slice:m=1,l=1,x=2",
    "genus_one_slice:m=0,l=1",
    "genus_one_slice:m=1,l=0",
    "genus_one_slice:m=1,l=x",
    "genus_one_slice:m=1,l=1,c=0",
    "genus_one_slice:m=1,l=1,c=abc",
    "genus_one_slice:m=1,l=1,c=1/0",
    "twist_ka",
    "twist_ka:a=1/2",
    "twist_ka:a=1,b=2",
    "twist_ka:a=0",
    "pretzel",
    "pretzel:a=3/2",
    "pretzel:a=3,z=1",
    "pretzel:a=4",
    "generalized_twist",
    "generalized_twist:b=2.5",
    "generalized_twist:b=2,q=1",
    "generalized_twist:b=3",
    "swap_double:foo=1",
    "swap_double:inner=nonesuch",
    "swap_double:inner=genus_one_slice",
    "nine46:a=1",
    "nine46:name=1",
    "nine46:a",
    "nine46:a=1,",
    "twist_ka:a=1e5000",
    "genus_one_slice:m=1,l=1,c=1e-3",
    "pretzel:a=3.0",
    "genus_one_slice:m=1,m=3,l=5",
]


class TestUsage:
    @pytest.mark.parametrize("ref", BAD_PARAMETERS)
    def test_bad_builtin_parameter(self, capsys, ref):
        with pytest.raises(CatalogError):
            resolve_spec(ref)
        code, out, err = run(capsys, "alexander", ref)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversize_parameter_exit_2(self, capsys):
        code, out, err = run(capsys, "alexander", "twist_ka:a=1" + "0" * 4300)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200 and "4300" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "alexander", "nonesuch")
        assert code == 2
        assert "error" in err

    def test_missing_spec_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.knot")
        code, out, err = run(capsys, "obstruct", missing)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        rest = err.replace(missing, "")
        assert rest != err and "file" in rest and "builtin" in rest

    def test_directory_is_not_a_spec_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "obstruct", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and str(tmp_path) in err

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "sum", "nine46", "-o", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--json", "--quiet"])
    def test_flags_follow_the_subcommand(self, capsys, flag):
        assert run(capsys, "obstruct", "nine46", flag)[0] == 0
        assert run(capsys, flag, "obstruct", "nine46")[0] == 2

    def test_missing_command(self, capsys):
        assert run(capsys, )[0] == 2


class TestParserCache:
    """main builds its parser once per process; each later call prints
    what the same call prints in a fresh process."""

    RUNS = [["obstruct"], ["obstruct", "--json", "nine46"], ["catalog", "show", "nine46"]]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_runs_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        # argparse wraps its messages at $COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": src}
        codes = []
        for argv in self.RUNS:
            got = run(capsys, *argv)
            fresh = subprocess.run([sys.executable, "-m", "eqslice.cli", *argv], capture_output=True, text=True, env=env)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(got[0])
        assert codes == [2, 0, 0]


class TestSingularSeifertMatrix:
    """The swap double A + A^T of a Seifert matrix with det A = 0.

    Its module has no rational model, so the gram comes from the
    interpolated inverse and membership from the Smith form; no benchmark
    workload reaches this path.
    """

    COUNTEREXAMPLE_CERTIFICATE = {
        "counterexample": ["0", "0", "0", "0", "0", "32/3", "0", "0"],
        "dimension": 4,
        "evidence": {"coordinates": ["1", "0", "0", "0"]},
        "parts": [{"denominator": "t^4 - 31/8*t^3 + 1473/256*t^2 - 31/8*t + 1", "forms": 4}],
        "seed": 0,
        "verdict": "COUNTEREXAMPLE",
    }

    @pytest.fixture
    def spec(self, tmp_path, monkeypatch):
        n = len(SINGULAR_DENSE)
        rows = swap_double(SINGULAR_DENSE)
        path = tmp_path / "singular_swap.knot"
        seifert = ";".join(",".join(str(x) for x in row) for row in rows)
        path.write_text(f"schema=1\nname=singular_swap\nseifert={seifert}\ninvolution=swap\n")
        calls = []

        def counted(M):
            calls.append(M.rows)
            return inverse_qt(M)

        monkeypatch.setattr("eqslice.pairing.inverse_qt", counted)
        yield str(path)
        assert calls and set(calls) == {2 * n}

    def test_verify(self, capsys, spec):
        code, out, err = run(capsys, "verify", spec)
        assert (code, err) == (0, "")
        axioms = (
            "torsion hermitian pairing_well_defined nonsingular involution_well_defined"
            " involutive anti_isometry one_minus_t_invertible"
        )
        assert out == "".join(f"{name}: pass\n" for name in axioms.split()) + "ok\n"

    def test_obstruct_json(self, capsys, spec):
        code, out, err = run(capsys, "obstruct", spec, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "certificate": self.COUNTEREXAMPLE_CERTIFICATE,
            "reason": "no k = 0 certificate was found",
            "seed": 0,
            "spec": spec,
            "verdict": "INCONCLUSIVE",
        }

    def test_genus_bound_json(self, capsys, spec):
        code, out, err = run(capsys, "genus-bound", spec, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "bound_integer": 0,
            "bound_rational": "0",
            "certificate": self.COUNTEREXAMPLE_CERTIFICATE,
            "grk": 2,
            "k_upper": 2,
            "seed": 0,
        }
