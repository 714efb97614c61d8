"""`catalog list` and `catalog show` output, byte for byte.

The strings are literal recordings of the CLI's output, so a change to a
description, a signature, a show default or a constructor shows up here as
a diff.
"""
import pytest

from eqslice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


LIST_TEXT = (
    'figure_eight: amphichiral twist knot; inversion conjugates the cyclic generator\n'
    'generalized_twist(b, c=1): even two-bridge family [b,b+2]+ in the genus-one shape, (m,l) = (b/2, 1)\n'
    'genus_one_slice(m, l, c=1): genus-one algebraically slice shape [[0,m+1],[m,l]]\n'
    'nine46: pretzel presentation of the slice knot with two coprime cyclic summands; factor-swapping inversion\n'
    'pretzel(a, c=1): odd pretzel family P(a,-a,a) in the genus-one shape, (m,l) = ((a-1)/2, a)\n'
    'stevedore: genus-one slice twist knot; inversion negates and conjugates the cyclic generator\n'
    'swap_double(inner=trefoil): connected sum of a knot and its reverse with the factor-swapping inversion\n'
    'trefoil: cyclic module with symmetric order; conjugation inversion\n'
    'twist_ka(a): amphichiral twist family with irreducible order polynomial\n'
)

LIST_JSON = (
    '{"builtins": [{"description": "amphichiral twist knot; inversion conjugates the cyclic generator", '
    '"name": "figure_eight", '
    '"params": ""}, {"description": "even two-bridge family [b,b+2]+ in the genus-one shape, (m,l) = (b/2, 1)", '
    '"name": "generalized_twist", '
    '"params": "b, c=1"}, {"description": "genus-one algebraically slice shape [[0,m+1],[m,l]]", '
    '"name": "genus_one_slice", '
    '"params": "m, l, c=1"}, {"description": "pretzel presentation of the slice knot with two coprime cyclic summands; factor-swapping inversion", '
    '"name": "nine46", '
    '"params": ""}, {"description": "odd pretzel family P(a,-a,a) in the genus-one shape, (m,l) = ((a-1)/2, a)", '
    '"name": "pretzel", '
    '"params": "a, c=1"}, {"description": "genus-one slice twist knot; inversion negates and conjugates the cyclic generator", '
    '"name": "stevedore", '
    '"params": ""}, {"description": "connected sum of a knot and its reverse with the factor-swapping inversion", '
    '"name": "swap_double", '
    '"params": "inner=trefoil"}, {"description": "cyclic module with symmetric order; conjugation inversion", '
    '"name": "trefoil", '
    '"params": ""}, {"description": "amphichiral twist family with irreducible order polynomial", '
    '"name": "twist_ka", '
    '"params": "a"}]}\n'
)

SHOW_TEXT = {
    'figure_eight': (
        'schema=1\n'
        'name=figure_eight\n'
        'params=\n'
        'seifert=1,1;0,-1\n'
        'involution=1,-1 + t^-1;0,0\n'
        'notes=amphichiral twist knot; inversion conjugates the cyclic generator\n'
    ),
    'generalized_twist': (
        'schema=1\n'
        'name=generalized_twist\n'
        'params=b=2,c=1\n'
        'seifert=0,2;1,1\n'
        'involution=-t,-t + 2;0,0\n'
        'notes=even two-bridge family [b,b+2]+ in the genus-one shape, (m,l) = (b/2, 1)\n'
    ),
    'genus_one_slice': (
        'schema=1\n'
        'name=genus_one_slice\n'
        'params=c=1,l=1,m=1\n'
        'seifert=0,2;1,1\n'
        'involution=-t,-t + 2;0,0\n'
        'notes=genus-one algebraically slice shape [[0,m+1],[m,l]]\n'
    ),
    'nine46': (
        'schema=1\n'
        'name=nine46\n'
        'params=\n'
        'seifert=0,2;1,0\n'
        'involution=0,1;1,0\n'
        'notes=pretzel presentation of the slice knot with two coprime cyclic summands; factor-swapping inversion\n'
    ),
    'pretzel': (
        'schema=1\n'
        'name=pretzel\n'
        'params=a=3,c=1\n'
        'seifert=0,2;1,3\n'
        'involution=-t,-1/3*t + 2/3;0,0\n'
        'notes=odd pretzel family P(a,-a,a) in the genus-one shape, (m,l) = ((a-1)/2, a)\n'
    ),
    'stevedore': (
        'schema=1\n'
        'name=stevedore\n'
        'params=\n'
        'seifert=0,2;1,1\n'
        'involution=-1,-1 + 2*t^-1;0,0\n'
        'notes=genus-one slice twist knot; inversion negates and conjugates the cyclic generator; equals genus_one_slice(1, 1, c=2)\n'
    ),
    'swap_double': (
        'schema=1\n'
        'name=swap_double\n'
        'params=inner=trefoil\n'
        'seifert=-1,1,0,0;0,-1,0,0;0,0,-1,0;0,0,1,-1\n'
        'involution=swap\n'
        'notes=connected sum of a knot and its reverse with the factor-swapping inversion; inner = trefoil\n'
    ),
    'trefoil': (
        'schema=1\n'
        'name=trefoil\n'
        'params=\n'
        'seifert=-1,1;0,-1\n'
        'involution=1,1 - t^-1;0,0\n'
        'notes=cyclic module with symmetric order; conjugation inversion\n'
    ),
    'twist_ka': (
        'schema=1\n'
        'name=twist_ka\n'
        'params=a=1\n'
        'seifert=1,0;1,-1\n'
        'involution=0,0;1 - t^-1,1\n'
        'notes=amphichiral twist family with irreducible order polynomial\n'
    ),
}

SHOW_JSON = {
    'figure_eight': (
        '{"spec": "schema=1\\n'
        'name=figure_eight\\n'
        'params=\\n'
        'seifert=1,1;0,-1\\n'
        'involution=1,-1 + t^-1;0,0\\n'
        'notes=amphichiral twist knot; inversion conjugates the cyclic generator\\n'
        '"}\n'
    ),
    'generalized_twist': (
        '{"spec": "schema=1\\n'
        'name=generalized_twist\\n'
        'params=b=2,c=1\\n'
        'seifert=0,2;1,1\\n'
        'involution=-t,-t + 2;0,0\\n'
        'notes=even two-bridge family [b,b+2]+ in the genus-one shape, (m,l) = (b/2, 1)\\n'
        '"}\n'
    ),
    'genus_one_slice': (
        '{"spec": "schema=1\\n'
        'name=genus_one_slice\\n'
        'params=c=1,l=1,m=1\\n'
        'seifert=0,2;1,1\\n'
        'involution=-t,-t + 2;0,0\\n'
        'notes=genus-one algebraically slice shape [[0,m+1],[m,l]]\\n'
        '"}\n'
    ),
    'nine46': (
        '{"spec": "schema=1\\n'
        'name=nine46\\n'
        'params=\\n'
        'seifert=0,2;1,0\\n'
        'involution=0,1;1,0\\n'
        'notes=pretzel presentation of the slice knot with two coprime cyclic summands; factor-swapping inversion\\n'
        '"}\n'
    ),
    'pretzel': (
        '{"spec": "schema=1\\n'
        'name=pretzel\\n'
        'params=a=3,c=1\\n'
        'seifert=0,2;1,3\\n'
        'involution=-t,-1/3*t + 2/3;0,0\\n'
        'notes=odd pretzel family P(a,-a,a) in the genus-one shape, (m,l) = ((a-1)/2, a)\\n'
        '"}\n'
    ),
    'stevedore': (
        '{"spec": "schema=1\\n'
        'name=stevedore\\n'
        'params=\\n'
        'seifert=0,2;1,1\\n'
        'involution=-1,-1 + 2*t^-1;0,0\\n'
        'notes=genus-one slice twist knot; inversion negates and conjugates the cyclic generator; equals genus_one_slice(1, 1, c=2)\\n'
        '"}\n'
    ),
    'swap_double': (
        '{"spec": "schema=1\\n'
        'name=swap_double\\n'
        'params=inner=trefoil\\n'
        'seifert=-1,1,0,0;0,-1,0,0;0,0,-1,0;0,0,1,-1\\n'
        'involution=swap\\n'
        'notes=connected sum of a knot and its reverse with the factor-swapping inversion; inner = trefoil\\n'
        '"}\n'
    ),
    'trefoil': (
        '{"spec": "schema=1\\n'
        'name=trefoil\\n'
        'params=\\n'
        'seifert=-1,1;0,-1\\n'
        'involution=1,1 - t^-1;0,0\\n'
        'notes=cyclic module with symmetric order; conjugation inversion\\n'
        '"}\n'
    ),
    'twist_ka': (
        '{"spec": "schema=1\\n'
        'name=twist_ka\\n'
        'params=a=1\\n'
        'seifert=1,0;1,-1\\n'
        'involution=0,0;1 - t^-1,1\\n'
        'notes=amphichiral twist family with irreducible order polynomial\\n'
        '"}\n'
    ),
}


def test_list_text(capsys):
    assert run(capsys, "catalog", "list") == (0, LIST_TEXT)


def test_list_json(capsys):
    assert run(capsys, "catalog", "list", "--json") == (0, LIST_JSON)


def test_every_listed_builtin_is_shown():
    listed = [line.split(":")[0].split("(")[0] for line in LIST_TEXT.splitlines()]
    assert sorted(SHOW_TEXT) == sorted(SHOW_JSON) == listed


@pytest.mark.parametrize("name", sorted(SHOW_TEXT))
def test_show_text(capsys, name):
    assert run(capsys, "catalog", "show", name) == (0, SHOW_TEXT[name])


@pytest.mark.parametrize("name", sorted(SHOW_JSON))
def test_show_json(capsys, name):
    assert run(capsys, "catalog", "show", name, "--json") == (0, SHOW_JSON[name])
