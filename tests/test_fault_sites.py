"""Every exit-3 check of the library has a test that reaches it.

The checks are the `raise InternalInconsistencyError(...)` and `raise
DegenerateGradingError(...)` statements in src/flagample, collected with
`ast`.  `SITES` names, for each, the test that reaches it and the message
that test asserts.  A new check fails here until it has an entry, and an
entry whose check is gone fails too.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SOURCE = TESTS.parent / "src" / "flagample"
ERRORS = {"InternalInconsistencyError", "DegenerateGradingError"}

# (module, message) -> (test file, test function, message it asserts); a
# "{}" in the message stands for a formatted value, and a message that is
# no string literal reads as "{}"
SITES = {
    ("classify", "verdict {} disagrees with the structural test ({})"): (
        "test_cli.py",
        "test_route_disagreement_exits_3",
        "verdict Pseudoconcave disagrees with the structural test (q cap s "
        "contained in s_minus)",
    ),
    ("dynkin", "disconnected diagram"): (
        "test_dynkin.py",
        "test_disconnected_diagram_is_refused",
        "disconnected diagram",
    ),
    ("realform", "{}"): (
        "test_cli.py",
        "test_orbit_pass_faults_exit_3",
        "the orbit is not its positive roots and their negatives",
    ),
    ("realform", "compact span has rank deficiency {}"): (
        "test_cli.py",
        "test_grading_of_rank_deficiency_two_exits_3",
        "compact span has rank deficiency 2",
    ),
    (
        "realform",
        "compact span has rank deficiency {}, but the diagram functional {} "
        "K's simple roots",
    ): (
        "test_cli.py",
        "test_central_functional_disagreement_exits_3",
        "compact span has rank deficiency 1, but the diagram functional misses "
        "K's simple roots",
    ),
    ("realform", "central functional kills a noncompact root"): (
        "test_cli.py",
        "test_xi_split_faults_exit_3",
        "central functional kills a noncompact root",
    ),
    ("realform", "xi-halves are not opposite"): (
        "test_cli.py",
        "test_xi_split_faults_exit_3",
        "xi-halves are not opposite",
    ),
    ("rootsystem", "root coefficient above 6"): (
        "test_cli.py",
        "test_orbit_pass_faults_exit_3",
        "root coefficient above 6",
    ),
    ("rootsystem", "non-integral coroot pairing between roots"): (
        "test_rootsystem.py",
        "test_reflection_row_refuses_a_non_integral_pairing",
        "non-integral coroot pairing between roots",
    ),
    ("rootsystem", "subsystem root outside simple span"): (
        "test_cli.py",
        "test_orbit_pass_refuses_a_corrupt_reflection_row",
        "subsystem root outside simple span",
    ),
    ("rootsystem", "root closure miscounted"): (
        "test_rootsystem.py",
        "test_build_refuses_a_corrupt_cartan_matrix",
        "root closure miscounted",
    ),
    ("rootsystem", "positive roots are not half the roots"): (
        "test_rootsystem.py",
        "test_build_refuses_a_corrupt_cartan_matrix",
        "positive roots are not half the roots",
    ),
    ("snow", "semisimple k but several maximal noncompact weights"): (
        "test_cli.py",
        "test_closed_form_faults_exit_3",
        "semisimple k but several maximal noncompact weights",
    ),
    ("snow", "k has a center but the noncompact module does not split in two"): (
        "test_cli.py",
        "test_closed_form_faults_exit_3",
        "k has a center but the noncompact module does not split in two",
    ),
    ("snow", "xi-half without a unique highest weight"): (
        "test_cli.py",
        "test_closed_form_faults_exit_3",
        "xi-half without a unique highest weight",
    ),
    ("snow", "identity not in the search set: maximal weights escape the fiber"): (
        "test_cli.py",
        "test_identity_off_the_fiber_exits_3",
        "identity not in the search set: maximal weights escape the fiber",
    ),
    ("snow", "enumerated inverse images disagree with the witness's action"): (
        "test_cli.py",
        "test_enumeration_disagreeing_with_the_word_exits_3",
        "enumerated inverse images disagree with the witness's action",
    ),
    (
        "snow",
        "no pair admits any group element: maximal weights escape the fiber",
    ): (
        "test_cli.py",
        "test_coset_search_faults_exit_3",
        "no pair admits any group element: maximal weights escape the fiber",
    ),
    ("snow", "maximal weights escape the fiber"): (
        "test_cli.py",
        "test_coset_search_faults_exit_3",
        "maximal weights escape the fiber",
    ),
    (
        "snow",
        "maximal weights disagree: combinatorial {} vs case analysis {} (root "
        "indices)",
    ): (
        "test_cli.py",
        "test_unverified_check_exits_3",
        "maximal weights disagree: combinatorial (5,) vs case analysis (1, 5) "
        "(root indices)",
    ),
    ("snow", "search methods disagree on the {}: fast {} vs brute force {}"): (
        "test_cli.py",
        "test_route_disagreement_exits_3",
        "search methods disagree on the length: fast 2 vs brute force 1",
    ),
    ("snow", "ampleness {} outside 0..dim_C={}"): (
        "test_cli.py",
        "test_unverified_check_exits_3",
        "ampleness 2 outside 0..dim_C=1",
    ),
    ("snow", "witness length mismatch"): (
        "test_cli.py",
        "test_short_witness_exits_3",
        "witness length mismatch",
    ),
    ("weyl", "weight walk did not terminate"): (
        "test_cli.py",
        "test_w0_walk_faults_exit_3",
        "weight walk did not terminate",
    ),
    ("weyl", "sum of the positive subsystem roots is not 2 on every simple coroot"): (
        "test_cli.py",
        "test_w0_walk_from_a_wrong_start_exits_3",
        "sum of the positive subsystem roots is not 2 on every simple coroot",
    ),
    ("weyl", "longest-element walk has wrong length"): (
        "test_cli.py",
        "test_w0_walk_faults_exit_3",
        "longest-element walk has wrong length",
    ),
    ("weyl", "longest-element walk does not end at an opposition involution"): (
        "test_cli.py",
        "test_w0_walk_faults_exit_3",
        "longest-element walk does not end at an opposition involution",
    ),
    (
        "weyl",
        "coset maximum disagrees with the count of K's positive roots that pair "
        "nonpositively with nu",
    ): (
        "test_cli.py",
        "test_coset_maximum_off_the_closed_form_exits_3",
        "coset maximum disagrees with the count of K's positive roots that pair "
        "nonpositively with nu",
    ),
    ("weyl", "coset maximum length mismatch between routes"): (
        "test_cli.py",
        "test_coset_search_faults_exit_3",
        "coset maximum length mismatch between routes",
    ),
    ("weyl", "canonical word does not reduce to rho"): (
        "test_cli.py",
        "test_coset_search_faults_exit_3",
        "canonical word does not reduce to rho",
    ),
    ("weyl", "witness does not map nu to mu"): (
        "test_cli.py",
        "test_coset_search_faults_exit_3",
        "witness does not map nu to mu",
    ),
}


def _message(node):
    """The message a raise passes, with "{}" for each formatted value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{}" for v in node.values
        )
    return "{}"


def _sites():
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) in ERRORS
            ):
                yield path.stem, _message(node.exc.args[0])


def _strings(path, name):
    """The string constants of the test function `name` in the test file,
    its decorators included, and of the module-level assignments it
    reads."""
    tree = ast.parse((TESTS / path).read_text(encoding="utf-8"))
    (func,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name
    ]
    read = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
    nodes = [func] + [
        n
        for n in tree.body
        if isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in read for t in n.targets)
    ]
    return [
        c.value
        for node in nodes
        for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]


def test_every_site_has_an_entry():
    """The sites collected from the source are the entries, each once."""
    assert Counter(_sites()) == Counter(SITES.keys())


@pytest.mark.parametrize("site", sorted(SITES), ids=lambda site: site[1][:40])
def test_entry_names_a_test_that_asserts_the_message(site):
    """The entry's message is one the site can raise, and its test names
    it in a string of its own (a whole message or an expected stderr
    line)."""
    path, name, message = SITES[site]
    pattern = ".+".join(map(re.escape, site[1].split("{}")))
    assert re.fullmatch(pattern, message)
    assert any(message in s for s in _strings(path, name)), (path, name)
