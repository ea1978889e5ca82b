import pytest

from phonomem import Alphabet, enumerate_branch_space
from phonomem.export import branch_to_dot, branch_to_json

EXPORTS = (branch_to_json, branch_to_dot)


@pytest.mark.parametrize("export", EXPORTS)
def test_a_foreign_alphabet_is_refused(latin, latin_model, turkish, export):
    # Turkish has more symbols than Latin, so every Latin index is in range
    # and would print as the Turkish symbol of the same index.
    space = enumerate_branch_space(latin_model, (), 2, 3)
    assert turkish.alphabet.d >= latin.alphabet.d
    with pytest.raises(ValueError, match="alphabet does not match the model alphabet"):
        export(space, turkish.alphabet, latin.words)


@pytest.mark.parametrize("export", EXPORTS)
def test_an_equal_alphabet_exports_as_the_model_alphabet(latin, latin_model, export):
    space = enumerate_branch_space(latin_model, (), 2, 3)
    equal = Alphabet(latin_model.alphabet.symbols)
    assert equal is not latin_model.alphabet
    assert export(space, equal, latin.words) == export(space, latin_model.alphabet, latin.words)
