"""The committed CLI corpus: every command's output is pinned byte for byte."""

import pytest

import corpus


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return corpus.run_all(tmp_path_factory.mktemp("corpus"))


def test_every_run_keeps_the_exit_contract(results):
    breaches = {line: found for line, result in results.items()
                if (found := corpus.contract_breaches(result))}
    assert breaches == {}


def test_every_run_matches_its_pinned_digest(results):
    # a command whose output changes on purpose is re-pinned with
    # `python tests/corpus.py --pin`, and the change names it
    golden = corpus.read_golden()
    assert list(golden) == list(results)
    changed = [line for line, result in results.items()
               if corpus.digest(result) != golden[line]]
    assert changed == []


def test_the_corpus_reaches_every_subcommand_and_exit_code(results):
    reached = {" ".join(word for word in line.split()[:2] if not word.startswith("@"))
               for line in results}
    assert reached >= {"check-ring", "lpa witness", "lpa verdict", "lpa classify",
                       "lpa decompose", "corner witness", "graph cover",
                       "morphism check", "examples"}
    assert {code for code, _, _ in results.values()} == {0, 1, 2}
